"""Log-domain quadrature for the subordination representation.

u_{a,rho}(t, x) = t^{-a} * integral_0^inf u_{1,rho}(s, x) W_{-a,1-a}(-t^{-a} s) ds.

The integrand couples e^s growth against the Wright density's
exp(-const * (s t^{-a})^{1/(1-a)}) decay, so the peak migrates to s of order
t and the values leave double range long before the experiment horizons.
Everything here is therefore computed as (sign, log|.|) pairs: the integral
is taken in w = log s (which also flattens the s -> 0 endpoint) over a window
found around the peak, where ``logvalue.panel_integrals_log`` (Gauss-Kronrod
K31 / G15 panels, bisected where needed) integrates it.  The integrands
take the s of all the (t, r) points of a call as one array: the bare kernel
(``kernels.log_kernel``, the envelope shape or the unit kernel of
``total_mass``), the reaction factor e^s and the Wright factor
(``specfun.log_wright_array``) are evaluated once per step, not per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, FracFrontError, NonConvergence, QuadratureFailure, Unsupported
from .kernels import (FracParams, _check_dim, _check_point, exact_kernel, log_envelope_shape,
                      log_kernel)
from .logvalue import LogValue, call_by_owner, panel_integrals_log
from .specfun import log_wright_array

# The scalar views of the evaluators above; the integrands below take arrays
# and do not call them, but perfbench/child.py looks them up on this module.
from .kernels import classical_solution, stable_envelope  # noqa: E402,F401
from .specfun import _log_wright  # noqa: E402,F401


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and tail cut of the subordination integral: rel_tol / 4
    bounds the sum of the panels' |K31 - G15| relative to the integral and
    the relative error of the Wright factor at each panel node; the
    window ends where the integrand falls below e^{tail_cut_log} times the
    largest value its tail walks have shown so far."""

    rel_tol: float = 1e-6
    tail_cut_log: float = -40.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must be in (0,1)")
        if self.tail_cut_log >= 0.0:
            raise DomainError("tail_cut_log must be negative")


DEFAULT_SPEC = QuadratureSpec()

# Tail-walk steps per integrand call; 16 steps of 0.5 in w end most walks
# in one call.
_WALK_BLOCK = 16

# Relative tolerance of the values that place the window: they only meet a
# cut tail_cut_log nats down, and a walk block reaches past the window's
# edge, where the Wright factor need not meet a tight rel_tol.
_WINDOW_TOL = 1e-3


def _integrate_log(
    fn: Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, np.ndarray]],
    ts, spec: QuadratureSpec, failed: dict,
) -> list[LogValue | FracFrontError]:
    """integral_0^inf fn_j(s) ds in log space for each t_j of ts, |fn_j|
    log-unimodal, or the error of each j in ``failed``.

    ``fn(s, owner, tol)`` takes an array of s, the j of each s and a relative
    tolerance and returns the arrays (sign, log|fn_j|).  Works in w = log s:
    the extra +w Jacobian term removes any integrable endpoint blow-up at
    s = 0 and makes the magnitude profile h(w) a clean single bump.  Each
    call of fn covers every j still in its phase: each block of
    ``_WALK_BLOCK`` steps of both tail walks at ``_WINDOW_TOL`` (or
    rel_tol / 4 if looser), and each panel round of ``panel_integrals_log``
    at rel_tol / 4.  A j that fails joins ``failed``; each j's decisions,
    value and error are those of a call of its own.
    """
    panel_tol = spec.rel_tol / 4.0
    window_tol = max(_WINDOW_TOL, panel_tol)

    def f(w: np.ndarray, owner: np.ndarray,
          tol: float = panel_tol) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = fn(np.exp(w), owner, tol)
        return sign, log_abs + w

    # Walk out from w = log t both ways in steps of 0.5, log t itself first
    # (the peak starts near s ~ t and migrates right with t; near alpha = 1
    # it is a cliff at s ~ t narrower than a step), until three consecutive
    # values are below the cut, so a narrow zero crossing of a sign-changing
    # kernel is not mistaken for the tail.  The cut lies tail_cut_log below
    # the largest value the sample has shown so far, node by node in order
    # of distance from log t: it only grows, so a walk that has stopped
    # stays past the final cut, and a walk climbing a steep flank is never
    # below it.  ``walks`` maps each walk still going to its count of
    # consecutive values below the cut; a failed sample's walks stop.  The
    # logs are taken one t at a time, as a one-point call takes them.
    starts = {j: math.log(t) for j, t in enumerate(ts) if j not in failed}
    top = dict.fromkeys(starts, -math.inf)
    walks, ends = {(j, step): 0 for j in starts for step in (-0.5, 0.5)}, {}
    for k in range(0, 400, _WALK_BLOCK):
        if not walks:
            break
        block = list(walks)
        ws = np.array([starts[j] + step * (k + (step > 0) + np.arange(_WALK_BLOCK))
                       for j, step in block])
        vals = call_by_owner(lambda w, o: f(w, o, window_tol), ws.ravel(),
                             np.repeat([j for j, _ in block], _WALK_BLOCK), failed)[1]
        for w_col, v_col in zip(ws.T.tolist(), vals.reshape(ws.shape).T.tolist()):
            for walk, w, v in zip(block, w_col, v_col):
                if walk in walks:
                    j = walk[0]
                    top[j] = max(top[j], v)
                    walks[walk] = walks[walk] + 1 if v < top[j] + spec.tail_cut_log else 0
                    if walks[walk] >= 3:
                        ends[walk] = w
                        del walks[walk]
        failed.update((j, QuadratureFailure("integrand magnitude is nowhere finite"))
                      for j, _ in block if j not in failed and not math.isfinite(top[j]))
        walks = {walk: n for walk, n in walks.items() if walk[0] not in failed}
    failed.update((j, QuadratureFailure("tail truncation walked too far")) for j, _ in walks)

    # Panels between each sample's walk ends; a failed sample gets none.
    edge_lists = [[0.0] if j in failed else
                  np.linspace(ends[j, -0.5], ends[j, 0.5],
                              max(8, math.ceil((ends[j, 0.5] - ends[j, -0.5]) / 2.0)) + 1)
                  for j in range(len(ts))]
    values = panel_integrals_log(f, edge_lists, panel_tol, failed)
    return [failed.get(j, v) for j, v in enumerate(values)]


def _subordinated(
    bare_kernel: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    alpha: float, ts, rs, spec: QuadratureSpec, failed: dict,
) -> list[LogValue | FracFrontError]:
    """t^{-a} * integral_0^inf e^s K(s, r) W_{-a,1-a}(-t^{-a} s) ds in log
    space at each (t, r) of ts, rs, or its error, as ``_integrate_log``.

    ``bare_kernel`` maps arrays of s and r to the arrays (sign, log|K|) of
    the bare kernel; the reaction factor e^s is added here.  The Wright
    factor is evaluated only where K is nonzero, and raises NonConvergence
    where its estimate misses the tolerance of the call.
    """
    ts, rs = [float(t) for t in ts], np.asarray(rs, dtype=float)
    # t^a one t at a time: numpy's vector pow may differ from libm's by an
    # ulp, and a one-point call would then not match its sample of a batch.
    ta = np.array([1.0 if j in failed else t ** alpha for j, t in enumerate(ts)])

    def integrand(s: np.ndarray, owner: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = bare_kernel(s, rs[owner])
        log_abs = s + log_abs  # the reaction factor e^s
        live = np.flatnonzero(sign != 0.0)
        x = s[live] / ta[owner[live]]
        w_sign, w_log, est, _ = log_wright_array(alpha, 1.0 - alpha, x, tol)
        if np.any(est > tol):
            k = int(np.argmax(est > tol))
            raise NonConvergence(
                f"W_(-{alpha},{1.0 - alpha})(-{x[k]}): estimate {est[k]:.3g} > {tol:.3g}")
        sign = sign.copy()
        sign[live] *= w_sign
        log_abs[live] += w_log
        log_abs[sign == 0.0] = -math.inf
        return sign, log_abs

    totals = _integrate_log(integrand, ts, spec, failed)
    return [v if isinstance(v, FracFrontError) else
            LogValue(v.sign, v.log_abs - alpha * math.log(t)) for v, t in zip(totals, ts)]


def _reject_divergent_origin(rho: float, d: int, r: float) -> None:
    """Near s = 0 the integrand is about s^{-d/(2 rho)} / Gamma(1 - alpha),
    so u(t, 0) is infinite when d >= 2 rho."""
    if r == 0.0 and d >= 2.0 * rho:
        raise DomainError(
            f"u(t, 0) diverges for d = {d} >= 2 rho = {2.0 * rho}: the kernel's"
            " center is not integrable against the subordination weight")


def _check_points(rho: float, d: int, ts, rs) -> dict:
    """The DomainError of each (t, r) of ts, rs that a one-point call
    raises, by index; a DomainError unless there is one r per t."""
    if len(ts) != len(rs):
        raise DomainError(f"{len(ts)} times against {len(rs)} radii")
    errors = {}
    for j, (t, r) in enumerate(zip(ts, rs)):
        try:
            _check_point(t, r)
            _reject_divergent_origin(rho, d, r)
        except DomainError as exc:
            errors[j] = exc
    return errors


def _one(values: list):
    """The value of a one-point call, raising its error."""
    (value,) = values
    if isinstance(value, FracFrontError):
        raise value
    return value


def subordinate_points(
    params: FracParams, ts, rs, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[LogValue | FracFrontError]:
    """Signed logs of u_{alpha,rho}(t, r) through the subordination integral
    at each (t, r) of ts, rs, integrated together; at a point that fails,
    the error a call of its own raises (DomainError at r = 0 when
    d >= 2 rho, where u(t, 0) diverges).

    Requires an exact classical kernel (``kernels.exact_kernel``); for other
    rho in (0,1) use subordinate_envelope_points.
    """
    rho, d = params.rho, params.dim
    if not 0.0 < params.alpha < 1.0:
        raise Unsupported("subordination integral is for alpha in (0,1)")
    if not exact_kernel(rho, d):
        raise Unsupported(f"no exact kernel for rho = {rho} in dimension {d}")
    return _subordinated(lambda s, r: log_kernel(rho, d, s, r), params.alpha, ts, rs, spec,
                         _check_points(rho, d, ts, rs))


def subordinate(
    params: FracParams, t: float, r: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Signed log of u_{alpha,rho}(t, r): the one-point view of
    ``subordinate_points``."""
    return _one(subordinate_points(params, [t], [r], spec))


def total_mass(
    alpha: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Log of the spatial mass t^{-a} * integral e^s W_{-a,1-a}(-t^{-a} s) ds."""
    if not 0.0 < alpha < 1.0:
        raise Unsupported("total_mass is for alpha in (0,1)")
    _check_point(t, 0.0)
    return _one(_subordinated(
        lambda s, r: (np.ones(s.size), np.zeros(s.size)), alpha, [t], [0.0], spec, {}))


def subordinate_envelope_points(
    alpha: float, rho: float, d: int, ts, rs, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[LogValue | FracFrontError]:
    """Subordination of the stable-envelope shape at each (t, r) of ts, rs,
    as ``subordinate_points``, for rho in (0,1) without an exact kernel.

    The stable kernel lies within constant factors of the shape
    t / (r^2 + t^{1/rho})^{(d+2 rho)/2}, so u lies within the same factors
    of these values.
    """
    if not 0.0 < alpha < 1.0:
        raise Unsupported("subordination integral is for alpha in (0,1)")
    if not 0.0 < rho < 1.0:
        raise Unsupported(f"envelope route requires rho in (0,1), got {rho}")
    _check_dim(d)
    return _subordinated(lambda s, r: (np.ones(s.size), log_envelope_shape(rho, s, r, d)),
                         alpha, ts, rs, spec, _check_points(rho, d, ts, rs))


def subordinate_envelope(
    alpha: float, rho: float, d: int, t: float, r: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """The one-point view of ``subordinate_envelope_points``."""
    return _one(subordinate_envelope_points(alpha, rho, d, [t], [r], spec))
