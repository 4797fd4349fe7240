"""Log-domain quadrature for the subordination representation.

u_{a,rho}(t, x) = t^{-a} * integral_0^inf u_{1,rho}(s, x) W_{-a,1-a}(-t^{-a} s) ds.

The integrand couples e^s growth against the Wright density's
exp(-const * (s t^{-a})^{1/(1-a)}) decay, so the peak migrates to s of order
t and the values leave double range long before the experiment horizons.
Everything here is therefore computed as (sign, log|.|) pairs: the integral
is taken in w = log s (which also flattens the s -> 0 endpoint) over a window
found around the peak, where ``logvalue.panel_integral_log`` (Gauss-Kronrod
K31 / G15 panels, bisected where needed) integrates it.  The integrands
take arrays of s: the bare kernel (``kernels.log_kernel``, the envelope
shape or the unit kernel of ``total_mass``), the reaction factor e^s and
the Wright factor (``specfun.log_wright_array``) are evaluated once per
panel round, not once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence, QuadratureFailure, Unsupported
from .kernels import (FracParams, _check_dim, _check_point, exact_kernel, log_envelope_shape,
                      log_kernel)
from .logvalue import LogValue, panel_integral_log
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
    largest value on the bracketing grid."""

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
    fn: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]], t: float, spec: QuadratureSpec
) -> LogValue:
    """integral_0^inf fn(s) ds in log space for a log-unimodal |fn|.

    ``fn(s, tol)`` takes an array of s and a relative tolerance and returns
    the arrays (sign, log|fn|).  Works in w = log s: the extra +w Jacobian
    term removes any integrable endpoint blow-up at s = 0 and makes the
    magnitude profile h(w) a clean single bump.  Every call of fn is an
    array call: each 25-point bracketing grid and each block of
    ``_WALK_BLOCK`` tail-walk steps at ``_WINDOW_TOL`` (or rel_tol / 4 if
    looser), and each panel round of ``panel_integral_log`` at rel_tol / 4.
    """
    panel_tol = spec.rel_tol / 4.0
    window_tol = max(_WINDOW_TOL, panel_tol)

    def f(w: np.ndarray, tol: float = panel_tol) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = fn(np.exp(w), tol)
        return sign, log_abs + w

    # Coarse bracket around s in [t/4, 4t], expanded while the max sits on
    # an edge (the peak migrates right with t but starts near s ~ t).
    w_lo, w_hi = math.log(t / 4.0), math.log(4.0 * t)
    for _ in range(80):
        grid = np.linspace(w_lo, w_hi, 25)
        vals = f(grid, window_tol)[1]
        i = int(np.argmax(vals))
        if not math.isfinite(vals[i]):
            raise QuadratureFailure("integrand magnitude is nowhere finite")
        if i == 0:
            w_lo -= (w_hi - w_lo)
        elif i == len(grid) - 1:
            w_hi += (w_hi - w_lo)
        else:
            break
    else:
        raise QuadratureFailure("peak bracketing did not terminate")

    # The grid maximum is at most the peak, so a cut below it can only widen
    # the window.
    cut = vals[i] + spec.tail_cut_log

    def walk(step: float) -> float:
        # Require a few consecutive sub-cut values so a narrow zero crossing
        # of a sign-changing kernel is not mistaken for the tail.
        below = 0
        for k in range(1, 401, _WALK_BLOCK):
            ws = grid[i] + step * np.arange(k, k + _WALK_BLOCK)
            for w, sub in zip(ws.tolist(), (f(ws, window_tol)[1] < cut).tolist()):
                below = below + 1 if sub else 0
                if below >= 3:
                    return w
        raise QuadratureFailure("tail truncation walked too far")

    lo, hi = walk(-0.5), walk(+0.5)
    n = max(8, int(math.ceil((hi - lo) / 2.0)))
    return panel_integral_log(f, np.linspace(lo, hi, n + 1), panel_tol)


def _subordinated(
    bare_kernel: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    alpha: float,
    t: float,
    spec: QuadratureSpec,
) -> LogValue:
    """t^{-a} * integral_0^inf e^s K(s) W_{-a,1-a}(-t^{-a} s) ds in log space.

    ``bare_kernel`` maps an array of s to the arrays (sign, log|K|) of the
    bare kernel; the reaction factor e^s is added here.  The Wright factor
    is evaluated only where K is nonzero, and raises NonConvergence where
    its estimate misses the tolerance of the call.
    """
    ta = t ** alpha

    def integrand(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = bare_kernel(s)
        log_abs = s + log_abs  # the reaction factor e^s
        live = np.flatnonzero(sign != 0.0)
        x = s[live] / ta
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

    total = _integrate_log(integrand, t, spec)
    return LogValue(total.sign, total.log_abs - alpha * math.log(t))


def _reject_divergent_origin(rho: float, d: int, r: float) -> None:
    """Near s = 0 the integrand is about s^{-d/(2 rho)} / Gamma(1 - alpha),
    so u(t, 0) is infinite when d >= 2 rho."""
    if r == 0.0 and d >= 2.0 * rho:
        raise DomainError(
            f"u(t, 0) diverges for d = {d} >= 2 rho = {2.0 * rho}: the kernel's"
            " center is not integrable against the subordination weight")


def subordinate(
    params: FracParams, t: float, r: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Signed log of u_{alpha,rho}(t, r) through the subordination integral.

    Requires an exact classical kernel (``kernels.exact_kernel``); for other
    rho in (0,1) use subordinate_envelope.  Raises DomainError at r = 0 when
    d >= 2 rho, where u(t, 0) diverges.
    """
    rho, d = params.rho, params.dim
    if not 0.0 < params.alpha < 1.0:
        raise Unsupported("subordination integral is for alpha in (0,1)")
    if not exact_kernel(rho, d):
        raise Unsupported(f"no exact kernel for rho = {rho} in dimension {d}")
    _check_point(t, r)
    _reject_divergent_origin(rho, d, r)
    return _subordinated(lambda s: log_kernel(rho, d, s, r), params.alpha, t, spec)


def total_mass(
    alpha: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Log of the spatial mass t^{-a} * integral e^s W_{-a,1-a}(-t^{-a} s) ds."""
    if not 0.0 < alpha < 1.0:
        raise Unsupported("total_mass is for alpha in (0,1)")
    _check_point(t, 0.0)
    return _subordinated(lambda s: (np.ones(s.size), np.zeros(s.size)), alpha, t, spec)


def subordinate_envelope(
    alpha: float,
    rho: float,
    d: int,
    t: float,
    r: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> LogValue:
    """Subordination of the stable-envelope shape, for rho in (0,1) without
    an exact kernel.

    The stable kernel lies within constant factors of the shape
    t / (r^2 + t^{1/rho})^{(d+2 rho)/2}, so u lies within the same factors
    of this value.  Raises DomainError at r = 0 when d >= 2 rho, where it
    diverges.
    """
    if not 0.0 < alpha < 1.0:
        raise Unsupported("subordination integral is for alpha in (0,1)")
    if not 0.0 < rho < 1.0:
        raise Unsupported(f"envelope route requires rho in (0,1), got {rho}")
    _check_dim(d)
    _check_point(t, r)
    _reject_divergent_origin(rho, d, r)
    return _subordinated(
        lambda s: (np.ones(s.size), log_envelope_shape(rho, s, r, d)), alpha, t, spec)
