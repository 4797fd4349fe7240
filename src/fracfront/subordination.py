"""Log-domain quadrature for the subordination representation.

u_{a,rho}(t, x) = t^{-a} * integral_0^inf u_{1,rho}(s, x) W_{-a,1-a}(-t^{-a} s) ds.

The integrand couples e^s growth against the Wright density's
exp(-const * (s t^{-a})^{1/(1-a)}) decay, so the peak migrates to s of order
t and the values leave double range long before the experiment horizons.
Everything here is therefore computed as (sign, log|.|) pairs: the integral
is taken in w = log s (which also flattens the s -> 0 endpoint) over a window
found around the peak, where ``logvalue.panel_integral_log`` (32-point
Gauss-Legendre panels, bisected where needed) integrates it.  The integrands
take arrays of s: the kernel (``kernels.log_classical`` or the envelope
shape) and the Wright factor (``specfun.log_wright_array``) are evaluated
once per panel round, not once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence, QuadratureFailure, Unsupported
from .kernels import BoundEnvelope, FracParams, log_classical, log_envelope_shape
from .logvalue import LogValue, panel_integral_log
from .specfun import log_wright_array

# The scalar views of the evaluators above; the integrands below take arrays
# and do not call them, but perfbench/child.py looks them up on this module.
from .kernels import classical_solution, stable_envelope  # noqa: E402,F401
from .specfun import _log_wright  # noqa: E402,F401


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and tail cut of the subordination integral: rel_tol / 4
    bounds the panels' summed |coarse - halves| relative to the integral and
    each Wright factor's relative error; the window spans e^{tail_cut_log} of
    the peak."""

    rel_tol: float = 1e-6
    tail_cut_log: float = -40.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0,1)")
        if self.tail_cut_log >= 0.0:
            raise ValueError("tail_cut_log must be negative")


DEFAULT_SPEC = QuadratureSpec()

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _integrate_log(
    fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], t: float, spec: QuadratureSpec
) -> LogValue:
    """integral_0^inf fn(s) ds in log space for a log-unimodal |fn|.

    ``fn`` takes an array of s and returns the arrays (sign, log|fn|).
    Works in w = log s: the extra +w Jacobian term removes any integrable
    endpoint blow-up at s = 0 and makes the magnitude profile h(w) a clean
    single bump.  The bracketing grid is one call of fn, the golden-section
    search and the tail walks one call per new point, and each panel round
    of ``panel_integral_log`` one call.
    """

    def f(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = fn(np.exp(w))
        return sign, log_abs + w

    cache: dict[float, float] = {}

    def h_many(ws) -> list[float]:
        new = [w for w in dict.fromkeys(ws) if w not in cache]
        if new:
            cache.update(zip(new, f(np.array(new))[1].tolist()))
        return [cache[w] for w in ws]

    def h(w: float) -> float:
        return h_many([w])[0]

    # Coarse bracket around s in [t/4, 4t], expanded while the max sits on
    # an edge (the peak migrates right with t but starts near s ~ t).
    w_lo, w_hi = math.log(t / 4.0), math.log(4.0 * t)
    for _ in range(80):
        grid = np.linspace(w_lo, w_hi, 25)
        vals = h_many(grid.tolist())
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

    # Golden-section refinement between the argmax neighbours; 0.618^60 ~
    # 3e-13, so the 1e-12 width stops it first for brackets under ~3 wide.
    a, b = grid[i - 1], grid[i + 1]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    for _ in range(60):
        if h(c) > h(d):
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
        if b - a < 1e-12:
            break
    w_peak = 0.5 * (a + b)
    h_peak = h(w_peak)
    cut = h_peak + spec.tail_cut_log

    def walk(w: float, step: float) -> float:
        # Require a few consecutive sub-cut values so a narrow zero crossing
        # of a sign-changing kernel is not mistaken for the tail.
        below = 0
        for _ in range(400):
            below = below + 1 if h(w) < cut else 0
            if below >= 3:
                return w
            w += step
        raise QuadratureFailure("tail truncation walked too far")

    lo = walk(w_peak, -0.5)
    hi = walk(w_peak, +0.5)

    n = max(8, int(math.ceil((hi - lo) / 2.0)))
    return panel_integral_log(f, np.linspace(lo, hi, n + 1), spec.rel_tol / 4.0)


def _times_wright(sign: np.ndarray, log_abs: np.ndarray, alpha: float, x: np.ndarray,
                  spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log) of the products with W_{-a,1-a}(-x), node by node; the
    Wright factor is evaluated only where the other factor is nonzero, and
    raises NonConvergence where its estimate misses rel_tol / 4."""
    tol = spec.rel_tol / 4.0
    live = np.flatnonzero(sign != 0.0)
    w_sign, w_log, est, _ = log_wright_array(alpha, 1.0 - alpha, x[live], tol)
    if np.any(est > tol):
        k = int(np.argmax(est > tol))
        raise NonConvergence(
            f"W_(-{alpha},{1.0 - alpha})(-{x[live][k]}): estimate {est[k]:.3g} > {tol:.3g}")
    sign, log_abs = sign.copy(), log_abs.copy()
    sign[live] *= w_sign
    log_abs[live] += w_log
    log_abs[sign == 0.0] = -math.inf
    return sign, log_abs


def subordinate(
    params: FracParams, t: float, r: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Signed log of u_{alpha,rho}(t, r) through the subordination integral.

    Requires an exact classical kernel (rho in {1/2, 1} any dimension, or
    rho > 1 with d = 1); for other rho in (0,1) use subordinate_envelope.
    """
    alpha = params.alpha
    if not 0.0 < alpha < 1.0:
        raise Unsupported("subordination integral is for alpha in (0,1)")
    if 0.0 < params.rho < 1.0 and params.rho != 0.5:
        raise Unsupported(
            f"no exact kernel at rho = {params.rho}; use subordinate_envelope"
        )
    ta = t ** alpha

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign, log_abs = log_classical(params.rho, params.dim, s, r)
        return _times_wright(sign, log_abs, alpha, s / ta, spec)

    total = _integrate_log(integrand, t, spec)
    return LogValue(total.sign, total.log_abs - alpha * math.log(t))


def total_mass(
    alpha: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Log of the spatial mass t^{-a} * integral e^s W_{-a,1-a}(-t^{-a} s) ds."""
    if not 0.0 < alpha < 1.0:
        raise Unsupported("total_mass is for alpha in (0,1)")
    ta = t ** alpha

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _times_wright(np.ones(s.size), s, alpha, s / ta, spec)

    total = _integrate_log(integrand, t, spec)
    return LogValue(total.sign, total.log_abs - alpha * math.log(t))


def subordinate_envelope(
    alpha: float,
    rho: float,
    d: int,
    t: float,
    r: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    c1: float = 1.0,
    c2: float = 1.0,
) -> BoundEnvelope:
    """Subordinated two-sided bounds for rho in (0,1) without an exact kernel.

    Both sides of the stable envelope share the shape
    t / (r^2 + t^{1/rho})^{(d+2 rho)/2} and differ only by the constants
    c1 <= c2, so one integral of the c-free shape serves both: the bounds
    are that integral plus log c1 and plus log c2.
    """
    if not 0.0 < rho < 1.0:
        raise Unsupported(f"envelope route requires rho in (0,1), got {rho}")
    if c1 <= 0.0 or c2 < c1:
        raise DomainError("require 0 < c1 <= c2")
    ta = t ** alpha

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _times_wright(np.ones(s.size), log_envelope_shape(rho, s, r, d) + s,
                             alpha, s / ta, spec)

    base = _integrate_log(integrand, t, spec).log_abs - alpha * math.log(t)
    return BoundEnvelope(
        LogValue(1, base + math.log(c1)), LogValue(1, base + math.log(c2))
    )
