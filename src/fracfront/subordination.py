"""Log-domain quadrature for the subordination representation.

u_{a,rho}(t, x) = t^{-a} * integral_0^inf u_{1,rho}(s, x) W_{-a,1-a}(-t^{-a} s) ds.

The integrand couples e^s growth against the Wright density's
exp(-const * (s t^{-a})^{1/(1-a)}) decay, so the peak migrates to s of order
t and the values leave double range long before the experiment horizons.
Everything here is therefore computed as (sign, log|.|) pairs: the integral
is taken in w = log s (which also flattens the s -> 0 endpoint) over a window
found around the peak, where ``logvalue.panel_integral_log`` (32-point
Gauss-Legendre panels, bisected where needed) integrates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence, QuadratureFailure, Unsupported
from .kernels import FracParams, BoundEnvelope, classical_solution, stable_envelope
from .logvalue import LogValue, panel_integral_log
from .specfun import _log_wright


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
    fn: Callable[[float], LogValue], t: float, spec: QuadratureSpec
) -> LogValue:
    """integral_0^inf fn(s) ds in log space for a log-unimodal |fn|.

    Works in w = log s: the extra +w Jacobian term removes any integrable
    endpoint blow-up at s = 0 and makes the magnitude profile h(w) a clean
    single bump.
    """

    cache: dict[float, tuple[int, float]] = {}

    def at(w: float) -> tuple[int, float]:
        pair = cache.get(w)
        if pair is None:
            f = fn(math.exp(w))
            pair = (0, -math.inf) if f.sign == 0 else (f.sign, f.log_abs + w)
            cache[w] = pair
        return pair

    def h(w: float) -> float:
        return at(w)[1]

    # Coarse bracket around s in [t/4, 4t], expanded while the max sits on
    # an edge (the peak migrates right with t but starts near s ~ t).
    w_lo, w_hi = math.log(t / 4.0), math.log(4.0 * t)
    for _ in range(80):
        grid = np.linspace(w_lo, w_hi, 25)
        vals = [h(w) for w in grid]
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
    return panel_integral_log(at, np.linspace(lo, hi, n + 1), spec.rel_tol / 4.0)


def _wright_factor(alpha: float, x: float, spec: QuadratureSpec) -> LogValue:
    tol = spec.rel_tol / 4.0
    value, est, _, _ = _log_wright(alpha, 1.0 - alpha, x, tol=tol)
    if est > tol:
        raise NonConvergence(f"W_(-{alpha},{1.0 - alpha})(-{x}): estimate {est:.3g} > {tol:.3g}")
    return value


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
    classical = FracParams(1.0, params.rho, params.dim)
    ta = t ** alpha

    def integrand(s: float) -> LogValue:
        kern = classical_solution(classical, s, r)
        if kern.sign == 0:
            return kern
        return kern * _wright_factor(alpha, s / ta, spec)

    total = _integrate_log(integrand, t, spec)
    return LogValue(total.sign, total.log_abs - alpha * math.log(t))


def total_mass(
    alpha: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> LogValue:
    """Log of the spatial mass t^{-a} * integral e^s W_{-a,1-a}(-t^{-a} s) ds."""
    if not 0.0 < alpha < 1.0:
        raise Unsupported("total_mass is for alpha in (0,1)")
    ta = t ** alpha

    def integrand(s: float) -> LogValue:
        w = _wright_factor(alpha, s / ta, spec)
        if w.sign == 0:
            return w
        return LogValue(w.sign, w.log_abs + s)

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

    def integrand(s: float) -> LogValue:
        shape = stable_envelope(rho, s, r, d).lower
        w = _wright_factor(alpha, s / ta, spec)
        if w.sign == 0:
            return w
        return LogValue(1, shape.log_abs + s + w.log_abs)

    base = _integrate_log(integrand, t, spec).log_abs - alpha * math.log(t)
    return BoundEnvelope(
        LogValue(1, base + math.log(c1)), LogValue(1, base + math.log(c2))
    )
