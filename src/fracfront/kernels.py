"""Classical-time (first order in t) fundamental solutions and kernel bounds.

Exact kernels exist at rho = 1 (Gaussian) and rho = 1/2 (Cauchy); for
rho in (0,1) otherwise only the two-sided stable envelope
C * t / (r^2 + t^{1/rho})^{(d+2 rho)/2} is available, and for rho > 1 in one
dimension the kernel is the (sign-changing) cosine transform of
exp(-s^{2 rho}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, Unsupported
from .logvalue import GL_NODES, GL_WEIGHTS, LogValue


@dataclass(frozen=True)
class FracParams:
    """The (alpha, rho, dim) triple identifying one equation instance."""

    alpha: float
    rho: float
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0,1], got {self.alpha}")
        if self.rho <= 0.0:
            raise DomainError(f"rho must be positive, got {self.rho}")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class BoundEnvelope:
    """Two-sided log-domain bound on a nonnegative density."""

    lower: LogValue
    upper: LogValue

    def __post_init__(self):
        if self.upper < self.lower:
            raise DomainError("envelope requires lower <= upper")


def gaussian_density(t: float, r: float, d: int = 1) -> LogValue:
    """Log of the heat kernel e^{-r^2/4t} / (4 pi t)^{d/2} at radius r."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if r < 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    return LogValue(1, -r * r / (4.0 * t) - 0.5 * d * math.log(4.0 * math.pi * t))


def cauchy_density(t: float, r: float, d: int = 1) -> LogValue:
    """Log of the Poisson kernel c_d t / (r^2 + t^2)^{(d+1)/2}."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if r < 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    log_cd = math.lgamma(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(math.pi)
    # r^2 + t^2 in log form to survive large radii.
    log_quad = 2.0 * math.log(max(r, t)) + math.log1p((min(r, t) / max(r, t)) ** 2)
    return LogValue(1, log_cd + math.log(t) - 0.5 * (d + 1) * log_quad)


def stable_envelope(
    rho: float,
    t: float,
    r: float,
    d: int,
    c1: float = 1.0,
    c2: float = 1.0,
) -> BoundEnvelope:
    """Two-sided bound c * t / (r^2 + t^{1/rho})^{(d+2 rho)/2} on the stable kernel."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"stable envelope only holds for rho in (0,1), got {rho}")
    if t <= 0.0 or r < 0.0:
        raise DomainError("require t > 0 and r >= 0")
    if c1 <= 0.0 or c2 < c1:
        raise DomainError("require 0 < c1 <= c2")
    ts = t ** (1.0 / rho)
    big, small = max(r * r, ts), min(r * r, ts)
    log_quad = math.log(big) + math.log1p(small / big)
    log_shape = math.log(t) - 0.5 * (d + 2.0 * rho) * log_quad
    return BoundEnvelope(
        LogValue(1, math.log(c1) + log_shape),
        LogValue(1, math.log(c2) + log_shape),
    )


def _f_transform(rho: float, y: float) -> float:
    """F(y) = (1/pi) * integral_0^inf exp(-s^{2 rho}) cos(s y) ds.

    Integrated per half-period of the cosine so each segment is single
    signed; the exp(-s^{2 rho}) factor kills the tail super-exponentially.
    """
    y = abs(y)
    # exp(-s^{2 rho}) < 1e-19 beyond this point.
    s_max = 44.0 ** (1.0 / (2.0 * rho))

    def integrate(a: float, b: float) -> float:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ss = mid + half * GL_NODES
        vals = np.exp(-(ss ** (2.0 * rho))) * np.cos(ss * y)
        return half * float(np.dot(GL_WEIGHTS, vals))

    if y * s_max < math.pi:
        # Less than half an oscillation in range; split only for resolution.
        edges = np.linspace(0.0, s_max, 9)
        pieces = [integrate(a, b) for a, b in zip(edges[:-1], edges[1:])]
        return math.fsum(pieces) / math.pi

    pieces = []
    a = 0.0
    j = 0
    while a < s_max:
        b = min((2 * j + 1) * math.pi / (2.0 * y), s_max)
        if b > a:
            # Sub-split long first segments so 32 nodes always resolve them.
            n_sub = max(1, int((b - a) * y / math.pi) + 1)
            sub = np.linspace(a, b, n_sub + 1)
            pieces.extend(integrate(lo, hi) for lo, hi in zip(sub[:-1], sub[1:]))
        a = b
        j += 1
        if j > 200000:
            raise QuadratureFailure(f"cosine transform did not terminate at y = {y}")
    total = math.fsum(pieces) / math.pi
    # The tail beyond s_max is below e^{-44} by construction.
    if not math.isfinite(total):
        raise QuadratureFailure(f"cosine transform overflowed at y = {y}")
    return total


def higher_order_kernel_1d(rho: float, t: float, x: float) -> LogValue:
    """Signed log of the d = 1 kernel t^{-1/(2 rho)} F(t^{-1/(2 rho)} x), rho >= 1.

    Sign-changing for rho > 1.
    """
    if rho < 1.0:
        raise DomainError(f"higher-order kernel requires rho >= 1, got {rho}")
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    scale = t ** (-1.0 / (2.0 * rho))
    f = _f_transform(rho, scale * x)
    return LogValue.from_float(f).scaled(scale) if f != 0.0 else LogValue.zero()


def f_bound(rho: float, y: float, k_const: float, omega: float) -> float:
    """Envelope K exp(-omega |y|^{2 rho/(2 rho - 1)}) dominating |F(y)|."""
    if rho <= 1.0:
        raise DomainError(f"bound stated for rho > 1, got {rho}")
    if k_const <= 1.0 or omega <= 0.0:
        raise DomainError("require k_const > 1 and omega > 0")
    return k_const * math.exp(-omega * abs(y) ** (2.0 * rho / (2.0 * rho - 1.0)))


def classical_solution(params: FracParams, t: float, r: float):
    """First-order-in-time solution e^t times the diffusion kernel.

    Exact LogValue for rho in {1/2, 1} any dimension and for rho > 1 with
    d = 1; BoundEnvelope for other rho in (0,1).  The kernel may vanish at
    zero crossings of the rho > 1 kernel, giving a Zero LogValue.
    """
    if params.alpha != 1.0:
        raise DomainError("classical_solution is the alpha = 1 solution")
    if t <= 0.0 or r < 0.0:
        raise DomainError("require t > 0 and r >= 0")
    rho, d = params.rho, params.dim
    if rho == 1.0:
        return LogValue(1, t + gaussian_density(t, r, d).log_abs)
    if rho == 0.5:
        return LogValue(1, t + cauchy_density(t, r, d).log_abs)
    if rho > 1.0:
        if d != 1:
            raise Unsupported(
                f"no exact kernel for rho = {rho} in dimension {d}"
            )
        kern = higher_order_kernel_1d(rho, t, r)
        if kern.sign == 0:
            return kern
        return LogValue(kern.sign, t + kern.log_abs)
    env = stable_envelope(rho, t, r, d)
    return BoundEnvelope(
        LogValue(1, t + env.lower.log_abs),
        LogValue(1, t + env.upper.log_abs),
    )
