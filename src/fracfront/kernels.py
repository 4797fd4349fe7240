"""Classical-time (first order in t) fundamental solutions and kernel bounds.

The one table of exact kernels K_t(r) is ``exact_kernel``: the Gaussian at
rho = 1 and the Cauchy kernel at rho = 1/2 in any dimension, and for rho > 1
in one dimension the (sign-changing) cosine transform of exp(-s^{2 rho}).
For rho in (0,1) otherwise only the constant-free shape
t / (r^2 + t^{1/rho})^{(d+2 rho)/2} of the stable kernel is available (the
kernel lies within constant factors of it).  ``log_kernel`` and
``log_envelope_shape`` take arrays of times and radii, for the subordination
integrands; ``kernel``, ``stable_envelope`` and ``classical_solution`` are
their one-point views.  The reaction factor e^t is added by
``classical_solution`` and by the subordination integral, not here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, Unsupported
from .logvalue import LogValue, kronrod_panels


@dataclass(frozen=True)
class FracParams:
    """The (alpha, rho, dim) triple identifying one equation instance."""

    alpha: float
    rho: float
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0,1], got {self.alpha}")
        if not 0.0 < self.rho < math.inf:
            raise DomainError(f"rho must be positive and finite, got {self.rho}")
        _check_dim(self.dim)


def _check_dim(d) -> None:
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise DomainError(f"dim must be an integer, got {d!r}")
    if d < 1:
        raise DomainError(f"dim must be >= 1, got {d}")


def _log_gaussian(t, r: float, d: int):
    """log of e^{-r^2/4t} / (4 pi t)^{d/2}, for floats or arrays t and r."""
    return -r * r / (4.0 * t) - 0.5 * d * np.log(4.0 * math.pi * t)


def _log_cauchy(t, r: float, d: int):
    """log of c_d t / (r^2 + t^2)^{(d+1)/2}, for floats or arrays t and r."""
    log_cd = math.lgamma(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(math.pi)
    return log_cd + log_envelope_shape(0.5, t, r, d)


def log_envelope_shape(rho: float, t, r, d: int):
    """log of the stable-envelope shape t / (r^2 + t^{1/rho})^{(d+2 rho)/2},
    for floats or arrays t and r."""
    # r^2 + t^{1/rho} in log form, from 2 log r and log t / rho, to survive
    # large radii; log 0 = -inf at r = 0.
    with np.errstate(divide="ignore"):
        log_quad = np.logaddexp(2.0 * np.log(r), np.log(t) / rho)
        return np.log(t) - 0.5 * (d + 2.0 * rho) * log_quad


def _check_point(t: float, r: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if not 0.0 <= r < math.inf:
        raise DomainError(f"radius must be >= 0 and finite, got {r}")


def stable_envelope(rho: float, t: float, r: float, d: int) -> LogValue:
    """Log of the stable-envelope shape t / (r^2 + t^{1/rho})^{(d+2 rho)/2}:
    the stable kernel lies between constant multiples of it."""
    if not 0.0 < rho < 1.0:
        raise Unsupported(f"stable envelope only holds for rho in (0,1), got {rho}")
    _check_dim(d)
    _check_point(t, r)
    return LogValue(1, float(log_envelope_shape(rho, t, r, d)))


# Panels per batch of the cosine transform, and rows per (panels x 31)
# matrix: 62 KB a matrix, whatever the number of y.
_SEGMENT_CHUNK = 256


def _f_transform(rho: float, ys) -> np.ndarray:
    """F(y) = (1/pi) * integral_0^inf exp(-s^{2 rho}) cos(s y) ds at every y
    of an array.

    Each y gets n = max(4, ceil(y s_max / pi)) equal panels over [0, s_max],
    at most one half period of the cosine long, so the 31-point Kronrod
    rule K31 resolves each; the exp(-s^{2 rho}) factor kills the tail
    super-exponentially.  The y go in consecutive batches of about
    _SEGMENT_CHUNK panels, evaluated as (panels x 31) matrices; each F(y) is
    the exactly rounded sum (math.fsum) of its own panels.
    """
    ys = np.abs(np.asarray(ys, dtype=float))
    if not np.all(np.isfinite(ys)):
        raise QuadratureFailure(f"cosine transform did not terminate at y = {ys.max()}")
    # exp(-s^{2 rho}) < 1e-19 beyond this point.
    s_max = 44.0 ** (1.0 / (2.0 * rho))
    # The guard goes on the float panel count, before it is cast: a huge y
    # would wrap round as an integer.
    with np.errstate(over="ignore"):
        est = np.maximum(4.0, np.ceil(ys * s_max / math.pi))
    if np.any(est > 200000):
        raise QuadratureFailure(f"cosine transform did not terminate at y = {ys[est > 200000][0]}")
    counts = est.astype(int)
    ends = np.cumsum(counts)
    totals, lo = np.empty(ys.size), 0
    while lo < ys.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _SEGMENT_CHUNK, "right")))
        n = counts[lo:hi]
        first = np.cumsum(n) - n
        owner = np.repeat(np.arange(lo, hi), n)
        i = np.arange(owner.size) - np.repeat(first, n)
        width = s_max / counts[owner]
        pieces = np.empty(owner.size)
        for start in range(0, owner.size, _SEGMENT_CHUNK):
            part = slice(start, start + _SEGMENT_CHUNK)
            ss, ww = kronrod_panels(i[part] * width[part], (i[part] + 1) * width[part])
            vals = np.exp(-(ss ** (2.0 * rho))) * np.cos(ss * ys[owner[part], None])
            pieces[part] = (vals * ww).sum(axis=1)
        totals[lo:hi] = [math.fsum(p) for p in np.split(pieces, first[1:])]
        lo = hi
    totals /= math.pi
    # The tail beyond s_max is below e^{-44} by construction.
    if not np.all(np.isfinite(totals)):
        raise QuadratureFailure(
            f"cosine transform overflowed at y = {ys[~np.isfinite(totals)][0]}")
    return totals


def f_bound(rho: float, y: float, k_const: float, omega: float) -> float:
    """Envelope K exp(-omega |y|^{2 rho/(2 rho - 1)}) dominating |F(y)|."""
    if rho <= 1.0:
        raise DomainError(f"bound stated for rho > 1, got {rho}")
    if k_const <= 1.0 or omega <= 0.0:
        raise DomainError("require k_const > 1 and omega > 0")
    return k_const * math.exp(-omega * abs(y) ** (2.0 * rho / (2.0 * rho - 1.0)))


def exact_kernel(rho: float, d: int) -> bool:
    """Whether K_t has an exact evaluator: rho in {1/2, 1} in any dimension,
    or rho > 1 in dimension 1."""
    return rho in (0.5, 1.0) or (rho > 1.0 and d == 1)


def log_kernel(rho: float, d: int, s: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Signed log of the exact kernel K_s(r) at every s of an array, for one
    r or an array of one r per s, as the arrays (sign, log|.|); Unsupported
    off the ``exact_kernel`` table.  The
    rho > 1 kernel may vanish at its zero crossings (sign 0), and the
    kernels of all the s share one batch of cosine transforms."""
    if not exact_kernel(rho, d):
        raise Unsupported(f"no exact kernel for rho = {rho} in dimension {d}")
    if rho == 1.0:
        return np.ones(s.size), _log_gaussian(s, r, d)
    if rho == 0.5:
        return np.ones(s.size), _log_cauchy(s, r, d)
    scale = s ** (-1.0 / (2.0 * rho))
    f = _f_transform(rho, scale * r)
    with np.errstate(divide="ignore"):
        return np.sign(f), np.log(np.abs(f)) + np.log(scale)


def kernel(rho: float, d: int, t: float, r: float) -> LogValue:
    """Signed log of the exact kernel K_t(r), the one-point view of
    ``log_kernel``: e^{-r^2/4t} / (4 pi t)^{d/2} at rho = 1,
    c_d t / (r^2 + t^2)^{(d+1)/2} at rho = 1/2, and
    t^{-1/(2 rho)} F(t^{-1/(2 rho)} r) at rho > 1 in d = 1 (zero at its
    zero crossings)."""
    _check_dim(d)
    _check_point(t, r)
    sign, log_abs = log_kernel(rho, d, np.array([float(t)]), r)
    return LogValue.from_log(float(log_abs[0]), int(sign[0]))


def classical_solution(params: FracParams, t: float, r: float) -> LogValue:
    """The alpha = 1 solution e^t K_t(r) for the exact kernels of
    ``exact_kernel`` (Unsupported off that table)."""
    if params.alpha != 1.0:
        raise DomainError("classical_solution is the alpha = 1 solution")
    k = kernel(params.rho, params.dim, t, r)
    return LogValue.from_log(t + k.log_abs, k.sign)
