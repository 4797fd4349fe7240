"""Signed log-magnitude scalars.

Solution values along invasion curves behave like exp(c*t) with t up to ~60,
so everything downstream of the kernels is carried as (sign, log|value|)
pairs instead of raw floats; the subordination integral and the Fourier
segments both run on the panel quadrature ``panel_integral_log`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureFailure

# The 32-point Gauss-Legendre rule on [-1, 1] of every quadrature, and the
# panel budget of ``panel_integral_log``.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
MAX_PANELS = 4096


@dataclass(frozen=True)
class LogValue:
    """A real number stored as a sign and the log of its absolute value.

    ``sign`` is -1, 0 or +1; ``log_abs`` is ``-inf`` exactly when ``sign`` is 0.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.log_abs == -math.inf):
            raise ValueError("sign == 0 iff log_abs == -inf")

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0, -math.inf)

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if x == 0.0:
            return LogValue.zero()
        return LogValue(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "LogValue":
        if log_abs == -math.inf:
            return LogValue.zero()
        return LogValue(sign, log_abs)

    def to_float(self) -> float:
        """Collapse to a float; overflows to +-inf, underflows to 0."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log_abs + other.log_abs)

    def scaled(self, factor: float) -> "LogValue":
        """Multiply by a plain positive float."""
        if factor <= 0:
            raise ValueError("scaled() expects a positive factor")
        if self.sign == 0:
            return self
        return LogValue(self.sign, self.log_abs + math.log(factor))

    # Ordering compares the signed real values the pairs represent.
    def _key(self):
        return (self.sign, self.sign * self.log_abs)

    def __lt__(self, other: "LogValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "LogValue") -> bool:
        return self._key() <= other._key()


def signed_log_sum(values: Iterable[LogValue]) -> tuple[LogValue, float]:
    """Sum LogValues without leaving log space.

    Returns ``(total, cancellation)`` where ``cancellation`` is the ratio of
    the gross magnitude sum to the net magnitude (1.0 means no cancellation).
    All exponentials are taken relative to the largest magnitude present.
    """
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return LogValue.zero(), 1.0
    m = max(v.log_abs for v in vals)
    net = math.fsum(v.sign * math.exp(v.log_abs - m) for v in vals)
    gross = math.fsum(math.exp(v.log_abs - m) for v in vals)
    if net == 0.0:
        return LogValue.zero(), math.inf
    total = LogValue(1 if net > 0 else -1, m + math.log(abs(net)))
    return total, gross / abs(net)


def gl_panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the 32-point rule on the panels between
    ``edges``, panel-major: entries [32 i, 32 i + 32) lie in panel i."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * GL_NODES[None, :]).ravel()
    return nodes, (halves[:, None] * GL_WEIGHTS[None, :]).ravel()


def panel_integral_log(
    f: Callable[[float], tuple[int, float]],
    lo: float, hi: float, n_start: int, tol: float,
) -> LogValue:
    """Signed log of integral_lo^hi f, with f(x) given as (sign, log|f(x)|).

    The 32-point rule on n equal panels, n doubling from ``n_start`` up to
    MAX_PANELS, until two successive sums share a nonzero sign and their logs
    differ by at most ``tol`` (or both are zero: an exact zero), else
    QuadratureFailure.  Sums stay in log space, so f may exceed double range.
    """

    def panel_sum(n: int) -> LogValue:
        nodes, weights = gl_panels(np.linspace(lo, hi, n + 1))
        pieces = []
        for x, w in zip(nodes.tolist(), weights.tolist()):
            sign, log_abs = f(x)
            if sign != 0:
                pieces.append(LogValue(sign, log_abs + math.log(w)))
        return signed_log_sum(pieces)[0]

    n, prev = n_start, panel_sum(n_start)
    while True:
        n = min(2 * n, MAX_PANELS)
        cur = panel_sum(n)
        change = abs(cur.log_abs - prev.log_abs)
        if cur.sign == prev.sign and (cur.sign == 0 or change <= tol):
            return cur
        if n >= MAX_PANELS:
            raise QuadratureFailure(
                f"integral over [{lo:.6g}, {hi:.6g}] did not converge in "
                f"{MAX_PANELS} panels (last log change {change:.2e})"
            )
        prev = cur
