"""Signed log-magnitude scalars.

Solution values along invasion curves behave like exp(c*t) with t up to ~60,
so everything downstream of the kernels is carried as (sign, log|value|)
pairs instead of raw floats, and every integral of them runs on the one
adaptive panel quadrature ``panel_integral_log`` below.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


def _panel_sums(f, a: np.ndarray, b: np.ndarray) -> list[LogValue]:
    """The 32-point sum of f on each panel [a_i, b_i]."""
    mids, halves = 0.5 * (a + b), 0.5 * (b - a)
    sums = []
    for xs, ws in zip((mids[:, None] + halves[:, None] * GL_NODES).tolist(),
                      (halves[:, None] * GL_WEIGHTS).tolist()):
        pairs = [(f(x), w) for x, w in zip(xs, ws)]
        sums.append(signed_log_sum(
            LogValue(sign, log_abs + math.log(w)) for (sign, log_abs), w in pairs if sign != 0
        )[0])
    return sums


# Panel [a, b], midpoint m, its half sums, their total and its distance to the panel sum.
_Panel = namedtuple("_Panel", "a m b left right fine diff")


def panel_integral_log(
    f: Callable[[float], tuple[int, float]], edges, tol: float
) -> LogValue:
    """Signed log of the integral of f over [edges[0], edges[-1]], with f(x)
    given as (sign, log|f(x)|).

    Globally adaptive bisection (as in QUADPACK) on the 32-point rule from the
    panels between ``edges``: each panel's sum is compared with the sum over
    its halves.  Returns the sum of the halves once the summed |coarse -
    halves| is at most tol * |total| (or every sum is zero); otherwise bisects
    each panel whose difference exceeds its share tol * |total| / (panel
    count).  More than MAX_PANELS panels is a QuadratureFailure.  Sums stay
    in log space, so f may exceed double range.
    """
    edges = np.asarray(edges, dtype=float)
    a, b, log_tol, panels = edges[:-1], edges[1:], math.log(tol), []
    coarse = _panel_sums(f, a, b)
    while True:
        m = 0.5 * (a + b)
        halves = zip(_panel_sums(f, a, m), _panel_sums(f, m, b))
        for ai, mi, bi, c, (left, right) in zip(a, m, b, coarse, halves):
            fine = signed_log_sum([left, right])[0]
            diff = signed_log_sum([c, LogValue(-fine.sign, fine.log_abs)])[0]
            panels.append(_Panel(ai, mi, bi, left, right, fine, diff))
        total = signed_log_sum(p.fine for p in panels)[0]
        err = signed_log_sum(p.diff for p in panels)[0]
        if err.sign == 0 or err.log_abs <= log_tol + total.log_abs:
            return total
        share = log_tol + total.log_abs - math.log(len(panels))
        # At least the worst panel, should rounding leave none above its share.
        panels.sort(key=lambda p: p.diff.log_abs, reverse=True)
        k = max(1, sum(p.diff.log_abs > share for p in panels))
        if len(panels) + k > MAX_PANELS:
            raise QuadratureFailure(
                f"integral over [{edges[0]:.6g}, {edges[-1]:.6g}] did not converge in {MAX_PANELS}"
                f" panels (log(error / total) {err.log_abs - total.log_abs:.3g})")
        split, panels = panels[:k], panels[k:]
        # A split panel's halves become panels whose own sums are known.
        a = np.array([e for p in split for e in (p.a, p.m)])
        b = np.array([e for p in split for e in (p.m, p.b)])
        coarse = [c for p in split for c in (p.left, p.right)]
