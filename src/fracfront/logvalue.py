"""Signed log-magnitude scalars.

Solution values along invasion curves behave like exp(c*t) with t up to ~60,
so everything downstream of the kernels is carried as (sign, log|value|)
pairs instead of raw floats, and every integral of them runs on the one
adaptive panel quadrature ``panel_integral_log`` below.  Its integrands take
an array of nodes and return the arrays (sign, log|value|), so each round
of panels is one call, and ``log_sum`` adds such arrays without leaving
log space.
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

# Columns of ``panel_integral_log``'s table of kept panels: a, midpoint, b,
# then the (sign, log) pairs of its left half, right half, their total
# (fine) and the total's distance to the panel's own sum (diff).
_A, _M, _B = 0, 1, 2
_HALVES = slice(3, 7)
_FINE_SIGN, _FINE_LOG, _DIFF_SIGN, _DIFF_LOG = 7, 8, 9, 10


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


def log_sum(sign: np.ndarray, log_abs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-sums along the last axis of (sign, log|value|) arrays.

    Each sum is taken relative to its largest magnitude, so the values may
    lie far outside double range; an exact zero comes back as (0, -inf).
    """
    top = np.max(log_abs, axis=-1, initial=-math.inf)
    shift = np.where(np.isfinite(top), top, 0.0)
    net = np.sum(sign * np.exp(log_abs - shift[..., None]), axis=-1)
    with np.errstate(divide="ignore"):
        return np.sign(net), np.where(net == 0.0, -math.inf, shift + np.log(np.abs(net)))


def _log_add(s1, l1, s2, l2):
    """Elementwise signed log of a + b for a, b given as (sign, log|.|)."""
    return log_sum(np.stack([s1, s2], axis=-1), np.stack([l1, l2], axis=-1))


def panel_integral_log(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], edges, tol: float
) -> LogValue:
    """Signed log of the integral of f over [edges[0], edges[-1]].

    ``f`` takes a float array of nodes and returns the arrays (sign, log|f|),
    sign 0 (with any log) where f vanishes.  Globally adaptive bisection (as
    in QUADPACK) on the 32-point rule from the panels between ``edges``: each
    panel's sum is compared with the sum over its halves.  Returns the sum of
    the halves once |sum of (coarse - halves)| is at most tol * |total| (or
    every sum is zero); otherwise bisects each panel whose |coarse - halves|
    exceeds its share tol * |total| / (panel count), at least the worst one.
    A round evaluates all its new nodes in one call of f: the coarse panels
    and their halves in the first round, the halves of the split panels
    after it.  More than MAX_PANELS panels is a QuadratureFailure.  Sums stay
    in log space, so f may exceed double range.
    """
    edges = np.asarray(edges, dtype=float)
    a, b, log_tol, k = edges[:-1], edges[1:], math.log(tol), len(GL_NODES)
    kept = np.empty((0, _DIFF_LOG + 1))
    coarse = None
    while True:
        m = 0.5 * (a + b)
        los, his = [a, m], [m, b]
        if coarse is None:  # the first round also sums the starting panels
            los, his = [a] + los, [b] + his
        lo, hi = np.concatenate(los), np.concatenate(his)
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * GL_NODES
        sign, log_abs = f(nodes.ravel())
        sign = np.asarray(sign, dtype=float).reshape(-1, k)
        with np.errstate(divide="ignore"):
            log_w = np.log(half[:, None] * GL_WEIGHTS)
        terms = np.where(sign == 0.0, -math.inf, np.asarray(log_abs).reshape(-1, k) + log_w)
        s_sum, l_sum = log_sum(sign, terms)
        sums = np.stack([s_sum, l_sum], axis=1).reshape(-1, a.size, 2)
        if coarse is None:
            coarse, sums = sums[0], sums[1:]
        left, right = sums
        fine = np.stack(_log_add(left[:, 0], left[:, 1], right[:, 0], right[:, 1]), axis=1)
        diff = np.stack(_log_add(coarse[:, 0], coarse[:, 1], -fine[:, 0], fine[:, 1]), axis=1)
        # In the column order of _A .. _DIFF_LOG.
        kept = np.concatenate([kept, np.column_stack([a, m, b, left, right, fine, diff])])
        total = log_sum(kept[:, _FINE_SIGN], kept[:, _FINE_LOG])
        err = log_sum(kept[:, _DIFF_SIGN], kept[:, _DIFF_LOG])
        if err[0] == 0.0 or err[1] <= log_tol + total[1]:
            return LogValue.from_log(float(total[1]), int(total[0]))
        share = log_tol + total[1] - math.log(len(kept))
        # At least the worst panel, should rounding leave none above its share.
        kept = kept[np.argsort(-kept[:, _DIFF_LOG], kind="stable")]
        n_split = max(1, int(np.count_nonzero(kept[:, _DIFF_LOG] > share)))
        if len(kept) + n_split > MAX_PANELS:
            raise QuadratureFailure(
                f"integral over [{edges[0]:.6g}, {edges[-1]:.6g}] did not converge in {MAX_PANELS}"
                f" panels (log(error / total) {err[1] - total[1]:.3g})")
        split, kept = kept[:n_split], kept[n_split:]
        # A split panel's halves become panels whose own sums are known.
        a = split[:, [_A, _M]].ravel()
        b = split[:, [_M, _B]].ravel()
        coarse = split[:, _HALVES].reshape(-1, 2)
