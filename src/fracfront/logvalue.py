"""Signed log-magnitude scalars.

Solution values along invasion curves behave like exp(c*t) with t up to ~60,
so everything downstream of the kernels is carried as (sign, log|value|)
pairs instead of raw floats, and every integral of them runs on the one
adaptive panel quadrature ``panel_integrals_log`` below, several integrals of
one integrand at a time: Gauss-Kronrod K31 / G15 panels, whose nodes and
weights are computed at import.  Its integrands take the nodes of a round
across the integrals, and ``log_sum`` adds (sign, log|value|) arrays without
leaving log space.  ``kronrod_panels`` lays out the same K31 rule on given
panels, for it and for the fixed (non-adaptive) rules elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import FracFrontError, QuadratureFailure

# The panel budget of ``panel_integrals_log``, per integral.
MAX_PANELS = 4096


def _kronrod_recurrence(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of the Jacobi-Kronrod matrix of order 2n + 1
    from the first ceil(3n/2) + 1 coefficients (a_k, b_k) of the weight,
    b_0 its integral: Laurie's algorithm (Math. Comp. 66, 1997), in the
    form of Gautschi's ``r_kronrod``."""
    known = -(-3 * n // 2) + 1
    ak, bk = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    ak[:known], bk[:known] = a[:known], b[:known]
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = bk[n]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((ak[k + n + 1] - ak[l]) * t[k + 1]
                             + bk[k + n + 1] * s[k] - bk[l] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(ak[k + n + 1] - ak[l]) * t[j + 1]
                             - bk[k + n + 1] * s[j + 1] + bk[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            ak[k + n + 1] = ak[k] + (s[j + 1] - bk[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            bk[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    ak[2 * n] = ak[n - 1] - bk[2 * n] * s[1] / t[1]
    return ak, bk


def _gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the (2n + 1)-point Kronrod extension of the
    n-point Gauss-Legendre rule on [-1, 1], and the Gauss weights, which
    belong to the odd-indexed nodes.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix of the
    Legendre recurrence a_k = 0, b_0 = 2, b_k = k^2 / (4 k^2 - 1); the
    weights are the Christoffel numbers 1 / sum_k q_k(x)^2 of its
    orthonormal polynomials q_k, which equal b_0 times the squared first
    components of the eigenvectors (Golub & Welsch, Math. Comp. 23, 1969).
    The eigenvectors are not computed: LAPACK's eigenvector path wakes
    the BLAS thread pool, whose threads then spin beside the first
    integrals of every fresh process.
    """
    k = np.arange(2 * n + 1, dtype=float)
    b = np.where(k == 0.0, 2.0, k * k / (4.0 * k * k - 1.0))
    ak, bk = _kronrod_recurrence(n, np.zeros(k.size), b)
    off = np.sqrt(bk[1:])
    nodes = np.linalg.eigvalsh(np.diag(ak) + np.diag(off, 1) + np.diag(off, -1))
    q_prev, q = np.zeros(nodes.size), np.full(nodes.size, 1.0 / math.sqrt(bk[0]))
    christoffel = q * q
    for j in range(2 * n):
        q_prev, q = q, ((nodes - ak[j]) * q - (off[j - 1] if j else 0.0) * q_prev) / off[j]
        christoffel += q * q
    return nodes, 1.0 / christoffel, np.polynomial.legendre.leggauss(n)[1]


# The Kronrod pair K31 / G15 of ``panel_integrals_log``: G15 uses the nodes
# KRONROD_NODES[1::2].  K31 alone is the rule of the fixed quadratures.
KRONROD_NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS = _gauss_kronrod(15)


def kronrod_panels(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of K31 on the panels [a[i], b[i]], as
    (panels x 31) arrays: row i holds panel i."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = (0.5 * (a + b))[:, None], (0.5 * (b - a))[:, None]
    return mid + half * KRONROD_NODES, half * KRONROD_WEIGHTS


# Columns of ``panel_integrals_log``'s table of kept panels: a, b, then the
# (sign, log) of the panel's K31 sum, the log of |K31 - G15| and the index
# of the integral that owns the panel.
_A, _B, _SIGN, _LOG, _ERR_LOG, _OWNER = range(6)


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


def _owner_log_sum(owner, sign, log_abs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``log_sum`` of the entries of each owner 0 .. n-1, in entry order, so
    that one owner's sum does not depend on the others' entries."""
    top = np.full(n, -math.inf)
    np.maximum.at(top, owner, log_abs)
    shift = np.where(np.isfinite(top), top, 0.0)
    net = np.bincount(owner, weights=sign * np.exp(log_abs - shift[owner]), minlength=n)
    with np.errstate(divide="ignore"):
        return np.sign(net), np.where(net == 0.0, -math.inf, shift + np.log(np.abs(net)))


def panel_integral_log(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], edges, tol: float
) -> LogValue:
    """The one-integral call of ``panel_integrals_log``, for an f(nodes)."""
    return panel_integrals_log(lambda nodes, owner: f(nodes), [edges], tol)[0]


def call_by_owner(f, nodes: np.ndarray, owner: np.ndarray, failed: dict | None):
    """f(nodes, owner); if that raises a FracFrontError and ``failed`` is a
    dict, each owner's nodes are taken on their own, and an owner whose call
    raises gets zeros and its error in failed[owner]."""
    try:
        return f(nodes, owner)
    except FracFrontError as exc:
        if failed is None:
            raise
        error = exc
    sign, log_abs = np.zeros(nodes.size), np.full(nodes.size, -math.inf)
    owners = np.unique(owner).tolist()
    for j in owners:
        mine = owner == j
        try:
            if len(owners) == 1:
                raise error  # its call alone was the one that raised
            sign[mine], log_abs[mine] = f(nodes[mine], owner[mine])
        except FracFrontError as exc:
            failed[j] = exc
    return sign, log_abs


def panel_integrals_log(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], edge_lists, tol: float,
    failed: dict | None = None,
) -> list[LogValue | None]:
    """Signed logs of the integrals of f over [edges[0], edges[-1]], one for
    each ``edges`` of ``edge_lists``.

    ``f(nodes, owner)`` takes a float array of nodes and the index of each
    one's integral, and returns the arrays (sign, log|f|), sign 0 (with any
    log) where f vanishes.  Globally adaptive bisection (as in QUADPACK) on
    the Gauss-Kronrod pair K31 / G15, applied to each integral on its own
    from the panels between its ``edges``: each panel
    is evaluated once, at its 31 Kronrod nodes, and K31 - G15 on the same
    nodes is its error estimate.  An integral returns the sum of its K31
    sums once the sum of its |K31 - G15| is at most tol * |its total| (or
    every one is zero), so that errors of opposite sign do not cancel;
    otherwise it bisects each of its panels whose |K31 - G15| exceeds its
    share tol * |its total| / (its panel count), at least its worst one.
    A round evaluates all its new nodes, over every integral not yet done,
    in one call of f: the starting panels in the first round, the halves
    of the split panels after it.  More than MAX_PANELS panels in one
    integral is a QuadratureFailure naming its interval.  Sums stay in log
    space, so f may exceed double range.  An integral's value does not
    depend on the others of the call, as long as f's values at a node do
    not depend on the other nodes.  With a dict ``failed``, an integral i
    that fails (past MAX_PANELS, or in f as in ``call_by_owner``) gets None
    and its error in failed[i], and the others go on.
    """
    edge_lists = [np.asarray(edges, dtype=float) for edges in edge_lists]
    n = len(edge_lists)
    a = np.concatenate([[], *(edges[:-1] for edges in edge_lists)])
    b = np.concatenate([[], *(edges[1:] for edges in edge_lists)])
    owner = np.repeat(np.arange(n), [len(edges) - 1 for edges in edge_lists])
    log_tol, k = math.log(tol), len(KRONROD_NODES)
    kept = np.empty((0, _OWNER + 1))
    done: list[LogValue | None] = [None] * n
    while a.size:
        half = 0.5 * (b - a)
        nodes = kronrod_panels(a, b)[0].ravel()
        sign, log_abs = call_by_owner(f, nodes, np.repeat(owner, k), failed)
        sign = np.asarray(sign, dtype=float).reshape(-1, k)
        log_abs = np.where(sign == 0.0, -math.inf, np.asarray(log_abs).reshape(-1, k))
        with np.errstate(divide="ignore"):
            log_half = np.log(half)[:, None]
            kronrod = log_sum(sign, log_abs + np.log(KRONROD_WEIGHTS) + log_half)
            gauss = log_sum(sign[:, 1::2], log_abs[:, 1::2] + np.log(GAUSS_WEIGHTS) + log_half)
        diff = _log_add(kronrod[0], kronrod[1], -gauss[0], gauss[1])
        # In the column order of _A .. _OWNER.
        kept = np.concatenate([kept, np.column_stack([a, b, *kronrod, diff[1], owner])])
        if failed:
            kept = kept[~np.isin(kept[:, _OWNER], list(failed))]
        owner = kept[:, _OWNER].astype(int)
        total = _owner_log_sum(owner, kept[:, _SIGN], kept[:, _LOG], n)
        err = _owner_log_sum(owner, np.ones(len(kept)), kept[:, _ERR_LOG], n)
        count = np.bincount(owner, minlength=n)
        converged = (count > 0) & ((err[0] == 0.0) | (err[1] <= log_tol + total[1]))
        for i in np.flatnonzero(converged):
            done[i] = LogValue.from_log(float(total[1][i]), int(total[0][i]))
        kept = kept[~converged[owner]]
        if not len(kept):
            return done
        # Grouped by integral, each one's worst panels first (a stable sort,
        # so its panels keep the order of a call of its own); at least its
        # worst one splits, should rounding leave none above its share.
        kept = kept[np.lexsort((-kept[:, _ERR_LOG], kept[:, _OWNER]))]
        owner = kept[:, _OWNER].astype(int)
        share = log_tol + total[1] - np.log(np.maximum(count, 1))
        split = kept[:, _ERR_LOG] > share[owner]
        split[0] = True
        split[1:] |= owner[1:] != owner[:-1]
        over = np.flatnonzero(count + np.bincount(owner[split], minlength=n) > MAX_PANELS)
        for i in over.tolist():
            exc = QuadratureFailure(
                f"integral over [{edge_lists[i][0]:.6g}, {edge_lists[i][-1]:.6g}] did not converge"
                f" in {MAX_PANELS} panels (log(error / total) {err[1][i] - total[1][i]:.3g})")
            if failed is None:
                raise exc
            failed[i] = exc
        if over.size:  # an integral past its budget splits no more
            going = ~np.isin(owner, over)
            split, kept = split[going], kept[going]
        split, kept = kept[split], kept[~split]
        mid = 0.5 * (split[:, _A] + split[:, _B])
        a = np.column_stack([split[:, _A], mid]).ravel()
        b = np.column_stack([mid, split[:, _B]]).ravel()
        owner = np.repeat(split[:, _OWNER].astype(int), 2)
    return done
