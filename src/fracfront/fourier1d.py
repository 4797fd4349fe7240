"""One-dimensional radial Fourier route for rho >= 1.

u_{a,rho}(t, x) = (1/pi) sum_k (-1)^k a_k(t, x) with

    a_0 = integral_0^{pi/2x} E_a(t^a (1 - xi^{2 rho})) cos(x xi) d xi,
    a_k = (-1)^k integral over [(2k-1) pi/2x, (2k+1) pi/2x] of the same,

an alternating series with positive decreasing terms (k >= 1), so the first
omitted term bounds the remainder.  ``_solution_series_points`` sums the
series of many (t, x) points together: each step takes the next block of
a_k (up to 64) of every point still going, and the integral at the origin
of each x = 0 point, in one call of ``logvalue.panel_integrals_log``, the
adaptive Gauss-Kronrod quadrature of the subordination integral too.  A
segment starts as one K31 / G15 panel, and each panel round evaluates E_a
at the new nodes of every point's segments in one
``log_mittag_leffler_array`` call.  Also houses the analytic a_0 lower / a_1
upper bounds and the divergence comparator they feed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, FracFrontError, NonConvergence
from .logvalue import LogValue, panel_integrals_log, signed_log_sum
from .specfun import (EvalResult, Regime, dottie, log_mittag_leffler,
                      log_mittag_leffler_array, mittag_leffler, reciprocal_gamma)


# The relative tolerance of each segment integral, and the largest relative
# estimate a Mittag-Leffler value at one of its nodes may carry.  The node
# limit is looser: near alpha = 1 the hyperbola rule's rounding grows like
# 1e-12 / (1 - alpha) (9.9e-8 at alpha 0.9999), which no segment tolerance
# removes; past 1e-6 the rule has missed rather than rounded.
_SEGMENT_TOL, _NODE_TOL = 1e-9, 1e-6


def _segment_integrals_log(
    alpha: float, rho: float, t, x, edge_lists, failed: dict | None = None
) -> list[LogValue | None]:
    """Signed logs of the integrals of E_a(t^a (1 - xi^{2 rho})) cos(x xi)
    over [edges[0], edges[-1]], one for each ``edges`` of ``edge_lists``,
    each starting from the panels between its ``edges``; t and x are one
    float each or arrays of one value per integral, and ``failed`` is that
    of ``panel_integrals_log``.

    The integrand takes a panel round's nodes, over every integral, as one
    array and evaluates E_a at them with one call of
    ``log_mittag_leffler_array``; nodes where the cosine vanishes are left
    out of it.  A node whose value is not positive or whose estimate
    exceeds ``_NODE_TOL`` is a NonConvergence: without ``failed`` the call
    raises it at the first such node; with it, the first such node of each
    integral puts that integral in ``failed`` and the others go on, so no
    node is evaluated again to find which integral failed."""
    if rho < 1.0:
        raise DomainError(f"representation stated for rho >= 1, got {rho}")
    t = np.broadcast_to(np.asarray(t, dtype=float), len(edge_lists))
    x = np.broadcast_to(np.asarray(x, dtype=float), len(edge_lists))
    if not (t > 0.0).all():
        raise DomainError(f"t must be positive, got {t[np.argmin(t > 0.0)]}")
    # t^a one t at a time: numpy's vector pow may differ from libm's by an
    # ulp, and a one-point call would then not match its point of a batch.
    ta = np.array([v ** alpha for v in t.tolist()])

    def integrand(xi: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.cos(x[owner] * xi)
        sign, log_abs = np.zeros(xi.size), np.full(xi.size, -math.inf)
        live = np.flatnonzero(c != 0.0)
        z = ta[owner[live]] * (1.0 - xi[live] ** (2.0 * rho))
        ml_sign, ml_log, est, _ = log_mittag_leffler_array(alpha, 1.0, z)
        missed = (est > _NODE_TOL) | (ml_sign != 1.0)
        if missed.any():
            first = np.flatnonzero(missed)
            if failed is not None:  # the first of each integral, not only of all
                first = first[np.unique(owner[live[first]], return_index=True)[1]]
            for k in first.tolist():
                exc = NonConvergence(f"E_{alpha}({z[k]}): sign {ml_sign[k]:+g},"
                                     f" estimate {est[k]:.3g} (limit {_NODE_TOL:.3g})")
                if failed is None:
                    raise exc
                failed[int(owner[live[k]])] = exc
            ml_sign = np.where(missed, 0.0, ml_sign)  # in integrals that failed
        sign[live] = ml_sign * np.sign(c[live])
        log_abs[live] = ml_log + np.log(np.abs(c[live]))
        return sign, log_abs

    return panel_integrals_log(integrand, edge_lists, _SEGMENT_TOL, failed)


def _block_edges(k: int, n: int, x: float) -> list[tuple[float, float]]:
    """The segments of a_k, ..., a_{k+n-1} at x > 0."""
    h = math.pi / (2.0 * x)
    return [(max(2 * j - 1, 0) * h, (2 * j + 1) * h) for j in range(k, k + n)]


def _a_signed(k: int, segs: list[LogValue]) -> list[LogValue]:
    """a_k, a_{k+1}, ... from the signed logs of their segment integrals:
    a_j carries the sign (-1)^j that makes it positive."""
    return [seg if seg.sign == 0 or j % 2 == 0 else LogValue(-seg.sign, seg.log_abs)
            for j, seg in enumerate(segs, k)]


def _a_coefficients_log(
    k: int, n: int, alpha: float, rho: float, t: float, x: float
) -> list[LogValue]:
    """a_k, ..., a_{k+n-1}, their segments integrated in one call."""
    if x <= 0.0:
        raise DomainError("the radial Fourier representation requires x > 0")
    return _a_signed(k, _segment_integrals_log(alpha, rho, t, x, _block_edges(k, n, x)))


def a_coefficient(k: int, alpha: float, rho: float, t: float, x: float) -> float:
    """The k-th positive term a_k(t, x) of the alternating representation."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return _a_coefficients_log(k, 1, alpha, rho, t, x)[0].to_float()


_MAX_TERMS = 100000  # of the alternating series
# The largest block of a_k the series integrates in one call.  Its blocks
# double from 2 (a_0 and a_1, which every series needs) up to this size.
_MAX_BLOCK = 64

_ORIGIN_END = 1e6  # X, where the integral at the origin is cut
# The panels [0, 1] and the decades up to X.
_ORIGIN_EDGES = [0.0] + np.geomspace(1.0, _ORIGIN_END, 7).tolist()


class _PointFailures(dict):
    """The ``failed`` dict of one ``panel_integrals_log`` call whose
    integrals belong to points, ``point[i]`` the point of integral i.  The
    first error of a point fails all its integrals, as a call of the
    point's own stops at it, and is kept in ``errors`` by point."""

    def __init__(self, point: np.ndarray, errors: dict):
        super().__init__()
        self.point, self.errors = point, errors

    def __setitem__(self, i, exc):
        j = int(self.point[i])
        exc = self.errors.setdefault(j, exc)
        for k in np.flatnonzero(self.point == j).tolist():
            super().__setitem__(k, exc)


def _leibniz_stop(k: int, a: list[LogValue], terms: list[LogValue],
                  log_tol_pi: float) -> LogValue | None:
    """Appends a_k, a_{k+1}, ... of ``a`` to ``terms``, with their signs
    (-1)^k, up to the first a_k (k >= 1) below tol * pi or numerically
    negative (the Leibniz structure has bottomed out below quadrature
    noise), and returns its |a_k| as the bound; None without a stop."""
    for i, ak in enumerate(a, k):
        if ak.sign < 0 or (i >= 1 and ak.log_abs < log_tol_pi):
            return LogValue.from_log(ak.log_abs)
        terms.append(LogValue.from_log(ak.log_abs, 1 if i % 2 == 0 else -1))
        if len(terms) >= _MAX_TERMS:
            raise NonConvergence(f"alternating series used {_MAX_TERMS} terms")
    return None


def _series_sum(terms: list[LogValue], bound: LogValue) -> tuple[LogValue, LogValue, int, float]:
    """(value, remainder bound, terms, cancellation) of (1/pi) sum terms."""
    total, cancellation = signed_log_sum(terms)
    if cancellation > 1e12:
        raise NonConvergence(f"alternating sum cancels {math.log10(cancellation):.1f} digits")
    log_pi = math.log(math.pi)
    value = LogValue(total.sign, total.log_abs - log_pi) if total.sign != 0 else total
    return value, LogValue.from_log(bound.log_abs - log_pi), len(terms), cancellation


def _solution_series_points(
    alpha: float, rho: float, ts, xs, tols
) -> list[tuple[LogValue, LogValue, int, float] | FracFrontError]:
    """(value, remainder bound, terms, cancellation) of u(t, x) in d = 1 at
    each (t, x, tol) of ts, xs, tols, or the error a call of its own raises.

    At x > 0 the value is (1/pi) sum (-1)^k a_k, taken in blocks that
    double from 2 to _MAX_BLOCK up to the stop of ``_leibniz_stop``; the
    a_k past it are discarded.  At x = 0 there is no oscillation, and one
    adaptive integral (1/pi) integral_0^X E_a(t^a (1 - xi^{2 rho})) d xi up
    to X = _ORIGIN_END replaces the series: no terms, and the bound is the
    tail beyond X, Gamma(1 + a) X^{1 - 2 rho} / (pi t^a (2 rho - 1)
    (1 - X^{-2 rho})) by E_a(-x) <= Gamma(1 + a)/x; tol is not used there.
    Each step is one ``_segment_integrals_log`` call over the next block of
    every point still going, the origin integrals joining the first; a
    point leaves at its stop or its first error.
    """
    ts, xs = [float(t) for t in ts], [float(x) for x in xs]
    if not len(ts) == len(xs) == len(tols):
        raise DomainError(f"{len(ts)} times, {len(xs)} radii and {len(tols)} tolerances")
    errors: dict[int, FracFrontError] = {}
    for j, (t, x) in enumerate(zip(ts, xs)):
        if x < 0.0:
            errors[j] = DomainError(f"the radial Fourier representation requires x >= 0, got {x}")
        elif rho < 1.0:
            errors[j] = DomainError(f"representation stated for rho >= 1, got {rho}")
        elif not t > 0.0:
            errors[j] = DomainError(f"t must be positive, got {t}")
    results = {}
    origin = [j for j, x in enumerate(xs) if x == 0.0 and j not in errors]
    # The next block (k, n) of each point of the series still going.
    blocks = {j: (0, 2) for j, x in enumerate(xs) if x > 0.0 and j not in errors}
    terms: dict[int, list[LogValue]] = {j: [] for j in blocks}
    log_tol_pi = {j: math.log(tols[j] * math.pi) if tols[j] > 0 else -math.inf for j in blocks}
    t_arr, x_arr = np.array(ts), np.array(xs)
    while origin or blocks:
        point = np.array(origin + [j for j, (_, n) in blocks.items() for _ in range(n)], dtype=int)
        edge_lists = ([_ORIGIN_EDGES] * len(origin)
                      + [e for j, (k, n) in blocks.items() for e in _block_edges(k, n, xs[j])])
        segs = iter(_segment_integrals_log(alpha, rho, t_arr[point], x_arr[point], edge_lists,
                                           _PointFailures(point, errors)))
        for j in origin:
            seg = next(segs)
            if j not in errors:
                tail = (math.gamma(1.0 + alpha) * _ORIGIN_END ** (1.0 - 2.0 * rho)
                        / (math.pi * ts[j] ** alpha * (2.0 * rho - 1.0)
                           * (1.0 - _ORIGIN_END ** (-2.0 * rho))))
                results[j] = (LogValue(seg.sign, seg.log_abs - math.log(math.pi)),
                              LogValue.from_float(tail), 0, 1.0)
        origin = []
        for j, (k, n) in list(blocks.items()):
            segs_j = [next(segs) for _ in range(n)]
            try:
                if j not in errors:
                    bound = _leibniz_stop(k, _a_signed(k, segs_j), terms[j], log_tol_pi[j])
                    if bound is None:
                        blocks[j] = (k + n, min(2 * n, _MAX_BLOCK))
                        continue
                    results[j] = _series_sum(terms[j], bound)
            except NonConvergence as exc:
                errors[j] = exc
            del blocks[j]
    return [errors.get(j, results.get(j)) for j in range(len(ts))]


def _solution_series_log(
    alpha: float, rho: float, t: float, x: float, tol: float
) -> tuple[LogValue, LogValue, int, float]:
    """(value, remainder bound, terms, cancellation) of u(t, x): the
    one-point view of ``_solution_series_points``."""
    (value,) = _solution_series_points(alpha, rho, [t], [x], [tol])
    if isinstance(value, FracFrontError):
        raise value
    return value


def solution_series(
    alpha: float, rho: float, t: float, x: float, tol: float
) -> EvalResult:
    """u_{a,rho}(t, x) in d = 1 for rho >= 1 by the alternating Fourier series.

    Terminates once a_{N+1} < tol * pi; the returned abs_error_bound is the
    Leibniz remainder a_{N+1}/pi plus nothing else (at x = 0, the tail of
    the integral at the origin, as ``_solution_series_points``).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    value, bound, n, _ = _solution_series_log(alpha, rho, t, x, tol)
    if value.sign != 0 and value.log_abs > 700.0:
        raise NonConvergence("value exceeds double range; use the log-domain route")
    return EvalResult(value.to_float(), bound.to_float(), n, Regime.QUADRATURE)


def solution_at_origin(alpha: float, rho: float, t: float) -> EvalResult:
    """u_{a,rho}(t, 0) = (1/pi) integral_0^inf E_a(t^a (1 - xi^{2 rho})) d xi.

    No oscillation at the origin, so one adaptive integral up to X = 1e6
    replaces the series (``_solution_series_points``).  The bound is its
    tolerance 1e-9 relative plus the tail beyond X.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    value, tail, _, _ = _solution_series_log(alpha, rho, t, 0.0, 0.0)
    value = value.to_float()
    return EvalResult(value, 1e-9 * abs(value) + tail.to_float(), 0, Regime.QUADRATURE)


def _check_bound_inputs(n: int, alpha: float, rho: float, t: float) -> None:
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 1.0 / n <= alpha < 1.0:
        raise DomainError(f"alpha = {alpha} outside [1/{n}, 1)")
    if rho < 1.0:
        raise DomainError(f"rho must be >= 1, got {rho}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")


def a0_lower_bound(
    n: int, alpha: float, rho: float, t: float, x: float, ell: float | None = None
) -> float:
    """Analytic lower bound on a_0(t, x) for x > pi/2.

    (cos l / 2 rho)(x/l)^{2 rho - 1}(a / t^{a n})
        * [E_a(t^a) - E_a(t^a (1 - (l/x)^{2 rho})) + c_0(t, x)]
    with the correction c_0 assembled from the lambda_k/beta_k coefficient
    families; any cutoff l in (0, pi/2) is admissible, default the cos fixed
    point.
    """
    _check_bound_inputs(n, alpha, rho, t)
    if ell is None:
        ell = dottie()
    if not 0.0 < ell < math.pi / 2.0:
        raise DomainError(f"ell must lie in (0, pi/2), got {ell}")
    if x <= math.pi / 2.0:
        raise DomainError(f"bound requires x > pi/2, got {x}")

    ta = t ** alpha
    q = (ell / x) ** (2.0 * rho)  # in (0,1) since x > pi/2 > ell
    one_minus_q = 1.0 - q
    kmax = math.floor(n - 1 + 1.0 / (2.0 * alpha))

    def b_k(k: int) -> float:
        p = k + 2 - n
        if p == 0:
            return -math.log(one_minus_q)
        return (1.0 - one_minus_q ** p) / p

    lam_sum = math.fsum(
        reciprocal_gamma(alpha + k * alpha) * ta ** k * b_k(k) for k in range(kmax + 1)
    )
    bet_sum = math.fsum(
        reciprocal_gamma(1.0 + k * alpha - alpha * (n - 1))
        * ta ** k
        * (1.0 - one_minus_q ** (k + 2 - n)) / (k + 2 - n)
        for k in range(n - 1, kmax + 1)
    )
    c0 = (ta / alpha) * (bet_sum - lam_sum)

    bracket = (
        mittag_leffler(alpha, 1.0, ta).value
        - mittag_leffler(alpha, 1.0, ta * one_minus_q).value
        + c0
    )
    prefactor = (
        (math.cos(ell) / (2.0 * rho))
        * (x / ell) ** (2.0 * rho - 1.0)
        * alpha / ta ** n
    )
    return prefactor * bracket


def a1_upper_bound(n: int, alpha: float, rho: float, t: float, x: float) -> float:
    """Analytic upper bound on a_1(t, x) for x > 3 pi / 2.

    (a / (2 t^a rho))(2x/pi)^{2 rho - 1}
        * [E_a(t^a (1 - (pi/2x)^{2 rho})) - E_a(t^a (1 - (3 pi/2x)^{2 rho})) + c_1]
    with c_1 built from the gamma_k = 1/Gamma(1+ak) - 1/Gamma(a+ak) family.
    """
    _check_bound_inputs(n, alpha, rho, t)
    if x <= 3.0 * math.pi / 2.0:
        raise DomainError(f"bound requires x > 3 pi/2, got {x}")

    ta = t ** alpha
    q1 = 1.0 - (math.pi / (2.0 * x)) ** (2.0 * rho)
    q3 = 1.0 - (3.0 * math.pi / (2.0 * x)) ** (2.0 * rho)
    kmax = math.floor((3 * n - 2) / 2)
    c1 = (ta / alpha) * math.fsum(
        (reciprocal_gamma(1.0 + alpha * k) - reciprocal_gamma(alpha + alpha * k))
        * ta ** k
        * (q1 ** (k + 1) - q3 ** (k + 1)) / (k + 1)
        for k in range(kmax + 1)
    )
    bracket = (
        mittag_leffler(alpha, 1.0, ta * q1).value
        - mittag_leffler(alpha, 1.0, ta * q3).value
        + c1
    )
    return (alpha / (2.0 * ta * rho)) * (2.0 * x / math.pi) ** (2.0 * rho - 1.0) * bracket


def theorem17_comparator(
    n: int, alpha: float, rho: float, m: float, beta: float, t: float
) -> LogValue:
    """Log of the divergence comparator C m^{2 rho - 1} t^{b(2 rho -1) - a n} E_a(t^a).

    C = a l^{2 - 2 rho} / (2 rho) with l the cos fixed point.  Along
    x = m t^b with b < 1/(2 rho) the solution eventually dominates this
    quantity, which itself diverges.
    """
    _check_bound_inputs(n, alpha, rho, t)
    if m <= 0.0:
        raise DomainError(f"m must be positive, got {m}")
    if not 0.0 < beta < 1.0 / (2.0 * rho):
        raise DomainError(f"beta must lie in (0, 1/(2 rho)), got {beta}")
    ell = dottie()
    log_c = math.log(alpha) + (2.0 - 2.0 * rho) * math.log(ell) - math.log(2.0 * rho)
    log_val = (
        log_c
        + (2.0 * rho - 1.0) * math.log(m)
        + (beta * (2.0 * rho - 1.0) - alpha * n) * math.log(t)
        + log_mittag_leffler(alpha, t ** alpha).log_abs
    )
    return LogValue(1, log_val)
