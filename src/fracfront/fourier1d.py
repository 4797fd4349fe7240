"""One-dimensional radial Fourier route for rho >= 1.

u_{a,rho}(t, x) = (1/pi) sum_k (-1)^k a_k(t, x) with

    a_0 = integral_0^{pi/2x} E_a(t^a (1 - xi^{2 rho})) cos(x xi) d xi,
    a_k = (-1)^k integral over [(2k-1) pi/2x, (2k+1) pi/2x] of the same,

an alternating series with positive decreasing terms (k >= 1), so the first
omitted term bounds the remainder.  The series takes its segments in blocks
of up to 64; each block, and the integral at the origin, is one call of
``logvalue.panel_integrals_log``, the adaptive Gauss-Kronrod quadrature of
the subordination integral too: a segment starts as one K31 / G15 panel, and
each panel round evaluates E_a at the new nodes of the whole block in one
``log_mittag_leffler_array`` call.  Also houses the analytic a_0 lower / a_1
upper bounds and the divergence comparator they feed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence
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
    alpha: float, rho: float, t: float, x: float, edge_lists
) -> list[LogValue]:
    """Signed logs of the integrals of E_a(t^a (1 - xi^{2 rho})) cos(x xi)
    over [edges[0], edges[-1]], one for each ``edges`` of ``edge_lists``,
    each starting from the panels between its ``edges``.

    The integrand takes a panel round's nodes, over every integral, as one
    array and evaluates E_a at them with one call of
    ``log_mittag_leffler_array``; nodes where the cosine vanishes are left
    out of it, and a node whose value is not positive or whose estimate
    exceeds ``_NODE_TOL`` raises NonConvergence."""
    if rho < 1.0:
        raise DomainError(f"representation stated for rho >= 1, got {rho}")
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    ta = t ** alpha

    def integrand(xi: np.ndarray, _owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.cos(x * xi)
        sign, log_abs = np.zeros(xi.size), np.full(xi.size, -math.inf)
        live = np.flatnonzero(c != 0.0)
        z = ta * (1.0 - xi[live] ** (2.0 * rho))
        ml_sign, ml_log, est, _ = log_mittag_leffler_array(alpha, 1.0, z)
        missed = (est > _NODE_TOL) | (ml_sign != 1.0)
        if missed.any():
            k = int(np.argmax(missed))
            raise NonConvergence(f"E_{alpha}({z[k]}): sign {ml_sign[k]:+g},"
                                 f" estimate {est[k]:.3g} (limit {_NODE_TOL:.3g})")
        sign[live] = ml_sign * np.sign(c[live])
        log_abs[live] = ml_log + np.log(np.abs(c[live]))
        return sign, log_abs

    return panel_integrals_log(integrand, edge_lists, _SEGMENT_TOL)


def _a_coefficients_log(
    k: int, n: int, alpha: float, rho: float, t: float, x: float
) -> list[LogValue]:
    """a_k, ..., a_{k+n-1}, their segments integrated in one call."""
    if x <= 0.0:
        raise DomainError("the radial Fourier representation requires x > 0")
    h = math.pi / (2.0 * x)
    segs = _segment_integrals_log(
        alpha, rho, t, x, [(max(2 * j - 1, 0) * h, (2 * j + 1) * h) for j in range(k, k + n)])
    # a_j carries the sign (-1)^j that makes it positive.
    return [seg if seg.sign == 0 or j % 2 == 0 else LogValue(-seg.sign, seg.log_abs)
            for j, seg in enumerate(segs, k)]


def a_coefficient(k: int, alpha: float, rho: float, t: float, x: float) -> float:
    """The k-th positive term a_k(t, x) of the alternating representation."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return _a_coefficients_log(k, 1, alpha, rho, t, x)[0].to_float()


_MAX_TERMS = 100000  # of the alternating series
# The largest block of a_k the series integrates in one call.  Its blocks
# double from 2 (a_0 and a_1, which every series needs) up to this size.
_MAX_BLOCK = 64


def _solution_series_log(
    alpha: float, rho: float, t: float, x: float, tol: float
) -> tuple[LogValue, LogValue, int, float]:
    """(value, remainder bound, terms, cancellation) of (1/pi) sum (-1)^k a_k,
    taking the a_k in blocks; those past the stop are discarded."""
    log_tol_pi = math.log(tol * math.pi) if tol > 0 else -math.inf
    terms: list[LogValue] = []
    k, n, bound = 0, 2, None
    while bound is None:
        for j, ak in enumerate(_a_coefficients_log(k, n, alpha, rho, t, x), k):
            # A numerically negative a_k: the Leibniz structure has bottomed
            # out below quadrature noise.  Either stop takes |a_k| as bound.
            if ak.sign < 0 or (j >= 1 and ak.log_abs < log_tol_pi):
                bound = LogValue.from_log(ak.log_abs)
                break
            terms.append(LogValue.from_log(ak.log_abs, 1 if j % 2 == 0 else -1))
            if len(terms) >= _MAX_TERMS:
                raise NonConvergence(f"alternating series used {_MAX_TERMS} terms")
        k, n = k + n, min(2 * n, _MAX_BLOCK)
    total, cancellation = signed_log_sum(terms)
    if cancellation > 1e12:
        raise NonConvergence(
            f"alternating sum cancels {math.log10(cancellation):.1f} digits"
        )
    log_pi = math.log(math.pi)
    value = LogValue(total.sign, total.log_abs - log_pi) if total.sign != 0 else total
    bound = LogValue.from_log(bound.log_abs - log_pi)
    return value, bound, len(terms), cancellation


def solution_series(
    alpha: float, rho: float, t: float, x: float, tol: float
) -> EvalResult:
    """u_{a,rho}(t, x) in d = 1 for rho >= 1 by the alternating Fourier series.

    Terminates once a_{N+1} < tol * pi; the returned abs_error_bound is the
    Leibniz remainder a_{N+1}/pi plus nothing else.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    value, bound, n, _ = _solution_series_log(alpha, rho, t, x, tol)
    if value.sign != 0 and value.log_abs > 700.0:
        raise NonConvergence("value exceeds double range; use the log-domain route")
    return EvalResult(value.to_float(), bound.to_float(), n, Regime.QUADRATURE)


_ORIGIN_END = 1e6  # X, where the integral at the origin is cut


def _log_solution_at_origin(alpha: float, rho: float, t: float) -> LogValue:
    """Signed log of (1/pi) integral_0^X E_a(t^a (1 - xi^{2 rho})) d xi, one
    adaptive integral from the panels [0, 1] and the decades up to X."""
    edges = [0.0] + np.geomspace(1.0, _ORIGIN_END, 7).tolist()
    seg = _segment_integrals_log(alpha, rho, t, 0.0, [edges])[0]
    return LogValue(seg.sign, seg.log_abs - math.log(math.pi))


def solution_at_origin(alpha: float, rho: float, t: float) -> EvalResult:
    """u_{a,rho}(t, 0) = (1/pi) integral_0^inf E_a(t^a (1 - xi^{2 rho})) d xi.

    No oscillation at the origin, so one adaptive integral up to X = 1e6
    replaces the series (``_log_solution_at_origin``).  The bound is its
    tolerance 1e-9 relative plus the tail beyond X: E_a(-x) <= Gamma(1 + a)/x
    bounds it by Gamma(1 + a) X^{1 - 2 rho} / (pi t^a (2 rho - 1)(1 - X^{-2 rho})).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    value = _log_solution_at_origin(alpha, rho, t).to_float()
    tail = (math.gamma(1.0 + alpha) * _ORIGIN_END ** (1.0 - 2.0 * rho)
            / (math.pi * t ** alpha * (2.0 * rho - 1.0) * (1.0 - _ORIGIN_END ** (-2.0 * rho))))
    return EvalResult(value, 1e-9 * abs(value) + tail, 0, Regime.QUADRATURE)


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
