"""One-dimensional radial Fourier route for rho >= 1.

u_{a,rho}(t, x) = (1/pi) sum_k (-1)^k a_k(t, x) with

    a_0 = integral_0^{pi/2x} E_a(t^a (1 - xi^{2 rho})) cos(x xi) d xi,
    a_k = (-1)^k integral over [(2k-1) pi/2x, (2k+1) pi/2x] of the same,

an alternating series with positive decreasing terms (k >= 1), so the first
omitted term bounds the remainder.  Each segment, and the integral at the
origin, is one call of ``logvalue.panel_integral_log``, the adaptive
log-domain quadrature of the subordination integral too.  Also houses the
analytic a_0 lower / a_1 upper bounds and the divergence comparator they feed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence
from .logvalue import LogValue, panel_integral_log, signed_log_sum
from .specfun import (EvalResult, Regime, dottie, log_mittag_leffler, mittag_leffler,
                      reciprocal_gamma)


def _segment_integral_log(
    alpha: float, rho: float, t: float, x: float, *edges: float
) -> LogValue:
    """Signed log of the integral of E_a(t^a (1 - xi^{2 rho})) cos(x xi) over
    [edges[0], edges[-1]], starting from the panels between ``edges``.

    Nodes where the cosine vanishes cost no Mittag-Leffler call."""
    if rho < 1.0:
        raise DomainError(f"representation stated for rho >= 1, got {rho}")
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    ta = t ** alpha

    def integrand(xi: float) -> tuple[int, float]:
        c = math.cos(x * xi)
        if c == 0.0:
            return 0, -math.inf
        ml = log_mittag_leffler(alpha, ta * (1.0 - xi ** (2.0 * rho)))
        return ml.sign * (1 if c > 0 else -1), ml.log_abs + math.log(abs(c))

    return panel_integral_log(integrand, edges, 1e-9)


def _a_coefficient_log(
    k: int, alpha: float, rho: float, t: float, x: float
) -> LogValue:
    if x <= 0.0:
        raise DomainError("the radial Fourier representation requires x > 0")
    h = math.pi / (2.0 * x)
    seg = _segment_integral_log(alpha, rho, t, x, max(2 * k - 1, 0) * h, (2 * k + 1) * h)
    # a_k carries the sign (-1)^k that makes it positive.
    return seg if seg.sign == 0 or k % 2 == 0 else LogValue(-seg.sign, seg.log_abs)


def a_coefficient(k: int, alpha: float, rho: float, t: float, x: float) -> float:
    """The k-th positive term a_k(t, x) of the alternating representation."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return _a_coefficient_log(k, alpha, rho, t, x).to_float()


_MAX_TERMS = 100000  # of the alternating series


def _solution_series_log(
    alpha: float, rho: float, t: float, x: float, tol: float
) -> tuple[LogValue, LogValue, int, float]:
    """(value, remainder bound, terms, cancellation) of (1/pi) sum (-1)^k a_k."""
    log_tol_pi = math.log(tol * math.pi) if tol > 0 else -math.inf
    terms: list[LogValue] = []
    k = 0
    while True:
        ak = _a_coefficient_log(k, alpha, rho, t, x)
        if ak.sign < 0:
            # Numerically negative a_k: the Leibniz structure has bottomed
            # out below quadrature noise; stop with |a_k| as the bound.
            bound = LogValue.from_log(ak.log_abs)
            break
        if k >= 1 and ak.log_abs < log_tol_pi:
            bound = LogValue.from_log(ak.log_abs)
            break
        terms.append(LogValue.from_log(ak.log_abs, 1 if k % 2 == 0 else -1))
        k += 1
        if k >= _MAX_TERMS:
            raise NonConvergence(f"alternating series used {_MAX_TERMS} terms")
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


def solution_at_origin(alpha: float, rho: float, t: float) -> EvalResult:
    """u_{a,rho}(t, 0) = (1/pi) integral_0^inf E_a(t^a (1 - xi^{2 rho})) d xi.

    No oscillation at the origin, so one adaptive integral replaces the series,
    from the panels [0, 1] and the decades up to X = 1e6.  The bound is its
    tolerance 1e-9 relative plus the tail beyond X: E_a(-x) <= Gamma(1 + a)/x
    bounds it by Gamma(1 + a) X^{1 - 2 rho} / (pi t^a (2 rho - 1)(1 - X^{-2 rho})).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    end = 1e6
    edges = [0.0] + np.geomspace(1.0, end, 7).tolist()
    value = _segment_integral_log(alpha, rho, t, 0.0, *edges).to_float() / math.pi
    tail = (math.gamma(1.0 + alpha) * end ** (1.0 - 2.0 * rho)
            / (math.pi * t ** alpha * (2.0 * rho - 1.0) * (1.0 - end ** (-2.0 * rho))))
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
