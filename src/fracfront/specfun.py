"""Real-argument Mittag-Leffler, Wright and incomplete-gamma evaluation.

Regime layout for E_{a,b}(z) on the real line:

* for a < 1 and z < 0 one fixed contour rule: the inverse Laplace transform
  of s^{a-b}/(s^a - z) at t = 1 by the trapezoid rule on a hyperbola, 17
  complex nodes built once at import (``_ml_contour``);
* for 0 < z <= _ASYM_CUTOFF (25) the Taylor series with Kahan compensation,
  whose terms are all positive;
* for z > _ASYM_CUTOFF the exponential expansion (1/a) z^{(1-b)/a} e^{z^{1/a}}
  plus the inverse powers -sum_k z^{-k}/Gamma(b - a k);
  ``log_mittag_leffler`` switches to its leading term at the same point;
* at a = 1 the closed forms e^z (b = 1) and, on the negative axis,
  E_{1,b}(z) = 1F1(1; b; z)/Gamma(b).

The Laplace-Wright integral of e^{z s} W_{-a,b-a}(-s) ds (``_bridge_rule``)
is not on any of these paths; verify keeps it to cross-check the two
function families against each other.

W_{-nu,mu}(-x) has one evaluator, ``_log_wright``: closed forms at x = 0 and
nu = 1/2, one Talbot contour rule for the Hankel integral at saddle variable
0 < Y = (1-nu)(nu^nu x)^{1/(1-nu)} <= 1e5, and beyond it the saddle-point
tail A0(nu, mu) Y^{1/2-mu} e^{-Y} with 1/Y corrections fitted once per
(nu, mu) against the Talbot rule.  ``wright_neg`` and ``log_wright_tail``
(the leading tail term alone) are views of it.  Both families run in
double precision with ``reciprocal_gamma`` as the one 1/Gamma; mpmath answers
only 1F1(1; b; z)/Gamma(b) at a = 1 and ``gamma_upper_incomplete``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np

from .errors import DomainError, NonConvergence
from .logvalue import LogValue, gl_panels

_EPS = 2.0 ** -52

# exp() overflows past this exponent; a series term this large is reported
# as inf, which ends the summation unconverged.
_LOG_TERM_MAX = 709.0


class Regime(Enum):
    TAYLOR_SERIES = "taylor-series"
    ASYMPTOTIC_POS = "asymptotic-pos"
    ASYMPTOTIC_NEG = "asymptotic-neg"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EvalResult:
    """A value together with an absolute error bound and the regime used."""

    value: float
    abs_error_bound: float
    terms_used: int
    regime: Regime


# z from which the exponential expansion of E_{a,b}(z) answers.
_ASYM_CUTOFF = 25.0

# Term budget of the Mittag-Leffler series.  It needs ~ z^{1/a}/a terms
# before the Gamma in the denominator wins, which is thousands near the
# overflow boundary.
_MAX_TERMS = 20000

# Depth of the inverse-power expansion; the error bound is the first
# omitted term, which is all the O(z^-2) statement gives us to work with.
_INV_POWER_TERMS = 6


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x): exactly 0 at the poles x = 0, -1, -2, ... and past 171.6,
    x where Gamma overflows near 0, and +-inf with the sign (-1)^ceil(-x)
    where it underflows at large negative x."""
    if not math.isfinite(x):
        raise DomainError(f"reciprocal_gamma requires finite x, got {x}")
    try:
        return 1.0 / math.gamma(x)
    except ValueError:  # a pole
        return 0.0
    except OverflowError:
        return x if abs(x) < 1.0 else 0.0
    except ZeroDivisionError:
        return math.inf if math.ceil(-x) % 2 == 0 else -math.inf


# ---------------------------------------------------------------------------
# series engines


def _kahan_series(terms, max_terms):
    """Sum a term generator with compensation.

    Stops once |term| has dropped below 2^-60 times the largest term seen
    (i.e. the series has given all it can in double precision).
    Returns (sum, n_terms, max_abs_term, last_abs_term, converged).
    """
    s = 0.0
    c = 0.0
    max_abs = 0.0
    last_abs = 0.0
    n = 0
    small_streak = 0
    for term in terms:
        if not math.isfinite(term):
            return math.inf, n, math.inf, math.inf, False
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        last_abs = abs(term)
        max_abs = max(max_abs, last_abs)
        n += 1
        # Only a run of tiny terms counts as the series having decayed for good.
        small_streak = small_streak + 1 if last_abs <= 2.0 ** -60 * max_abs else 0
        if n >= 4 and small_streak >= 3:
            return s, n, max_abs, last_abs, True
        if n >= max_terms:
            return s, n, max_abs, last_abs, False
    return s, n, max_abs, last_abs, True


def _ml_terms(alpha, beta, z, max_terms):
    # Terms of E_{a,b}(z), z > 0, formed as exp(n ln z - lgamma(a n + b)):
    # the bare power z^n overflows long before the gamma decay kicks in for
    # small alpha, while the combined exponent is bounded by the peak
    # ~ z^{1/alpha}.
    la = math.log(z)
    for n in range(max_terms + 1):
        e = n * la - math.lgamma(alpha * n + beta)
        # Out-of-range terms surface as inf so the summator can give up.
        yield math.exp(e) if e < _LOG_TERM_MAX else math.inf


def _series_error(max_abs, last_abs, n_terms):
    # Rounding of the dominant terms, with a per-term factor for the argument
    # rounding inside the gamma function (which grows with the index), plus
    # the first omitted term for the truncation of a converged series.
    return _EPS * max_abs * (4.0 + 2.0 * n_terms) + last_abs


# ---------------------------------------------------------------------------
# Wright functions


def _wright_big_y(nu: float, x: float) -> float:
    """The saddle variable Y of the W_{-nu,mu}(-x) tail expansion.

    Formed in log space: the 1/(1-nu) exponent overflows bare floats
    already at moderate x when nu is close to 1.
    """
    if x <= 0.0:
        return 0.0
    exponent = (nu * math.log(nu) + math.log(x)) / (1.0 - nu)
    if exponent > 709.0:
        return math.inf
    return (1.0 - nu) * math.exp(exponent)


def _log_wright_lead(nu: float, mu: float, y: float) -> float:
    """log of the leading tail term A0(nu, mu) Y^{1/2-mu} e^{-Y}.

    From the Hankel representation (1/2 pi i) int s^{-mu} e^{s - x s^nu} ds:
    the saddle sits at s* = nu Y / (1 - nu) with phi''(s*) = (1 - nu)/s*,
    which gives A0 = (nu/(1-nu))^{1/2-mu} / sqrt(2 pi (1-nu)).
    """
    a0 = (nu / (1.0 - nu)) ** (0.5 - mu) / math.sqrt(2.0 * math.pi * (1.0 - nu))
    return (0.5 - mu) * math.log(y) - y + math.log(a0)


def log_wright_tail(nu: float, mu: float, z: float) -> LogValue:
    """Leading tail term of W_{-nu,mu}(z) for large negative z.

    Returns the positive value A0(nu, mu) Y^{1/2-mu} e^{-Y} in log form, with
    the saddle-point constant A0(nu, mu) = (nu/(1-nu))^{1/2-mu} /
    sqrt(2 pi (1-nu)); the relative error is O(1/Y).  Raises DomainError
    when Y <= 1, where the expansion is not trusted.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must be in (0,1), got {nu}")
    if not -math.inf < z < 0.0:
        raise DomainError(f"log_wright_tail requires finite z < 0, got {z}")
    y = _wright_big_y(nu, -z)
    if y <= 1.0:
        raise DomainError(f"tail expansion not trusted at Y = {y:.3g} <= 1")
    return LogValue(1, _log_wright_lead(nu, mu, y))


# Fit abscissas for the tail-correction coefficients; their product bounds
# the leakage of the first neglected coefficient into the fitted a1.
_TAIL_FIT_YS = (20.0, 32.0, 50.0)

# The neglected a4/Y^4 order of the tail leaks into the fitted a1 by about
# a4/(y1 y2 y3), felt as a 1/Y relative error; this is that factor.
_TAIL_LEAK = 1.0 / (_TAIL_FIT_YS[0] * _TAIL_FIT_YS[1] * _TAIL_FIT_YS[2])

_TALBOT_MIN_N, _TALBOT_MAX_N = 64, 4096


@functools.cache
def _talbot_level(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius-1 Talbot nodes s = theta(cot theta + i), log s and ds/dtheta at
    the theta = k pi/n the n-node trapezoid rule adds to the n/2-node one:
    every k < n at n = 64, the odd k above.  s(0) = 1 and ds(0) = i, the
    latter with the end weight 1/2."""
    k = np.arange(n) if n == _TALBOT_MIN_N else np.arange(1, n, 2)
    theta = k * (math.pi / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = 1.0 / np.tan(theta)
        s = theta * (cot + 1j)
        ds = cot - theta / np.sin(theta) ** 2 + 1j
    if k[0] == 0:
        s[0], ds[0] = 1.0, 0.5j
    return s, np.log(s), ds


def _wright_talbot(nu: float, mu: float, x: float, y: float, tol: float) -> tuple[LogValue, float]:
    """W_{-nu,mu}(-x) from its Hankel integral on a Talbot contour.

    (1/2 pi i) int sigma^{-mu} e^{sigma - x sigma^nu} d sigma over
    sigma(theta) = r theta(cot theta + i), by the trapezoid rule in theta.
    r = nu Y/(1-nu) puts theta = 0 on the real-axis saddle, where the phase
    is -Y, so e^{-Y} factors out and the sum stays O(1) for any Y.  At small
    Y, r is floored at the largest of 1/(1-nu), 1/(2(1-nu)), ... where the
    real-axis phase r - x r^nu + Y is at most 3, and at least 2: as nu -> 1
    the integrand decays ever more slowly along the contour unless r grows
    like 1/(1-nu), and the cap bounds the cancellation that brings.  The
    node count doubles from 64 (and from at least 48 + 8 sqrt(Y), the saddle
    peak being ~1/sqrt(Y) wide in theta) until the n- and n/2-node sums
    agree to ``tol`` and either the estimate below meets ``tol`` or their
    difference is under its rounding part, which more nodes only grow; or
    until n = 4096.  Each doubling adds only the odd nodes.

    The relative estimate is that difference plus eps (n + r + x r^nu + Y)
    sum|terms|/|sum terms|: the phase of each term is rounded to eps times
    its parts, which cancel near the saddle, the sum adds eps n, and the
    cancellation between terms, as near zeros of W, scales both.  A sum
    that is zero or not finite has an infinite estimate.
    """
    r = 1.0 / (1.0 - nu)
    while r > 2.0 and r - x * r ** nu + y > 3.0:
        r *= 0.5
    r = max(nu * y / (1.0 - nu), r, 2.0)
    xr = x * r ** nu
    n, total, total_abs = _TALBOT_MIN_N // 2, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            n *= 2
            s, log_s, ds = _talbot_level(n)
            terms = (np.exp(r * s - xr * np.exp(nu * log_s) - mu * log_s + y) * ds).imag
            half = (total / (n // 2) if n > _TALBOT_MIN_N
                    else 2.0 * float(np.sum(terms[::2])) / n)
            total += float(np.sum(terms))
            total_abs += float(np.sum(np.abs(terms)))
            full = total / n
            if not (math.isfinite(full) and full != 0.0):
                return LogValue.zero(), math.inf
            diff = abs(full - half) / abs(full)
            rounding = _EPS * (n + r + xr + y) * total_abs / abs(total)
            if n >= _TALBOT_MAX_N or (n >= 48.0 + 8.0 * math.sqrt(y) and diff <= tol
                                      and (diff + rounding <= tol or diff <= rounding)):
                break
    return LogValue(1 if full > 0.0 else -1,
                    math.log(abs(full)) + (1.0 - mu) * math.log(r) - y), diff + rounding


@functools.lru_cache(maxsize=256)
def _wright_tail_correction(nu: float, mu: float) -> tuple[float, float, float]:
    """Fit the first three 1/Y correction coefficients of the tail expansion.

    Matching the Talbot rule at three moderate Y values pins
    W/leading ~ 1 + a1/Y + a2/Y^2 + a3/Y^3; only the leading constant A0 is
    known in closed form, so the corrections are calibrated numerically once
    per (nu, mu) pair.  Raises NonConvergence when the rule's estimate at a
    fit point is above 1e-9.
    """
    ys = np.array(_TAIL_FIT_YS)
    rs = []
    for y in _TAIL_FIT_YS:
        x = (y / (1.0 - nu)) ** (1.0 - nu) / nu ** nu
        lv, est = _wright_talbot(nu, mu, x, y, 1e-13)
        if not est <= 1e-9:
            raise NonConvergence(f"W_(-{nu},{mu}) tail fit: estimate {est:.3g} at Y = {y}")
        rs.append(lv.sign * math.exp(lv.log_abs - _log_wright_lead(nu, mu, y)) - 1.0)
    vander = np.vstack([1.0 / ys, 1.0 / ys ** 2, 1.0 / ys ** 3]).T
    a1, a2, a3 = np.linalg.solve(vander, np.array(rs))
    return float(a1), float(a2), float(a3)


def _log_wright(
    nu: float, mu: float, x: float, tol: float = 1e-9
) -> tuple[LogValue, float, Regime, int]:
    """Signed log of W_{-nu,mu}(-x) for x >= 0, with a relative-error estimate.

    The one Wright evaluator, behind the subordination quadrature,
    ``_bridge_rule`` and ``wright_neg``: closed forms at x = 0 and nu = 1/2,
    the Talbot contour rule for 0 < Y <= 1e5 and the corrected tail beyond.
    Where the contour misses ``tol``, the one of contour and tail (Y >= 12)
    with the smaller estimate answers with it; an estimate of 1 or more,
    which leaves not even the sign, does not count.  Returns (signed log,
    estimate, regime, terms summed): the closed forms are series with no
    terms, the contour ``QUADRATURE`` and the tail ``ASYMPTOTIC_NEG``.
    """
    if x < 0:
        raise DomainError("_log_wright expects x >= 0")
    if x == 0.0:
        return LogValue.from_float(reciprocal_gamma(mu)), _EPS, Regime.TAYLOR_SERIES, 1
    # nu = 1/2 closed forms (the subordination density and its antiderivative
    # slot); exact, and the reason the large-t experiments stay cheap.
    if nu == 0.5 and mu == 0.5:
        return (LogValue(1, -0.25 * x * x - 0.5 * math.log(math.pi)), _EPS,
                Regime.TAYLOR_SERIES, 0)
    if nu == 0.5 and mu == 0.0:
        return (LogValue(1, math.log(0.5 * x) - 0.25 * x * x - 0.5 * math.log(math.pi)),
                _EPS, Regime.TAYLOR_SERIES, 0)

    y = _wright_big_y(nu, x)
    if not y < 1e300:
        # e^{-Y} is unrepresentably far below double underflow (nu near 1
        # sends Y astronomical already at moderate x); the value is an exact
        # zero at working precision.
        return LogValue.zero(), 1e-14, Regime.ASYMPTOTIC_NEG, 0
    # Above Y ~ 1e5 the contour peak outgrows the node cap, and the
    # corrected tail is already at ~3e-10 relative there.
    lv, est = _wright_talbot(nu, mu, x, y, tol) if y <= 1e5 else (None, math.inf)
    if est <= tol:
        return lv, est, Regime.QUADRATURE, 0
    # The tail's fit is skipped where its estimate, at least _TAIL_LEAK/Y,
    # cannot beat the contour's.
    if y >= 12.0 and est > _TAIL_LEAK / y:
        try:
            a1, a2, a3 = _wright_tail_correction(nu, mu)
        except NonConvergence:  # no fit: the tail's estimate is infinite
            a1 = a2 = a3 = math.inf
        corr = 1.0 + a1 / y + a2 / (y * y) + a3 / (y * y * y)
        # The neglected a4/Y^4 order and its leak into a1, with 1 + 3|a3| as
        # the proxy for the unknown |a4|.  y^4 may overflow to inf, which
        # harmlessly zeroes that term.
        tail_est = max((1.0 + 3.0 * abs(a3)) * (1.0 / (y * y * y * y) + _TAIL_LEAK / y), 1e-14)
        if corr > 0.0 and tail_est < min(est, 1.0):
            return (LogValue(1, _log_wright_lead(nu, mu, y) + math.log(corr)), tail_est,
                    Regime.ASYMPTOTIC_NEG, 0)
    if est < 1.0:
        return lv, est, Regime.QUADRATURE, 0
    raise NonConvergence(
        f"no trustworthy regime for W_(-{nu},{mu})(-{x}): Y = {y:.3g}"
    )


# The relative tolerance ``wright_neg`` asks of ``_log_wright``.
_WRIGHT_NEG_TOL = 1e-10


def wright_neg(nu: float, mu: float, z: float) -> EvalResult:
    """W_{-nu,mu}(z) for z <= 0, from ``_log_wright`` at tolerance 1e-10.

    For mu = 1 - nu and z < 0 the value is the (strictly positive)
    subordination density.  The bound is |W| times the evaluator's estimate
    plus the rounding exp() adds to log|W|, and at least the smallest
    subnormal; the far tail uses the constant A0(nu, mu) with 1/Y corrections.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must be in (0,1), got {nu}")
    if not math.isfinite(z):
        raise DomainError(f"wright_neg requires finite z, got {z}")
    if z > 0.0:
        raise DomainError("wright_neg requires z <= 0")
    lv, est, regime, terms = _log_wright(nu, mu, -z, tol=_WRIGHT_NEG_TOL)
    value = lv.to_float()
    rounding = abs(lv.log_abs) * _EPS if lv.sign != 0 else 0.0
    return EvalResult(value, max(abs(value) * (est + rounding), math.ulp(0.0)), terms, regime)


# ---------------------------------------------------------------------------
# Mittag-Leffler


@functools.lru_cache(maxsize=64)
def _bridge_rule(alpha: float, mu: float):
    """Quadrature data for integral_0^inf e^{z s} W_{-a,mu}(-s) ds.

    The Laplace-Wright integral of E_{a,mu+a}(z): verify's cross-check of
    the Mittag-Leffler evaluation against the Wright evaluator, kept out of
    ``mittag_leffler`` itself.  The Wright factor does not depend on z, so
    nodes, weights and Wright values over [0, S] (with Y(S) = 50, i.e. W
    below e^{-50}) are built once per (alpha, mu), as a fine and a coarse
    rule whose difference estimates the error.
    """
    s_end = (50.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha

    def build(n_panels):
        ss, ww = gl_panels(np.linspace(0.0, s_end, n_panels + 1))
        wvals = np.empty_like(ss)
        for i, s in enumerate(ss):
            y = _wright_big_y(alpha, float(s)) if s > 0 else 0.0
            # Deep-tail nodes are e^{-Y} down in relative weight, so their
            # own tolerance can relax accordingly.
            tol = min(1e-2, 1e-9 * math.exp(min(y, 40.0)))
            wvals[i] = _log_wright(alpha, mu, float(s), tol=max(tol, 1e-11))[0].to_float()
        return ss, ww * wvals

    return build(64), build(32)


# The trapezoid rule on the hyperbola s(u) = mu (1 + sin(iu - 1.1721)) with
# h = 1.0818/N and mu = 4.492 N (Weideman & Trefethen, Math. Comp. 76, 2007;
# Garrappa, SIAM J. Numer. Anal. 53, 2015 for Mittag-Leffler functions).
# Nodes at -u are the conjugates of those at u, so u = k h, k = 0..N carry
# the whole sum.  The N = 16 rule answers; its distance from the N = 12 rule
# is the discretisation estimate.
_HYPERBOLA_PHASE = 1.1721


def _hyperbola_rule(n: int):
    """log s at u = k h, k = 0..n, the weights e^{s} s'(u) h/(2 pi i) (doubled
    for k > 0, whose conjugate node is left out), and |s'(u)|."""
    h = 1.0818 / n
    mu = 4.492 * n
    w = 1j * h * np.arange(n + 1) - _HYPERBOLA_PHASE
    s = mu * (1.0 + np.sin(w))
    ds = mu * np.cos(w)
    weights = np.exp(s) * ds * (h / math.pi)
    weights[0] *= 0.5
    return np.log(s), weights, np.abs(ds)


# Both rules share one array of log s; row 0 of _ML_WEIGHTS holds the fine
# weights and row 1 the coarse ones, each with zeros at the other's nodes.
_ML_FINE, _ML_COARSE = _hyperbola_rule(16), _hyperbola_rule(12)
_ML_LOG_S = np.concatenate([_ML_FINE[0], _ML_COARSE[0]])
_ML_WEIGHTS = np.zeros((2, _ML_LOG_S.size), dtype=complex)
_ML_WEIGHTS[0, : _ML_FINE[0].size] = _ML_FINE[1]
_ML_WEIGHTS[1, _ML_FINE[0].size :] = _ML_COARSE[1]
# eps e^{max Re s}: the rounding of the fine sum per unit of max |F s'|.
_ML_ROUNDING = _EPS * math.exp(4.492 * 16 * (1.0 - math.sin(_HYPERBOLA_PHASE)))


def _ml_contour(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """E_{a,b}(z) for 0 < a < 1 and z < 0, and an absolute error estimate.

    The inverse Laplace transform of F(s) = s^{a-b}/(s^a - z) at t = 1, which
    has no pole on the principal sheet for a < 1.  The estimate is the
    distance between the two rules plus eps e^{max Re s} max |F s'|.  At
    b = a the 1/z terms cancel, so for |z| > 1 the value is taken as
    E_{a,0}(z)/z, which keeps its relative accuracy.
    """
    if beta == alpha and z < -1.0:
        value, est = _ml_contour(alpha, 0.0, z)
        return value / z, est / -z
    f = np.exp((alpha - beta) * _ML_LOG_S) / (np.exp(alpha * _ML_LOG_S) - z)
    fine, coarse = (_ML_WEIGHTS @ f).real.tolist()
    abs_ds = _ML_FINE[2]
    rounding = _ML_ROUNDING * float(np.max(np.abs(f[: abs_ds.size]) * abs_ds))
    return fine, max(abs(fine - coarse) + rounding, math.ulp(0.0))


def _ml_inverse_powers(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """-sum_{k=1}^{6} z^{-k}/Gamma(b - a k) and its first omitted term.

    The algebraic part of the large-z expansion of E_{a,b}(z).
    """
    value = -math.fsum(
        z ** (-k) * reciprocal_gamma(beta - alpha * k) for k in range(1, _INV_POWER_TERMS + 1)
    )
    omitted = abs(z) ** -(_INV_POWER_TERMS + 1) * abs(
        reciprocal_gamma(beta - alpha * (_INV_POWER_TERMS + 1))
    )
    return value, omitted


def mittag_leffler(alpha: float, beta: float, z: float) -> EvalResult:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) on the real line.

    The negative axis takes the hyperbolic contour rule for a < 1 and the
    closed forms e^z and 1F1(1; b; z)/Gamma(b) at a = 1; the positive axis
    takes the Taylor series up to z = _ASYM_CUTOFF and the exponential
    expansion beyond.  Every bound counts the rounding of the value's
    exponents and is at least the smallest subnormal.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler requires finite z, got {z}")
    if z == 0.0:
        return EvalResult(reciprocal_gamma(beta), _EPS, 1, Regime.TAYLOR_SERIES)
    if alpha == 1.0 and beta == 1.0 and z < 700.0:
        value = math.exp(z)
        return EvalResult(value, max(2.0 * _EPS * value, math.ulp(0.0)), 0,
                          Regime.TAYLOR_SERIES)

    if z > 0.0:
        expo = z ** (1.0 / alpha)
        if expo > 700.0:
            # Out of double range; log_mittag_leffler is the log-domain route.
            return EvalResult(math.inf, math.inf, 0, Regime.ASYMPTOTIC_POS)
        if z <= _ASYM_CUTOFF:
            s, n, max_abs, last_abs, converged = _kahan_series(
                _ml_terms(alpha, beta, z, _MAX_TERMS), _MAX_TERMS
            )
            if not converged:
                raise NonConvergence(
                    f"Mittag-Leffler series exhausted {_MAX_TERMS} terms at z = {z}"
                )
            # Term k is exp(k ln z - lgamma(a k + b)), whose exponent is
            # rounded to eps times the size of its parts; every term is
            # positive, so the sum s carries all of them.  lgamma is convex,
            # so its end points bound it over the summed range.
            parts = (n * abs(math.log(z)) + abs(math.lgamma(alpha * n + beta))
                     + abs(math.lgamma(beta)) + 1.0)
            err = _series_error(max_abs, last_abs, n) + 2.0 * _EPS * parts * s
            return EvalResult(s, err, n, Regime.TAYLOR_SERIES)
        lead = math.exp(expo) * z ** ((1.0 - beta) / alpha) / alpha
        corr, omitted = _ml_inverse_powers(alpha, beta, z)
        # The exponent z^{1/a} is rounded to about eps z^{1/a} (1 + ln z^{1/a})
        # through 1/a and pow; exp turns that into a relative error of the lead.
        rounding = _EPS * lead * (4.0 + (expo + abs(1.0 - beta)) * (1.0 + math.log(expo)))
        return EvalResult(lead + corr, omitted + rounding, 0, Regime.ASYMPTOTIC_POS)

    if alpha == 1.0:
        # E_{1,b}(z) = 1F1(1; b; z)/Gamma(b).  At 30 digits the double is
        # correctly rounded, so 4 ulps bound it.
        with mpmath.workdps(30):
            value = float(mpmath.hyp1f1(1, beta, z) * mpmath.rgamma(beta))
        return EvalResult(value, 4.0 * _EPS * abs(value) + math.ulp(0.0), 0,
                          Regime.TAYLOR_SERIES)

    value, est = _ml_contour(alpha, beta, z)
    return EvalResult(value, est, 0, Regime.QUADRATURE)


def mittag_leffler_deriv(alpha: float, z: float) -> EvalResult:
    """d/dz E_a(z) = (1/a) E_{a,a}(z)."""
    inner = mittag_leffler(alpha, alpha, z)
    return EvalResult(
        inner.value / alpha,
        inner.abs_error_bound / alpha,
        inner.terms_used,
        inner.regime,
    )


def log_mittag_leffler(alpha: float, z: float) -> LogValue:
    """log E_a(z) as a LogValue for finite z.

    Switches to the exponential leading term where ``mittag_leffler`` does
    (z >= _ASYM_CUTOFF) or once the value is about to leave double range."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if not math.isfinite(z):
        raise DomainError(f"log_mittag_leffler requires finite z, got {z}")
    if alpha == 1.0:
        return LogValue(1, z)
    if z > 0.0 and (z >= _ASYM_CUTOFF or z ** (1.0 / alpha) > 690.0):
        return LogValue(1, z ** (1.0 / alpha) - math.log(alpha))
    value = mittag_leffler(alpha, 1.0, z).value
    if value <= 0.0:  # numerically impossible for a in (0,1]; keep honest
        raise NonConvergence(f"non-positive Mittag-Leffler value at z = {z}")
    return LogValue(1, math.log(value))


# ---------------------------------------------------------------------------
# incomplete gamma and scalar constants


def gamma_upper_incomplete(s: float, x: float) -> float:
    """Upper incomplete gamma integral over (x, infinity); any real s for x > 0."""
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not x >= 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0.0:
        if s <= 0.0:
            raise DomainError("Gamma(s, 0) diverges for s <= 0")
        return float(mpmath.gamma(s))
    return float(mpmath.gammainc(s, a=x, b=mpmath.inf))


def gamma_alpha(alpha: float) -> float:
    """The decay constant (1-a) a^{a/(1-a)} of the subordination density tail."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))


def m_alpha(alpha: float) -> int:
    """Smallest integer strictly greater than (2/gamma_alpha)^{(1-a)/a}."""
    base, power = 2.0 / gamma_alpha(alpha), (1.0 - alpha) / alpha
    # Checked in logs: the power itself overflows doubles for alpha below
    # about 0.019.
    if power * math.log(base) > 62.0 * math.log(2.0):
        raise DomainError(
            f"linear-speed upper threshold exceeds integer range at alpha = {alpha}"
        )
    threshold = base ** power
    return int(math.floor(threshold)) + 1


@functools.lru_cache(maxsize=1)
def dottie() -> float:
    """The unique fixed point of cos on (0, pi/2)."""
    x = 0.74
    for _ in range(64):
        step = (math.cos(x) - x) / (1.0 + math.sin(x))
        x += step
        if abs(step) < 1e-16:
            break
    return x


def ml_estimate_rhs(kind: str, n: int, alpha: float, r: float) -> float:
    """Right-hand side of the upper/lower Mittag-Leffler estimates.

    ``kind`` is "upper" or "lower".  Upper bound:
        a E'_a(r) + sum_{k=0}^{floor((3n-2)/2)-1} g_k r^k,
    with g_k = 1/Gamma(1+ak) - 1/Gamma(a+ak).  Lower bound:
        (a/r^{n-1}) E'_a(r) - r^{1-n} sum l_k r^k + r^{1-n} sum b_k r^k
    over k <= floor(n-1+1/(2a)), with l_k = 1/Gamma(a+ka) and
    b_k = 1/Gamma(1+ka-a(n-1)).
    """
    if kind not in ("upper", "lower"):
        raise DomainError(f"kind must be 'upper' or 'lower', got {kind!r}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if alpha < 1.0 / n or alpha > 1.0:
        raise DomainError(f"alpha = {alpha} outside [1/{n}, 1]")
    deriv = mittag_leffler_deriv(alpha, r).value
    if kind == "upper":
        if r < 0.0:
            raise DomainError("upper estimate requires r >= 0")
        kmax = math.floor((3 * n - 2) / 2) - 1
        poly = math.fsum(
            (reciprocal_gamma(1.0 + alpha * k) - reciprocal_gamma(alpha + alpha * k)) * r ** k
            for k in range(kmax + 1)
        )
        return alpha * deriv + poly
    if r <= 0.0:
        raise DomainError("lower estimate requires r > 0")
    kmax = math.floor(n - 1 + 1.0 / (2.0 * alpha))
    lam = math.fsum(reciprocal_gamma(alpha + k * alpha) * r ** k for k in range(kmax + 1))
    bet = math.fsum(
        reciprocal_gamma(1.0 + k * alpha - alpha * (n - 1)) * r ** k
        for k in range(n - 1, kmax + 1)
    )
    scale = r ** (1 - n)
    return scale * (alpha * deriv - lam + bet)
