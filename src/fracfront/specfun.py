"""Real-argument Mittag-Leffler, Wright and incomplete-gamma evaluation.

Regime layout for E_{a,b}(z) on the real line:

* Taylor series with Kahan compensation wherever cancellation stays benign
  (always for z >= 0, and on the negative axis only while the largest
  intermediate term does not swamp the requested tolerance);
* for z <= -asym_cutoff the standard negative-axis expansion
  -sum_k z^{-k}/Gamma(b - a k);
* for z >= asym_cutoff the exponential expansion (1/a) z^{(1-b)/a} e^{z^{1/a}};
* the bridge in between integrates e^{z s} W_{-a,b-a}(-s) ds, which is also
  how the two function families are cross-checked against each other.

W_{-nu,mu}(-x) gets the same treatment: series, then a saddle-type tail
Y^{1/2-mu} e^{-Y} A0 with Y = (1-nu)(nu^nu x)^{1/(1-nu)}.  The internal
evaluator additionally owns a high-precision fallback for the mid zone where
the double series cancels catastrophically but the tail is not yet accurate.

On the negative axis both series are gated before the first term is summed.
Their rounding loss is known up front: the largest Taylor term of E_{a,b}(z)
comes from a few lgamma calls near n ~ |z|^{1/a}/a, and the Wright series
loses at least e^{1.8 Y}.  A series whose error estimate cannot meet the
tolerance is skipped and the next regime runs at once.  The gates only
reject series that the a-posteriori test would also reject (a lower bound on
that test's error estimate already exceeds the tolerance), so every result,
regime and term count is the one the series-first order gives; the
a-posteriori test still runs on every series that is summed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import mpmath
import numpy as np
from scipy.special import rgamma as _rgamma

from .errors import DomainError, NonConvergence
from .logvalue import LogValue

_EPS = 2.0 ** -52

# exp() overflows past this exponent; a series term this large is reported
# as inf, which ends the summation unconverged.
_LOG_TERM_MAX = 709.0

# Largest tolerance the series gates act on; the bridge asks for 1e-2 at its
# deepest-tail nodes.  Far above it a sum that is pure rounding noise can
# pass the a-posteriori test (the Wright estimate saturates near 0.3), so
# the gates leave such requests to the series-first order.
_GATE_MAX_TOL = 1e-2

# The Wright series on W_{-nu,mu}(-x) peaks near e^{Y} while the value is
# near e^{-Y}.  Its own relative error estimate was measured never to fall
# below _EPS e^{1.8 Y} where it meets a tolerance <= _GATE_MAX_TOL: on a
# grid of nu in [0.001, 0.999], mu in [-1, 3] and Y in (0, 20] the smallest
# margin was e^{1.84}, at nu = 0.006, mu = 0.02, Y = 3.5.  Beyond Y ~ 17
# the estimate saturates near 0.3.
_WRIGHT_LOSS_RATE = 1.8

# Safety factor of the Mittag-Leffler gate over its bound max(1, |E|): the
# a-posteriori test compares with max(1, |s|), and the sum s may exceed the
# true value by its own rounding error.  Measured over alpha in [0.02, 1],
# beta in {alpha, 1, 1.5} and |z| in [1e-3, 60]: the smallest tolerance each
# series passed was at least 300x the tolerance below which the gate skips.
_ML_GATE_MARGIN = 100.0


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


@dataclass(frozen=True)
class EvalPolicy:
    """Switch points and budgets for the series/asymptotic/bridge regimes."""

    asym_cutoff: float = 25.0
    # The positive-axis series needs ~ z^{1/a}/a terms before the Gamma in
    # the denominator wins, which is thousands near the overflow boundary.
    max_terms: int = 20000
    target_tol: float = 1e-10

    def __post_init__(self):
        if self.target_tol <= 0:
            raise ValueError("target_tol must be positive")


DEFAULT_POLICY = EvalPolicy()

# Depth of the negative-axis expansion; the error bound is the first
# omitted term, which is all the O(z^-2) statement gives us to work with.
_NEG_ASYM_TERMS = 6


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), taken as exactly 0 at the poles x = 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise DomainError(f"reciprocal_gamma requires finite x, got {x}")
    return float(_rgamma(x))


# ---------------------------------------------------------------------------
# series engines


def _kahan_series(terms, max_terms, stop_floor_factor=2.0 ** -60):
    """Sum a term generator with compensation.

    Stops once |term| has dropped below ``stop_floor_factor`` times the largest
    term seen (i.e. the series has given all it can in double precision).
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
        # Reciprocal-gamma poles make isolated terms exactly zero, so only a
        # run of tiny terms counts as the series having decayed for good.
        small_streak = small_streak + 1 if last_abs <= stop_floor_factor * max_abs else 0
        if n >= 4 and small_streak >= 3:
            return s, n, max_abs, last_abs, True
        if n >= max_terms:
            return s, n, max_abs, last_abs, False
    return s, n, max_abs, last_abs, True


def _ml_terms(alpha, beta, z, max_terms):
    # Terms formed as exp(n ln|z| - lgamma(a n + b)): the bare power z^n
    # overflows long before the gamma decay kicks in for small alpha, while
    # the combined exponent is bounded by the peak ~ z^{1/alpha}.
    la = math.log(abs(z))
    sign = 1.0 if z > 0.0 else -1.0
    sgn = 1.0
    for n in range(max_terms + 1):
        e = n * la - math.lgamma(alpha * n + beta)
        # Out-of-range terms surface as inf so the summator can give up.
        yield sgn * (math.exp(e) if e < _LOG_TERM_MAX else math.inf)
        sgn *= sign


def _wright_terms(nu, mu, z, max_terms):
    # z^n / n! accumulated multiplicatively to avoid factorial overflow.
    coeff = 1.0
    for n in range(max_terms + 1):
        if not math.isfinite(coeff):
            # inf * (rgamma pole zero) would turn into a silent nan.
            yield math.inf
            return
        yield coeff * float(_rgamma(-nu * n + mu))
        coeff *= z / (n + 1)


def _series_error(max_abs, last_abs, converged, n_terms):
    # Rounding of the dominant terms plus the first-omitted-term heuristic
    # for the truncation.  The per-term factor accounts for argument
    # rounding inside the reciprocal gamma (which grows with the index),
    # not just the summation itself.
    err = _EPS * max_abs * (4.0 + 2.0 * n_terms) + last_abs
    if not converged:
        err = math.inf
    return err


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


def _wright_a0(nu: float) -> float:
    # Leading-order constant of the documented tail expansion.  It agrees
    # with the saddle-point constant only at nu = 1/2; ``log_wright_tail``
    # keeps it because that op is leading-order by contract.
    return 1.0 / (math.sqrt(2.0 * math.pi) * (1.0 - nu) ** nu * nu ** (2.0 * nu - 1.0))


def _wright_a0_exact(nu: float, mu: float) -> float:
    """Saddle-point constant of W_{-nu,mu}(-x) ~ A0 Y^{1/2-mu} e^{-Y}.

    From the Hankel representation (1/2 pi i) int s^{-mu} e^{s - x s^nu} ds:
    the saddle sits at s* = nu Y / (1 - nu) with phi''(s*) = (1 - nu)/s*,
    which gives A0 = (nu/(1-nu))^{1/2-mu} / sqrt(2 pi (1-nu)).
    """
    return (nu / (1.0 - nu)) ** (0.5 - mu) / math.sqrt(2.0 * math.pi * (1.0 - nu))


def log_wright_tail(nu: float, mu: float, z: float) -> LogValue:
    """Leading tail term of W_{-nu,mu}(z) for large negative z.

    Returns the positive value Y^{1/2-mu} e^{-Y} A0(nu) in log form.  Raises
    DomainError when Y <= 1, where the expansion is not trusted.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must be in (0,1), got {nu}")
    if z >= 0.0:
        raise DomainError("log_wright_tail requires z < 0")
    y = _wright_big_y(nu, -z)
    if y <= 1.0:
        raise DomainError(f"tail expansion not trusted at Y = {y:.3g} <= 1")
    log_abs = (0.5 - mu) * math.log(y) - y + math.log(_wright_a0(nu))
    return LogValue(1, log_abs)


def _wright_mp(nu: float, mu: float, x: float, dps: int) -> mpmath.mpf:
    """W_{-nu,mu}(-x) by the defining series at ``dps`` working digits."""
    with mpmath.workdps(dps):
        # The gamma argument must be formed in working precision: building
        # -nu*n + mu in doubles injects O(1e-14) argument noise that the
        # heavily cancelling sum amplifies catastrophically.
        nu_mp, mu_mp, x_mp = mpmath.mpf(nu), mpmath.mpf(mu), mpmath.mpf(x)
        s = mpmath.mpf(0)
        coeff = mpmath.mpf(1)
        max_abs = mpmath.mpf(0)
        n = 0
        small_streak = 0
        floor = mpmath.mpf(10) ** (-dps - 5)
        while True:
            term = coeff * mpmath.rgamma(mu_mp - nu_mp * n)
            s += term
            max_abs = max(max_abs, abs(term))
            coeff *= -x_mp / (n + 1)
            n += 1
            # Pole terms are exactly zero; only a run of tiny terms ends it.
            small_streak = (
                small_streak + 1
                if abs(term) < floor * max(max_abs, mpmath.mpf(1))
                else 0
            )
            if n > 8 and small_streak >= 3:
                break
            if n > 100000:  # pragma: no cover - safety stop
                break
        return +s


# Fit abscissas for the tail-correction coefficients; their product bounds
# the leakage of the first neglected coefficient into the fitted a1.
_TAIL_FIT_YS = (20.0, 32.0, 50.0)


@functools.lru_cache(maxsize=256)
def _wright_tail_correction(nu: float, mu: float) -> tuple[float, float, float]:
    """Fit the first three 1/Y correction coefficients of the tail expansion.

    Matching the high-precision series at three moderate Y values pins
    W/leading ~ 1 + a1/Y + a2/Y^2 + a3/Y^3; only the leading constant A0 is
    known in closed form, so the corrections are calibrated numerically once
    per (nu, mu) pair.
    """
    ys = np.array(_TAIL_FIT_YS)
    rs = []
    for y in ys:
        x = (y / (1.0 - nu)) ** (1.0 - nu) / nu ** nu
        dps = 30 + int(y)
        w = float(_wright_mp(nu, mu, x, dps))
        lead = (0.5 - mu) * math.log(y) - y + math.log(_wright_a0_exact(nu, mu))
        rs.append(w / math.exp(lead) - 1.0)
    vander = np.vstack([1.0 / ys, 1.0 / ys ** 2, 1.0 / ys ** 3]).T
    a1, a2, a3 = np.linalg.solve(vander, np.array(rs))
    return float(a1), float(a2), float(a3)


def _talbot_sum(nu: float, mu: float, x: float, y: float, r: float, n: int) -> float:
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    cot = 1.0 / np.tan(theta)
    sigma = r * theta * (cot + 1j)
    dsigma = r * (cot - theta / np.sin(theta) ** 2 + 1j)
    # Phase shifted by +Y so the factor under the sum stays O(1); the
    # contour passes through the real-axis saddle at theta -> 0.
    g = sigma - x * sigma ** nu + y
    vals = np.exp(g) * sigma ** (-mu) * dsigma
    return float(np.sum(vals.imag)) / n


def _wright_talbot(nu: float, mu: float, x: float) -> tuple[LogValue, float]:
    """W_{-nu,mu}(-x) from the Hankel representation on a Talbot contour.

    (1/2 pi i) int sigma^{-mu} e^{sigma - x sigma^nu} d sigma over
    sigma(theta) = r theta(cot theta + i), with the radius matched to the
    saddle so e^{-Y} factors out analytically and the quadrature works in
    doubles for any Y.  The error estimate is the half-node-count
    difference; the node count grows with the saddle sharpness sqrt(Y).
    """
    y = _wright_big_y(nu, x)
    r = max(nu * y / (1.0 - nu), 1e-2)
    # The saddle peak has width ~ 1/sqrt(Y) in theta; past the node cap it
    # cannot be resolved and the estimate below reports the failure.
    n = min(48 + 8 * int(math.sqrt(y)), 3072)
    while True:
        full = _talbot_sum(nu, mu, x, y, r, n)
        half = _talbot_sum(nu, mu, x, y, r, n // 2)
        scale = max(abs(full), 1e-300)
        est = abs(full - half) / scale + 1e-14
        if est < 1e-11 or n >= 3072:
            break
        n *= 2
    if full == 0.0:
        # The function is not zero anywhere on (0, inf); an exactly zero
        # sum means every node missed the saddle peak.
        return LogValue.zero(), math.inf
    sign = 1 if full > 0.0 else -1
    return LogValue(sign, math.log(abs(full)) - y), est


def _wright_series_hopeless(y: float, tol: float) -> bool:
    """True when the double Wright series at saddle variable ``y`` cannot
    reach relative error ``tol``: its estimate is at least _EPS e^{1.8 y}."""
    return tol <= _GATE_MAX_TOL and _WRIGHT_LOSS_RATE * y > math.log(tol / _EPS)


def _wright_series(nu: float, mu: float, x: float, tol: float) -> tuple[LogValue, float] | None:
    """W_{-nu,mu}(-x) by the double series, or None if its estimate exceeds ``tol``."""
    s, n, max_abs, last_abs, converged = _kahan_series(
        _wright_terms(nu, mu, -x, 4000), 4000
    )
    if converged and s != 0.0:
        rel = _series_error(max_abs, last_abs, converged, n) / abs(s)
        if rel <= tol:
            return LogValue.from_float(s), rel
    return None


def _log_wright(nu: float, mu: float, x: float, tol: float = 1e-9) -> tuple[LogValue, float]:
    """Signed log of W_{-nu,mu}(-x) for x >= 0, with a relative-error estimate.

    The workhorse behind the subordination quadrature and the
    Mittag-Leffler bridge; picks series / Talbot contour / corrected tail /
    high precision per point so the estimate stays below ``tol`` whenever
    achievable.  The series is only summed when its rounding loss, known
    from Y before any term, leaves ``tol`` within reach; the skipped series
    would have failed its own a-posteriori test, so the result is the same.
    """
    if x < 0:
        raise DomainError("_log_wright expects x >= 0")
    if x == 0.0:
        return LogValue.from_float(_rgamma(mu)), _EPS
    # nu = 1/2 closed forms (the subordination density and its antiderivative
    # slot); exact, and the reason the large-t experiments stay cheap.
    if nu == 0.5 and mu == 0.5:
        return LogValue(1, -0.25 * x * x - 0.5 * math.log(math.pi)), _EPS
    if nu == 0.5 and mu == 0.0:
        return LogValue(1, math.log(0.5 * x) - 0.25 * x * x - 0.5 * math.log(math.pi)), _EPS

    y = _wright_big_y(nu, x)
    if not _wright_series_hopeless(y, tol):
        hit = _wright_series(nu, mu, x, tol)
        if hit is not None:
            return hit

    # Above Y ~ 1e5 the contour peak outgrows the Talbot node cap, and the
    # corrected tail below is already at ~3e-10 relative there.
    if 4.0 <= y <= 1e5:
        lv, est = _wright_talbot(nu, mu, x)
        if est <= max(tol, 1e-9):
            return lv, est

    tail = None
    if y >= 12.0:
        if not y < 1e300:
            # e^{-Y} is unrepresentably far below double underflow (nu near
            # 1 sends Y astronomical already at moderate x); the value is an
            # exact zero at working precision.
            return LogValue.zero(), 1e-14
        a1, a2, a3 = _wright_tail_correction(nu, mu)
        # First term: the neglected a4/Y^4 tail order.  Second term: the
        # same neglected order leaks into the fitted a1 by roughly
        # a4/(y1 y2 y3), felt as a 1/y relative error.  1 + 3|a3| serves
        # as the proxy for the unknown |a4|.  y^4 may overflow to inf, which
        # harmlessly zeroes that term.
        leak = 1.0 / (_TAIL_FIT_YS[0] * _TAIL_FIT_YS[1] * _TAIL_FIT_YS[2])
        est = max((1.0 + 3.0 * abs(a3)) * (1.0 / (y * y * y * y) + leak / y), 1e-14)
        corr = 1.0 + a1 / y + a2 / (y * y) + a3 / (y * y * y)
        if corr > 0.0:
            log_abs = (
                (0.5 - mu) * math.log(y) - y
                + math.log(_wright_a0_exact(nu, mu)) + math.log(corr)
            )
            tail = (LogValue(1, log_abs), est)
            if est <= tol:
                return tail

    # High-precision mid zone: the double series loses ~Y/ln10 digits, so
    # past the precision cap the result would be pure noise and the
    # corrected tail (with its honest estimate) is the only usable answer.
    dps = 20 + int(y)
    if dps <= 220:
        with mpmath.workdps(dps):
            w = _wright_mp(nu, mu, x, dps)
            if w == 0:
                return LogValue.zero(), 0.0
            sign = 1 if w > 0 else -1
            log_abs = float(mpmath.log(abs(w)))
        return LogValue(sign, log_abs), 1e-12
    if tail is not None:
        return tail
    raise NonConvergence(
        f"no trustworthy regime for W_(-{nu},{mu})(-{x}): Y = {y:.3g}"
    )


def wright_neg(
    nu: float, mu: float, z: float, policy: EvalPolicy = DEFAULT_POLICY
) -> EvalResult:
    """W_{-nu,mu}(z) for z <= 0 by series, falling back to the tail expansion.

    For mu = 1 - nu and z < 0 the value is the (strictly positive)
    subordination density.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must be in (0,1), got {nu}")
    if z > 0.0:
        raise DomainError("wright_neg requires z <= 0")
    if z == 0.0:
        return EvalResult(_rgamma(mu), _EPS, 1, Regime.TAYLOR_SERIES)

    s, n, max_abs, last_abs, converged = _kahan_series(
        _wright_terms(nu, mu, z, policy.max_terms), policy.max_terms
    )
    err = _series_error(max_abs, last_abs, converged, n)
    if converged and err <= policy.target_tol * max(1.0, abs(s)):
        return EvalResult(s, err, n, Regime.TAYLOR_SERIES)

    y = _wright_big_y(nu, -z)
    if y > 1.0:
        lv = log_wright_tail(nu, mu, z)
        value = lv.to_float()
        return EvalResult(value, abs(value) * min(0.5, 2.0 / y), 0, Regime.ASYMPTOTIC_NEG)
    if not converged:
        raise NonConvergence(
            f"Wright series exhausted {policy.max_terms} terms at z = {z}"
        )
    # Series converged but above target tolerance and no usable tail.
    return EvalResult(s, err, n, Regime.TAYLOR_SERIES)


# ---------------------------------------------------------------------------
# Mittag-Leffler


@functools.lru_cache(maxsize=64)
def _bridge_rule(alpha: float, mu: float):
    """Precomputed quadrature data for integral_0^inf e^{z s} W_{-a,mu}(-s) ds.

    The Wright factor does not depend on z, so nodes, weights and Wright
    values over [0, S] (with Y(S) = 50, i.e. W below e^{-50}) are built once
    per (alpha, mu) and each bridge evaluation reduces to two dot products
    (a fine and a coarse rule, whose difference is the error estimate).
    """
    s_end = (50.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def build(n_panels):
        edges = np.linspace(0.0, s_end, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1:] - edges[:-1])
        ss = (mids[:, None] + halves[:, None] * nodes[None, :]).ravel()
        ww = (halves[:, None] * weights[None, :]).ravel()
        wvals = np.empty_like(ss)
        for i, s in enumerate(ss):
            y = _wright_big_y(alpha, float(s)) if s > 0 else 0.0
            # Deep-tail nodes are e^{-Y} down in relative weight, so their
            # own tolerance can relax accordingly.
            tol = min(1e-2, 1e-9 * math.exp(min(y, 40.0)))
            lv, _ = _log_wright(alpha, mu, float(s), tol=max(tol, 1e-11))
            wvals[i] = lv.to_float()
        return ss, ww * wvals

    return build(64), build(32)


def _ml_bridge(alpha: float, beta: float, z: float, tol: float) -> tuple[float, float]:
    """E_{a,b}(z) for moderately negative z via the Laplace-Wright integral."""
    (s_fine, f_fine), (s_coarse, f_coarse) = _bridge_rule(alpha, beta - alpha)
    fine = float(np.dot(f_fine, np.exp(z * s_fine)))
    coarse = float(np.dot(f_coarse, np.exp(z * s_coarse)))
    err = abs(fine - coarse) + 1e-12 * abs(fine) + 1e-24
    return fine, err


def _ml_peak_log_term(alpha: float, beta: float, z: float, max_terms: int) -> tuple[int, float]:
    """Index and log-size of the largest of the first ``max_terms`` Taylor terms.

    Each log-size is formed exactly as ``_ml_terms`` forms it.  It is
    concave in n (lgamma is convex), so a short uphill walk from the
    stationary point a psi(a n + b) = ln|z|, with psi^{-1}(y) ~ e^y + 1/2,
    finds the peak in a few lgamma calls.
    """
    la = math.log(abs(z))
    guess = (math.exp(min(la / alpha, _LOG_TERM_MAX)) + 0.5 - beta) / alpha
    n = int(min(guess, max_terms - 1)) if guess > 0.0 else 0
    e = n * la - math.lgamma(alpha * n + beta)
    for step in (1, -1):
        while 0 <= n + step < max_terms:
            e_next = (n + step) * la - math.lgamma(alpha * (n + step) + beta)
            # Written so that a nan z stops the walk at once.
            if not e_next > e:
                break
            n, e = n + step, e_next
    return n, e


def _ml_series_hopeless(alpha: float, beta: float, z: float, policy: EvalPolicy) -> bool:
    """True when the Taylor series at z < 0 cannot pass its a-posteriori test."""
    n, log_peak = _ml_peak_log_term(alpha, beta, z, policy.max_terms)
    if log_peak >= _LOG_TERM_MAX:
        # The series reaches this term and stops on its inf.
        return True
    if beta < alpha or policy.target_tol > _GATE_MAX_TOL:
        return False
    # Summing through term n gives an estimate of at least _EPS T (4 + 2(n+1)).
    # For beta >= alpha, E_{a,b}(-x) is completely monotone, so
    # 0 < E <= 1/Gamma(b) bounds the max(1, |s|) the test scales by.
    floor = _EPS * math.exp(log_peak) * (6.0 + 2.0 * n)
    return floor > _ML_GATE_MARGIN * policy.target_tol * max(1.0, float(_rgamma(beta)))


def _ml_series(alpha: float, beta: float, z: float, policy: EvalPolicy) -> EvalResult | None:
    """E_{a,b}(z), z < 0, by the Taylor series, or None if cancellation made it
    miss ``policy.target_tol``."""
    s, n, max_abs, last_abs, converged = _kahan_series(
        _ml_terms(alpha, beta, z, policy.max_terms), policy.max_terms
    )
    err = _series_error(max_abs, last_abs, converged, n)
    if converged and err <= policy.target_tol * max(1.0, abs(s)):
        return EvalResult(s, err, n, Regime.TAYLOR_SERIES)
    return None


def mittag_leffler(
    alpha: float, beta: float, z: float, policy: EvalPolicy = DEFAULT_POLICY
) -> EvalResult:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) on the real line.

    On the negative axis the Taylor series runs only when its largest term,
    found before summing, leaves the tolerance within reach; otherwise the
    asymptotic expansion (z <= -asym_cutoff) or the bridge answers at once.
    A skipped series would have failed its own a-posteriori test, so the
    value, regime and term count are those of the series-first order.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if z == 0.0:
        return EvalResult(_rgamma(beta), _EPS, 1, Regime.TAYLOR_SERIES)
    if alpha == 1.0 and beta == 1.0:
        return EvalResult(math.exp(z), 2.0 * _EPS * math.exp(z) if z < 700 else math.inf,
                          0, Regime.TAYLOR_SERIES)

    if z > 0.0:
        expo = z ** (1.0 / alpha)
        if expo > 700.0:
            # Out of double range; log_mittag_leffler is the log-domain route.
            return EvalResult(math.inf, math.inf, 0, Regime.ASYMPTOTIC_POS)
        if z <= policy.asym_cutoff:
            s, n, max_abs, last_abs, converged = _kahan_series(
                _ml_terms(alpha, beta, z, policy.max_terms), policy.max_terms
            )
            if not converged:
                raise NonConvergence(
                    f"Mittag-Leffler series exhausted {policy.max_terms} terms at z = {z}"
                )
            return EvalResult(s, _series_error(max_abs, last_abs, True, n), n,
                              Regime.TAYLOR_SERIES)
        lead = math.exp(expo) * z ** ((1.0 - beta) / alpha) / alpha
        corr = -math.fsum(
            z ** (-k) * _rgamma(beta - alpha * k) for k in range(1, _NEG_ASYM_TERMS + 1)
        )
        err = abs(z) ** -(_NEG_ASYM_TERMS + 1) * abs(
            _rgamma(beta - alpha * (_NEG_ASYM_TERMS + 1))
        ) + 4.0 * _EPS * lead
        return EvalResult(lead + corr, err, 0, Regime.ASYMPTOTIC_POS)

    # z < 0: the series, unless cancellation is known to defeat it.
    if not _ml_series_hopeless(alpha, beta, z, policy):
        hit = _ml_series(alpha, beta, z, policy)
        if hit is not None:
            return hit

    if z <= -policy.asym_cutoff:
        value = -math.fsum(
            z ** (-k) * _rgamma(beta - alpha * k) for k in range(1, _NEG_ASYM_TERMS + 1)
        )
        err = abs(z) ** -(_NEG_ASYM_TERMS + 1) * abs(
            _rgamma(beta - alpha * (_NEG_ASYM_TERMS + 1))
        )
        return EvalResult(value, err, 0, Regime.ASYMPTOTIC_NEG)

    value, qerr = _ml_bridge(alpha, beta, z, policy.target_tol)
    return EvalResult(value, qerr, 0, Regime.QUADRATURE)


def mittag_leffler_deriv(
    alpha: float, z: float, policy: EvalPolicy = DEFAULT_POLICY
) -> EvalResult:
    """d/dz E_a(z) = (1/a) E_{a,a}(z)."""
    inner = mittag_leffler(alpha, alpha, z, policy)
    return EvalResult(
        inner.value / alpha,
        inner.abs_error_bound / alpha,
        inner.terms_used,
        inner.regime,
    )


def log_mittag_leffler(alpha: float, z: float) -> LogValue:
    """log E_a(z) as a LogValue; switches to the exponential leading term
    once the value leaves (or is about to leave) double range."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if alpha == 1.0:
        return LogValue(1, z)
    if z > 0.0 and (z >= DEFAULT_POLICY.asym_cutoff or z ** (1.0 / alpha) > 690.0):
        return LogValue(1, z ** (1.0 / alpha) - math.log(alpha))
    value = mittag_leffler(alpha, 1.0, z).value
    if value <= 0.0:  # numerically impossible for a in (0,1]; keep honest
        raise NonConvergence(f"non-positive Mittag-Leffler value at z = {z}")
    return LogValue(1, math.log(value))


# ---------------------------------------------------------------------------
# incomplete gamma and scalar constants


def gamma_upper_incomplete(s: float, x: float) -> float:
    """Upper incomplete gamma integral over (x, infinity); any real s for x > 0."""
    if x < 0.0:
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
    threshold = (2.0 / gamma_alpha(alpha)) ** ((1.0 - alpha) / alpha)
    if threshold > 2.0 ** 62:
        raise OverflowError(
            f"linear-speed upper threshold exceeds integer range at alpha = {alpha}"
        )
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
            (_rgamma(1.0 + alpha * k) - _rgamma(alpha + alpha * k)) * r ** k
            for k in range(kmax + 1)
        )
        return alpha * deriv + poly
    if r <= 0.0:
        raise DomainError("lower estimate requires r > 0")
    kmax = math.floor(n - 1 + 1.0 / (2.0 * alpha))
    lam = math.fsum(_rgamma(alpha + k * alpha) * r ** k for k in range(kmax + 1))
    bet = math.fsum(
        _rgamma(1.0 + k * alpha - alpha * (n - 1)) * r ** k
        for k in range(n - 1, kmax + 1)
    )
    scale = r ** (1 - n)
    return scale * (alpha * deriv - lam + bet)
