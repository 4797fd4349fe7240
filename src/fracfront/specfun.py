"""Real-argument Mittag-Leffler, Wright and incomplete-gamma evaluation.

E_{a,b}(z) has one rule on the real line: the inverse Laplace transform of
F(s) = s^{a-b}/(s^a - z) at t = 1 by the trapezoid rule on a hyperbola, 17
complex nodes built once at import (``_ml_contour``, which takes an array
of z as one (z x nodes) matrix).  For z > 0 the residue term R e^p of F's
pole p = z^{1/a}, R = p^{1-b}/a, is added and R/(s - p) subtracted from F,
so the rule never meets the pole.  ``log_mittag_leffler_array`` is the one
evaluator; ``mittag_leffler`` and ``log_mittag_leffler`` are its float and
log views.  At a = 1 the closed forms e^z (b = 1) and, on the negative
axis, E_{1,b}(z) = 1F1(1; b; z)/Gamma(b) answer instead.

The Laplace-Wright integral of e^{z s} W_{-a,b-a}(-s) ds (``_bridge_rule``)
is not on any of these paths; verify keeps it to cross-check the two
function families against each other.

W_{-nu,mu}(-x) has one evaluator, ``log_wright_array``, which takes an
array of x: closed forms at x = 0 and nu = 1/2, one Talbot contour rule for
the Hankel integral at saddle variable 0 < Y = (1-nu)(nu^nu x)^{1/(1-nu)}
<= 1e5, and beyond it the saddle-point tail A0(nu, mu) Y^{1/2-mu} e^{-Y}
with 1/Y corrections, the first in closed form and three fitted once per
(nu, mu) against the Talbot rule, whose nodes cluster at the saddle so that
their count does not grow with Y.  ``_log_wright`` is its one-point view, and ``wright_neg`` and ``log_wright_tail`` (the leading tail term
alone) are views of that.  Both families run in double precision with
``reciprocal_gamma`` as the one 1/Gamma; mpmath answers only
1F1(1; b; z)/Gamma(b) at a = 1 and ``gamma_upper_incomplete``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, FracFrontError, NonConvergence
from .logvalue import LogValue, kronrod_panels

_EPS = 2.0 ** -52


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


def _eval_result(lv: LogValue, est: float, regime: Regime, terms: int) -> EvalResult:
    """The float view of a signed log with a relative estimate: the bound is
    |value| times the estimate plus the rounding exp() adds to log|value|,
    at least the smallest subnormal, and inf past double range."""
    value = lv.to_float()
    if math.isinf(value):
        return EvalResult(value, math.inf, terms, regime)
    rounding = abs(lv.log_abs) * _EPS if lv.sign != 0 else 0.0
    return EvalResult(value, max(abs(value) * (est + rounding), math.ulp(0.0)), terms, regime)


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
# Wright functions


def _wright_big_y(nu: float, x):
    """The saddle variable Y of the W_{-nu,mu}(-x) tail expansion, for x > 0
    (a float or an array).

    Formed in log space: the 1/(1-nu) exponent overflows bare floats
    already at moderate x when nu is close to 1; past e^709 Y is inf.
    """
    exponent = (nu * math.log(nu) + np.log(x)) / (1.0 - nu)
    return np.where(exponent > 709.0, math.inf,
                    (1.0 - nu) * np.exp(np.minimum(exponent, 709.0)))


def _log_wright_lead(nu: float, mu: float, y):
    """log of the leading tail term A0(nu, mu) Y^{1/2-mu} e^{-Y}, for a float
    or an array Y.

    From the Hankel representation (1/2 pi i) int s^{-mu} e^{s - x s^nu} ds:
    the saddle sits at s* = nu Y / (1 - nu) with phi''(s*) = (1 - nu)/s*,
    which gives A0 = (nu/(1-nu))^{1/2-mu} / sqrt(2 pi (1-nu)).
    """
    a0 = (nu / (1.0 - nu)) ** (0.5 - mu) / math.sqrt(2.0 * math.pi * (1.0 - nu))
    return (0.5 - mu) * np.log(y) - y + math.log(a0)


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
    y = float(_wright_big_y(nu, -z))
    if y <= 1.0:
        raise DomainError(f"tail expansion not trusted at Y = {y:.3g} <= 1")
    return LogValue(1, float(_log_wright_lead(nu, mu, y)))


# Fit abscissas of the tail corrections a2..a4.
_TAIL_FIT_YS = (20.0, 32.0, 50.0)

_TALBOT_MIN_N, _TALBOT_MAX_N = 32, 4096


@functools.lru_cache(maxsize=64)
def _talbot_path(n: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radius-1 Talbot path s = theta(cot theta + i) at
    theta = u - (1 - e) sin u, e = 2^-j, for the u = k pi/n the n-node
    trapezoid rule in u adds to the n/2-node one (every k < n at n = 32, the
    odd k above), as the arrays (s, log s, log ds/du).  s(0) = 1 and
    ds/du(0) = i e, the latter with the end weight 1/2.  It does not depend
    on (nu, mu), so every Wright order shares it."""
    k = np.arange(n) if n == _TALBOT_MIN_N else np.arange(1, n, 2)
    u = k * (math.pi / n)
    squeeze = 1.0 - 2.0 ** -j
    theta = u - squeeze * np.sin(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = 1.0 / np.tan(theta)
        s = theta * (cot + 1j)
        ds = (cot - theta / np.sin(theta) ** 2 + 1j) * (1.0 - squeeze * np.cos(u))
    if k[0] == 0:
        s[0], ds[0] = 1.0, 0.5j * 2.0 ** -j
    return s, np.log(s), np.log(ds)


@functools.lru_cache(maxsize=32)
def _talbot_level(n: int, j: int, nu: float, mu: float) -> np.ndarray:
    """The terms of W_{-nu,mu} on the path ``_talbot_path(n, j)``, as the
    rows (Re s, Im s, Re s^nu, Im s^nu, Re c, Im c), c = log ds/du - mu log s."""
    s, log_s, log_ds = _talbot_path(n, j)
    s_nu, c = np.exp(nu * log_s), log_ds - mu * log_s
    return np.array([s.real, s.imag, s_nu.real, s_nu.imag, c.real, c.imag])


def _wright_talbot(nu: float, mu: float, x: np.ndarray, y: np.ndarray,
                   tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W_{-nu,mu}(-x) from its Hankel integral on a Talbot contour, per node
    of the arrays x, y (the saddle variable) and tol.

    (1/2 pi i) int sigma^{-mu} e^{sigma - x sigma^nu} d sigma over
    sigma(theta) = r theta(cot theta + i), by the trapezoid rule in u with
    theta = u - (1 - e) sin u (``_talbot_path``).  r = nu Y/(1-nu) puts
    theta = 0 on the real-axis saddle, where the phase is -Y, so e^{-Y}
    factors out and the sum stays O(1) for any Y.  At small Y, r is floored
    at the largest of 1/(1-nu), 1/(2(1-nu)), ... where the real-axis phase
    r - x r^nu + Y is at most 3, and at least 2: as nu -> 1 the integrand
    decays ever more slowly along the contour unless r grows like 1/(1-nu),
    and the cap bounds the cancellation that brings.  The saddle peak is
    ~1/sqrt(Y) wide in theta; e = 2^-j, j = max(0, ceil(log2(sqrt(Y)/4))),
    keeps it a few nodes wide in u at any Y.  The node count doubles from 32
    until the discretisation estimate below meets ``tol`` and either the
    whole estimate does or the discretisation part is under the rounding
    part, which more nodes only grow; or until n = 4096.  Each doubling adds
    only the odd nodes.  A term Im(e^A ds/du) is e^{Re A + log|ds/du|}
    sin(Im A + arg ds/du), from real (nodes x contour) matrices of at most
    32 _WRIGHT_CHUNK entries, each node taking its class's rows.

    The relative estimate is 2 d_n + d_{n/2}^2 plus eps (n + r + x r^nu + Y)
    sum|terms|/|sum terms|, d_n the relative difference of the n- and
    n/2-node sums (of the 16- and 8-node sums below n = 32).  d_{n/2}^2 is
    d_n as a geometrically converging rule would have it; it catches the
    last two sums agreeing by chance before the saddle or the contour's
    oscillating flank is resolved, and the 2 a level whose error still
    grows.  In the rounding part the phase of each term is rounded to eps
    times its parts, which cancel near the saddle, the sum adds eps n, and
    cancellation between terms, as near zeros of W, scales both.  A zero or
    non-finite sum has an infinite estimate.  Returns the arrays (sign,
    log|W|, estimate); a node's values do not depend on the others.
    """
    r = np.full(x.size, 1.0 / (1.0 - nu))
    while nu > 0.5:  # else 1/(1 - nu) <= 2 and no radius shrinks
        shrink = (r > 2.0) & (r - x * r ** nu + y > 3.0)
        if not shrink.any():
            break
        r[shrink] *= 0.5
    r = np.maximum(np.maximum(nu * y / (1.0 - nu), r), 2.0)
    xr = x * r ** nu
    value, est = np.zeros(x.size), np.full(x.size, math.inf)
    with np.errstate(divide="ignore"):
        at, cls = np.arange(x.size), np.maximum(np.ceil(0.5 * np.log2(y) - 2.0), 0).astype(int)
    # The nodes whose sums are still doubling, one row per quantity: r,
    # x r^nu, Y, tol, eps (r + x r^nu + Y), the sum of the terms and of
    # their magnitudes, and the relative difference at the level before.
    run = np.vstack([r, xr, y, tol, _EPS * (r + xr + y), np.zeros((3, x.size))])
    n = _TALBOT_MIN_N // 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while at.size:
            n *= 2
            r_run, xr_run, y_run, tol_run, size, total, total_abs, step = run
            present = np.flatnonzero(np.bincount(cls))
            table = np.stack([_talbot_level(n, j, nu, mu) for j in present])
            slot = np.searchsorted(present, cls)
            sums, abs_sums, even, fourth = np.empty((4, at.size))
            rows = max(1, _WRIGHT_CHUNK * _TALBOT_MIN_N // table.shape[2])
            for lo in range(0, at.size, rows):
                part = slice(lo, lo + rows)
                t = table[slot[part]] if present.size > 1 else table
                mag = t[:, 0] * r_run[part, None]
                mag -= t[:, 2] * xr_run[part, None]
                mag += t[:, 4]
                mag += y_run[part, None]
                np.exp(mag, out=mag)
                phase = t[:, 1] * r_run[part, None]
                phase -= t[:, 3] * xr_run[part, None]
                phase += t[:, 5]
                terms = np.sin(phase, out=phase)
                terms *= mag
                sums[part] = terms.sum(axis=1)
                if n == _TALBOT_MIN_N:
                    even[part] = terms[:, ::2].sum(axis=1)
                    fourth[part] = terms[:, ::4].sum(axis=1)
                abs_sums[part] = np.abs(terms, out=terms).sum(axis=1)
            half = total / (n // 2)
            total += sums
            total_abs += abs_sums
            full = total / n
            if n == _TALBOT_MIN_N:  # the 16- and 8-node sums
                half = even * (2.0 / n)
                step[:] = np.abs(half - fourth * (4.0 / n)) / np.abs(full)
            diff = np.abs(full - half) / np.abs(full)
            disc = 2.0 * diff + step * step
            rounding = (size + _EPS * n) * total_abs / np.abs(total)
            ok = np.isfinite(full) & (full != 0.0)
            done = ~ok | ((disc <= tol_run) & ((disc + rounding <= tol_run) | (disc <= rounding)))
            if n >= _TALBOT_MAX_N:
                done[:] = True
            step[:] = diff
            if not done.any():
                continue
            fin = done & ok
            value[at[fin]] = full[fin]
            est[at[fin]] = disc[fin] + rounding[fin]
            keep = ~done
            run, at, cls = run[:, keep], at[keep], cls[keep]
    with np.errstate(divide="ignore"):
        return np.sign(value), np.log(np.abs(value)) + (1.0 - mu) * np.log(r) - y, est


@functools.lru_cache(maxsize=256)
def _wright_tail_correction(nu: float, mu: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The corrections (a1, a2, a3, a4) of W/leading ~ 1 + a1/Y + ... +
    a4/Y^4 and bounds (b2, b3, b4) on the errors of a2..a4.

    a1 is the closed form of the saddle-point expansion of the Hankel
    integral; a2..a4 match the Talbot rule at _TAIL_FIT_YS.  The
    neglected orders move them by about c5/(y1 y2 y3), and a fit at twice
    the abscissas by an eighth of that, so twice the distance between the
    fits bounds the error.  Raises NonConvergence when the rule's estimate
    at a fit point is above 1e-9.
    """
    ys = np.array(_TAIL_FIT_YS + tuple(2.0 * y for y in _TAIL_FIT_YS))
    xs = (ys / (1.0 - nu)) ** (1.0 - nu) / nu ** nu
    sign, log_abs, est = _wright_talbot(nu, mu, xs, ys, np.full(ys.size, 1e-13))
    if not np.all(est <= 1e-9):
        raise NonConvergence(f"W_(-{nu},{mu}) tail fit: estimates {est} at Y = {ys}")
    a1 = (-mu * (mu + 1.0) / 2.0 - mu * (nu - 2.0) / 2.0 + (nu - 2.0) * (nu - 3.0) / 8.0
          - 5.0 * (nu - 2.0) ** 2 / 24.0) / nu
    # (W/leading - 1 - a1/Y) Y^2 = a2 + a3/Y + a4/Y^2 at each fit point.
    rs = (sign * np.exp(log_abs - _log_wright_lead(nu, mu, ys)) - 1.0 - a1 / ys) * ys * ys
    vander = np.vstack([np.ones(ys.size), 1.0 / ys, 1.0 / ys ** 2]).T
    fit, check = np.linalg.solve(vander[:3], rs[:3]), np.linalg.solve(vander[3:], rs[3:])
    return (a1, *fit.tolist()), tuple((2.0 * np.abs(fit - check)).tolist())


# Nodes per (nodes x contour) matrix of the Talbot rule at its first two
# levels; a level with L contour nodes takes 32 x _WRIGHT_CHUNK / L of them,
# so no matrix exceeds 32 x _WRIGHT_CHUNK real entries (16 KB).
_WRIGHT_CHUNK = 64

# The regimes of ``log_wright_array``, indexed by its regime codes.
_WRIGHT_REGIMES = (Regime.TAYLOR_SERIES, Regime.QUADRATURE, Regime.ASYMPTOTIC_NEG)


def log_wright_array(
    nu: float, mu: float, x, tol=1e-9
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed log of W_{-nu,mu}(-x) at every node of the array x >= 0, with
    relative-error estimates; ``tol`` is one tolerance or one per node.

    The one Wright evaluator, behind the subordination quadrature,
    ``_bridge_rule``, ``_log_wright`` and ``wright_neg``: closed forms at
    x = 0 and nu = 1/2, the Talbot contour rule for 0 < Y <= 1e5 and the
    corrected tail beyond.  Where the contour misses ``tol``, the one of
    contour and tail (Y >= 12) with the smaller estimate answers with it; an
    estimate of 1 or more, which leaves not even the sign, does not count,
    and a node that no regime answers gets sign 0 and an infinite estimate.
    Returns the arrays (sign, log|W|, estimate, regime code), the codes
    indexing _WRIGHT_REGIMES: the closed forms count as series, the contour
    is ``QUADRATURE`` and the tail ``ASYMPTOTIC_NEG``.  A node's values do
    not depend on the other nodes of the call.  Past Y = 1e5 the tail's
    estimate leaves out ``_tail_rounding``: 1e-9 near Y = 4e5, 1 near 1e14.
    """
    x = np.asarray(x, dtype=float).ravel()
    if (x < 0.0).any():
        raise DomainError("the Wright evaluator expects x >= 0")
    tol = np.full(x.size, tol) if np.ndim(tol) == 0 else np.asarray(tol, dtype=float)
    sign, est, regime = np.ones(x.size), np.full(x.size, _EPS), np.zeros(x.size, dtype=int)
    with np.errstate(divide="ignore"):
        if nu == 0.5 and mu in (0.5, 0.0):
            # The closed forms of the subordination density and its
            # antiderivative slot; exact, and the reason the large-t
            # experiments stay cheap.
            log_abs = -0.25 * x * x - 0.5 * math.log(math.pi)
            if mu == 0.0:
                log_abs += np.log(0.5 * x)
        else:
            log_abs = _log_wright_rules(nu, mu, x, _wright_big_y(nu, x), tol, sign, est, regime)
    zero = x == 0.0
    if zero.any():
        at_zero = LogValue.from_float(reciprocal_gamma(mu))
        sign[zero], log_abs[zero], est[zero], regime[zero] = at_zero.sign, at_zero.log_abs, _EPS, 0
    return sign, log_abs, est, regime


def _log_wright_rules(nu, mu, x, y, tol, sign, est, regime) -> np.ndarray:
    """log|W| at the x > 0 of ``log_wright_array`` from the contour and the
    tail; fills in their sign, estimate and regime code."""
    log_abs = np.full(x.size, -math.inf)
    pos = x > 0.0
    sign[pos], est[pos], regime[pos] = 0.0, math.inf, 1
    # Above Y = 1e5 the corrected tail answers: its fitted part is 4e-10 or
    # less there, and falls like 1/Y^2.
    near = pos & (y <= 1e5)
    if near.any():
        sign[near], log_abs[near], est[near] = _wright_talbot(nu, mu, x[near], y[near], tol[near])
    # Past Y = 1e300, e^{-Y} is unrepresentably far below double underflow
    # (nu near 1 sends Y astronomical already at moderate x): an exact zero
    # at working precision.
    gone = pos & ~(y < 1e300)
    missed = pos & ~gone & ~(est <= tol)
    if missed.any():
        tail = missed & (y >= 12.0)
        if tail.any():
            try:
                tail_log, tail_est = _corrected_tail(nu, mu, y[tail])
            except NonConvergence:  # no fit: the tail cannot answer
                tail[:] = False
        if tail.any():
            # Against the contour, whose estimate holds its rounding, so does
            # the tail's.
            yt = y[tail]
            tail_est = np.where(yt <= 1e5, tail_est + _tail_rounding(nu, yt), tail_est)
            wins = tail_est < np.minimum(est[tail], 1.0)
            at = np.flatnonzero(tail)[wins]
            sign[at], log_abs[at], est[at], regime[at] = 1.0, tail_log[wins], tail_est[wins], 2
            missed[at] = False
        # A contour estimate of 1 or more leaves not even the sign.
        lost = missed & ~(est < 1.0)
        sign[lost], log_abs[lost], est[lost] = 0.0, -math.inf, math.inf
    sign[gone], est[gone], regime[gone] = 0.0, 1e-14, 2
    return log_abs


def _corrected_tail(nu: float, mu: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log W_{-nu,mu} from the corrected tail at an array of Y >= 12, and
    the fitted corrections' error (at least 1e-14; inf where the value is
    not positive).  Raises NonConvergence where no fit is found."""
    (a1, a2, a3, a4), (b2, b3, b4) = _wright_tail_correction(nu, mu)
    h = 1.0 / y
    corr = 1.0 + h * (a1 + h * (a2 + h * (a3 + h * a4)))
    est = np.where(corr > 0.0, np.maximum(h * h * (b2 + h * (b3 + h * b4)), 1e-14), math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        return _log_wright_lead(nu, mu, y) + np.log(corr), est


def _tail_rounding(nu: float, y):
    """The rounding of the tail's log|W| = -Y + ... by forming Y out of x,
    for a float or an array Y; the contour cancels its e^{-Y} exactly."""
    return _EPS * y * (2.0 * np.abs(np.log(y / (1.0 - nu))) + 2.0)


def _log_wright(
    nu: float, mu: float, x: float, tol: float = 1e-9
) -> tuple[LogValue, float, Regime, int]:
    """Signed log of W_{-nu,mu}(-x) for one x >= 0, with a relative-error
    estimate: the one-node view of ``log_wright_array``.  Returns (signed
    log, estimate, regime, terms summed), one term at x = 0 and none
    elsewhere; raises NonConvergence where no regime answers.
    """
    if x < 0:
        raise DomainError("_log_wright expects x >= 0")
    sign, log_abs, est, regime = log_wright_array(nu, mu, np.array([float(x)]), tol)
    if est[0] == math.inf:
        y = float(_wright_big_y(nu, x))
        raise NonConvergence(f"no trustworthy regime for W_(-{nu},{mu})(-{x}): Y = {y:.3g}")
    return (LogValue.from_log(float(log_abs[0]), int(sign[0])), float(est[0]),
            _WRIGHT_REGIMES[regime[0]], 1 if x == 0.0 else 0)


# The relative tolerance ``wright_neg`` asks of ``_log_wright``.
_WRIGHT_NEG_TOL = 1e-10


def wright_neg(nu: float, mu: float, z: float) -> EvalResult:
    """W_{-nu,mu}(z) for z <= 0, from ``_log_wright`` at tolerance 1e-10.

    For mu = 1 - nu and z < 0 the value is the (strictly positive)
    subordination density.  The bound is ``_eval_result``'s; the far tail
    uses the constant A0(nu, mu) with 1/Y corrections.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must be in (0,1), got {nu}")
    if not math.isfinite(z):
        raise DomainError(f"wright_neg requires finite z, got {z}")
    if z > 0.0:
        raise DomainError("wright_neg requires z <= 0")
    return _eval_result(*_log_wright(nu, mu, -z, tol=_WRIGHT_NEG_TOL))


# ---------------------------------------------------------------------------
# Mittag-Leffler


@functools.lru_cache(maxsize=32)
def _bridge_rule(alpha: float, mu: float):
    """Nodes s and weights times W_{-a,mu}(-s) of a fixed rule for
    integral_0^inf e^{z s} W_{-a,mu}(-s) ds.

    The Laplace-Wright integral of E_{a,mu+a}(z): verify's cross-check of
    the Mittag-Leffler evaluation against the Wright evaluator, kept out of
    ``mittag_leffler`` itself.  The Wright factor does not depend on z, so
    the 64 equal K31 panels over [0, S] (with Y(S) = 50, i.e. W below
    e^{-50}) and their Wright values are built once per (alpha, mu).
    """
    s_end = (50.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    edges = np.linspace(0.0, s_end, 65)
    ss, ww = (x.ravel() for x in kronrod_panels(edges[:-1], edges[1:]))
    # Deep-tail nodes are e^{-Y} down in relative weight, so their own
    # tolerance can relax accordingly.
    y = np.minimum(_wright_big_y(alpha, ss), 40.0)
    tol = np.maximum(np.minimum(1e-2, 1e-9 * np.exp(y)), 1e-11)
    sign, log_abs, est, _ = log_wright_array(alpha, mu, ss, tol)
    if np.any(est == math.inf):
        raise NonConvergence(f"no trustworthy regime for W_(-{alpha},{mu}) at a bridge node")
    return ss, ww * sign * np.exp(log_abs)


# The trapezoid rule on the hyperbola s(u) = mu (1 + sin(iu - 1.1721)) with
# h = 1.0818/N and mu = 4.492 N (Weideman & Trefethen, Math. Comp. 76, 2007;
# Garrappa, SIAM J. Numer. Anal. 53, 2015 for Mittag-Leffler functions).
# Nodes at -u are the conjugates of those at u, so the midpoints
# u = (k + 1/2) h, k = 0..N carry the whole sum; none lies on the real axis
# (|Im s| >= 0.94), where a pole of the transform could meet it.  The N = 16
# rule answers; its distance from the N = 12 rule is the discretisation
# estimate.
_HYPERBOLA_PHASE = 1.1721


def _hyperbola_rule(n: int):
    """s at u = (k + 1/2) h, k = 0..n, the weights e^{s} s'(u) h/(2 pi i)
    doubled for the conjugate node left out, and |s'(u)|."""
    h = 1.0818 / n
    mu = 4.492 * n
    w = 1j * h * (np.arange(n + 1) + 0.5) - _HYPERBOLA_PHASE
    s = mu * (1.0 + np.sin(w))
    ds = mu * np.cos(w)
    return s, np.exp(s) * ds * (h / math.pi), np.abs(ds)


# Both rules share one array of nodes, the fine rule's first.
_ML_FINE, _ML_COARSE = _hyperbola_rule(16), _hyperbola_rule(12)
_ML_S = np.concatenate([_ML_FINE[0], _ML_COARSE[0]])
_ML_LOG_S = np.log(_ML_S)
# eps e^{max Re s}: the rounding of the fine sum per unit of max |F s'|.
_ML_ROUNDING = _EPS * math.exp(float(_ML_FINE[0].real.max()))

# Pole p = z^{1/a} from which its residue is subtracted: the residue form
# answers where p^{max(1, b-1)} >= _POLE_SPLIT, the raw rule below (the pole
# lies inside the contour).  For b > 1, R = p^{1-b}/a grows without bound as
# p -> 0, and subtracting R/(s - p) cancels as R/E grows.  At b <= 2 the two
# rules' estimates cross near p = 0.025 and both stay under 6e-10 |E| on
# either side; for b > 2 the split 0.025^{1/(b-1)} (0.16 at b = 3, 0.40 at
# b = 5) keeps a R <= 40, as at b = 2, near where the estimates cross.
_POLE_SPLIT = 0.025

# Arguments per (z x nodes) matrix of the hyperbola rule: 256 x 30 complex
# entries, 120 KB.
_ML_CHUNK = 256

# Largest exponent whose exp() is a finite double.
_LOG_MAX = math.log(sys.float_info.max)


def _ml_contour(alpha: float, beta: float, z: np.ndarray, p=None,
                residue=None) -> tuple[np.ndarray, np.ndarray]:
    """The hyperbola rule for (1/2 pi i) int e^s (F(s) - R/(s - p)) ds with
    F(s) = s^{a-b}/(s^a - z), and an absolute error estimate, at every z
    of an array (p and R = ``residue`` per z; R = 0 without them).

    F's one principal-sheet pole is p = z^{1/a} for z > 0.  With its residue
    R subtracted the integrand is analytic at p, so the sum is E_{a,b}(z)
    minus R e^p wherever p lies; with R = 0 (no subtraction) it is E_{a,b}(z)
    itself when F has no pole right of the contour, which holds for z < 0 at
    a < 1 and for p below the vertex.  The estimate is the distance between
    the two rules plus eps e^{max Re s} max (|F| + |R/(s - p)|) |s'|.  The
    powers s^a and s^{a-b} are formed once per call, and the z go through
    one (z x nodes) matrix per _ML_CHUNK of them.
    """
    s_ab, s_a = np.exp((alpha - beta) * _ML_LOG_S), np.exp(alpha * _ML_LOG_S)
    abs_ds, n_fine = _ML_FINE[2], _ML_FINE[0].size
    fine, est = np.empty(z.size), np.empty(z.size)
    for lo in range(0, z.size, _ML_CHUNK):
        part = slice(lo, lo + _ML_CHUNK)
        f = s_ab / (s_a - z[part, None])
        size = np.abs(f[:, :n_fine])
        if residue is not None:
            pole = residue[part, None] / (_ML_S - p[part, None])
            size += np.abs(pole[:, :n_fine])
            f -= pole
        # Row sums, not a matrix product: a value does not depend on the
        # other arguments of its call.
        fine[part] = (f[:, :n_fine] * _ML_FINE[1]).real.sum(axis=1)
        coarse = (f[:, n_fine:] * _ML_COARSE[1]).real.sum(axis=1)
        rounding = _ML_ROUNDING * np.max(size * abs_ds, axis=1)
        est[part] = np.maximum(np.abs(fine[part] - coarse) + rounding, math.ulp(0.0))
    return fine, est


# The regimes of ``log_mittag_leffler_array``, indexed by its regime codes.
_ML_REGIMES = (Regime.TAYLOR_SERIES, Regime.QUADRATURE, Regime.ASYMPTOTIC_POS)


def log_mittag_leffler_array(
    alpha: float, beta: float, z
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed log of E_{a,b}(z) at every node of the array z, with
    relative-error estimates: the one Mittag-Leffler evaluator, behind
    ``mittag_leffler``, ``log_mittag_leffler`` and the fourier1d integrand.

    Closed forms answer at z = 0 and at a = 1 (e^z for b = 1, and
    1F1(1; b; z)/Gamma(b) for z < 0); the hyperbola rule elsewhere, at b = a
    and z < -1 as E_{a,0}(z)/z, whose 1/z terms do not cancel.  For z > 0
    with p = z^{1/a} past the split (p^{max(1, b-1)} >= _POLE_SPLIT) the log
    is log(R e^p) + log1p(c/(R e^p)), R = p^{1-b}/a and c the rule's sum for
    F - R/(s - p), with p formed from log z (z^{1/a} overflows at moderate z
    for small a) and eps R e^p (4 + (p + |1-b|)(1 + |log p|)) added to the
    estimate for its rounding.  Where R e^p leaves double range c (below
    e^{-p} R e^p) is not computed; where its log does, log|E| = inf.
    Returns the arrays (sign, log|E|, estimate, regime code), the codes
    indexing _ML_REGIMES: closed forms count as series, the rule as
    ``QUADRATURE``, a value past double range as ``ASYMPTOTIC_POS``.  A
    node's values do not depend on the other nodes of the call.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    z = np.asarray(z, dtype=float).ravel()
    if not np.isfinite(z).all():
        raise DomainError(f"the Mittag-Leffler evaluator requires finite z, got "
                          f"{z[~np.isfinite(z)][0]}")
    sign, est, regime = np.ones(z.size), np.full(z.size, _EPS), np.zeros(z.size, dtype=int)
    if alpha == 1.0 and beta == 1.0:
        regime[z > _LOG_MAX] = 2
        return sign, z.copy(), est, regime
    log_abs = np.zeros(z.size)
    at = np.flatnonzero(z)
    if at.size < z.size:
        at_zero = LogValue.from_float(reciprocal_gamma(beta))
        sign[z == 0.0], log_abs[z == 0.0] = at_zero.sign, at_zero.log_abs
    if alpha == 1.0:
        # E_{1,b}(z) = 1F1(1; b; z)/Gamma(b).  At 30 digits the double is
        # correctly rounded, so 4 ulps bound it.
        import mpmath  # imported here: no other path needs its import time

        with mpmath.workdps(30):
            for k in at[z[at] < 0.0]:
                e = LogValue.from_float(float(mpmath.hyp1f1(1, beta, z[k]) * mpmath.rgamma(beta)))
                sign[k], log_abs[k], est[k] = e.sign, e.log_abs, 4.0 * _EPS
        at = at[z[at] > 0.0]
    regime[at] = 1
    past = z[at] > 0.0
    log_p = np.log(z[at[past]]) / alpha
    split = log_p * max(1.0, beta - 1.0) >= math.log(_POLE_SPLIT)
    past[past] = split  # now true past the split only
    raw, past, log_p = at[~past], at[past], log_p[split]
    below = z[raw] < -1.0 if beta == alpha else np.zeros(raw.size, dtype=bool)
    with np.errstate(divide="ignore"):
        for b, nodes in ((beta, raw[~below]), (0.0, raw[below])):
            if nodes.size:
                c, c_est = _ml_contour(alpha, b, z[nodes])
                if b != beta:  # E_{a,a}(z) = E_{a,0}(z)/z
                    c, c_est = c / z[nodes], c_est / -z[nodes]
                sign[nodes], log_abs[nodes], est[nodes] = np.sign(c), np.log(np.abs(c)), c_est / np.abs(c)
    if not past.size:
        return sign, log_abs, est, regime
    p = np.where(log_p > _LOG_MAX, math.inf, np.exp(np.minimum(log_p, _LOG_MAX)))
    log_lead = p + (1.0 - beta) * log_p - math.log(alpha)
    c, c_est = np.zeros(past.size), np.zeros(past.size)
    fit = log_lead <= _LOG_MAX
    c[fit], c_est[fit] = _ml_contour(alpha, beta, z[past[fit]], p[fit], np.exp(log_lead[fit] - p[fit]))
    ratio = c * np.exp(-log_lead)
    log_e = log_lead + np.log1p(ratio)
    rounding = _EPS * (4.0 + (p + abs(1.0 - beta)) * (1.0 + np.abs(log_p)))
    log_abs[past], est[past] = log_e, (c_est * np.exp(-log_lead) + rounding) / (1.0 + ratio)
    regime[past[log_e > _LOG_MAX]] = 2
    return sign, log_abs, est, regime


def mittag_leffler(alpha: float, beta: float, z: float) -> EvalResult:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) on the real line: the
    float view of ``log_mittag_leffler_array``, inf beyond double range."""
    sign, log_abs, est, regime = log_mittag_leffler_array(alpha, beta, np.array([float(z)]))
    return _eval_result(LogValue.from_log(float(log_abs[0]), int(sign[0])), float(est[0]),
                        _ML_REGIMES[regime[0]], 1 if z == 0.0 else 0)


def mittag_leffler_deriv(alpha: float, z: float) -> EvalResult:
    """d/dz E_a(z) = (1/a) E_{a,a}(z)."""
    inner = mittag_leffler(alpha, alpha, z)
    return EvalResult(inner.value / alpha, inner.abs_error_bound / alpha, inner.terms_used,
                      inner.regime)


def _log_mittag_leffler_points(alpha: float, zs) -> list[LogValue | FracFrontError]:
    """log E_a(z) at each finite z of zs from one ``log_mittag_leffler_array``
    call at b = 1, or the error a ``log_mittag_leffler`` call at that z
    raises: DomainError where z is not finite or log E_a(z) itself leaves
    double range."""
    zs = [float(z) for z in zs]
    finite = [j for j, z in enumerate(zs) if math.isfinite(z)]
    sign, log_abs, _, _ = log_mittag_leffler_array(alpha, 1.0, np.array([zs[j] for j in finite]))
    values: list[LogValue | FracFrontError] = [
        DomainError(f"the Mittag-Leffler evaluator requires finite z, got {z}") for z in zs]
    for j, s, v in zip(finite, sign.tolist(), log_abs.tolist()):
        if v == math.inf:
            values[j] = DomainError(f"log E_{alpha}(z) exceeds double range at z = {zs[j]}")
        elif s != 1.0:  # numerically impossible for a in (0,1]; keep honest
            values[j] = NonConvergence(f"non-positive Mittag-Leffler value at z = {zs[j]}")
        else:
            values[j] = LogValue(1, v)
    return values


def log_mittag_leffler(alpha: float, z: float) -> LogValue:
    """log E_a(z) for finite z: the one-point view of
    ``_log_mittag_leffler_points``."""
    (value,) = _log_mittag_leffler_points(alpha, [z])
    if isinstance(value, FracFrontError):
        raise value
    return value


# ---------------------------------------------------------------------------
# incomplete gamma and scalar constants


def gamma_upper_incomplete(s: float, x: float) -> float:
    """Upper incomplete gamma integral over (x, infinity); any real s for x > 0."""
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    if not x >= 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    import mpmath  # imported here: no other path needs its import time

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
