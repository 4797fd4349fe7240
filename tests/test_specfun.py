import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx, mark, raises
from scipy.special import erfcx, gamma as sp_gamma

from fracfront import specfun
from fracfront.errors import DomainError, FracFrontError, NonConvergence
from fracfront.specfun import (
    Regime,
    dottie,
    gamma_alpha,
    gamma_upper_incomplete,
    log_mittag_leffler,
    log_wright_tail,
    m_alpha,
    mittag_leffler,
    mittag_leffler_deriv,
    ml_estimate_rhs,
    reciprocal_gamma,
    wright_neg,
)


def _ml_half_oracle(z: float) -> float:
    # E_{1/2,1}(z) = e^{z^2} erfc(-z); erfcx keeps it finite for any z.
    if z <= 0.0:
        return float(erfcx(-z))
    return float(2.0 * math.exp(z * z) - erfcx(z))


class TestMittagLeffler:
    def test_exponential_special_case(self):
        for z in (-2.0, -0.5, 0.0, 1.0, 3.0):
            res = mittag_leffler(1.0, 1.0, z)
            assert res.value == approx(math.exp(z), rel=1e-12)

    def test_frozen_point(self):
        assert mittag_leffler(0.5, 1.0, 1.0).value == approx(
            5.008980080762283, rel=1e-12
        )

    @mark.parametrize("z", np.linspace(-5.0, 3.0, 41).tolist())
    def test_half_order_against_erfc(self, z):
        res = mittag_leffler(0.5, 1.0, z)
        want = _ml_half_oracle(z)
        assert res.value == approx(want, rel=1e-8)
        # The reported bound must cover the actual error.
        assert abs(res.value - want) <= max(res.abs_error_bound, 1e-15 * abs(want))

    @mark.parametrize("z", [-50.0, -30.0, -18.0, -12.0, -6.0, -1.0, 0.5, 2.0])
    def test_half_order_all_regimes(self, z):
        res = mittag_leffler(0.5, 1.0, z)
        assert res.value == approx(_ml_half_oracle(z), rel=1e-7)

    def test_regime_selection(self):
        # One contour rule for the whole real line at alpha < 1; the positive
        # axis adds the residue of the transform's pole.
        for z in (-1.0, -15.0, -40.0, 1.0, 20.0):
            assert mittag_leffler(0.5, 1.0, z).regime is Regime.QUADRATURE
        # e^{z^2} at z = 30 is past double range.
        assert mittag_leffler(0.5, 1.0, 30.0).regime is Regime.ASYMPTOTIC_POS

    def test_overflow_reports_infinity(self):
        # At alpha = 0.05, z = 1e20 the pole z^{1/alpha} = 1e400 itself is
        # past double range.
        for alpha, z in ((0.3, 10.0), (0.05, 1e20)):
            res = mittag_leffler(alpha, 1.0, z)
            assert res.value == math.inf
            assert res.regime is Regime.ASYMPTOTIC_POS

    def test_exponential_overflow_reports_infinity(self):
        # e^710 is past double range; math.exp would raise OverflowError.
        res = mittag_leffler(1.0, 1.0, 710.0)
        assert res.value == math.inf
        assert res.regime is Regime.ASYMPTOTIC_POS

    def test_zero_argument(self):
        res = mittag_leffler(0.4, 2.0, 0.0)
        assert res.value == approx(1.0 / sp_gamma(2.0), rel=1e-14)

    @mark.parametrize("alpha,beta", [(0.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_domain_errors(self, alpha, beta):
        with raises(DomainError):
            mittag_leffler(alpha, beta, 1.0)

    @mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument(self, z):
        with raises(DomainError):
            mittag_leffler(0.5, 1.0, z)
        for alpha in (0.5, 1.0):
            with raises(DomainError):
                log_mittag_leffler(alpha, z)

    @mark.parametrize("z", [-1000.0, -1e6])
    def test_exponential_underflow_keeps_a_bound(self, z):
        # e^z underflows to 0 here; the bound must still be positive.
        res = mittag_leffler(1.0, 1.0, z)
        assert res.value == 0.0
        assert 0.0 < res.abs_error_bound
        assert math.exp(z) <= res.abs_error_bound

    @mark.parametrize("z", [-20.0, -24.9, -12.0, -30.0, -1e4])
    def test_alpha_one_closed_form(self, z):
        # E_{1,2}(z) = (e^z - 1)/z.  The contour rule needs alpha < 1 (at
        # alpha = 1 the transform has a pole at s = z), and the inverse-power
        # sum (1/|z| here) misses e^z/z.
        res = mittag_leffler(1.0, 2.0, z)
        assert math.isfinite(res.value)
        assert 0.0 < res.abs_error_bound
        assert abs(res.value - math.expm1(z) / z) <= res.abs_error_bound

    @mark.parametrize("z", [-20.0, -24.9, -12.0, -30.0])
    def test_alpha_one_against_reference(self, z):
        # The defining series sum z^n / Gamma(n + 1/2) at 50 digits; its
        # largest term is ~e^{|z|}, far inside that precision.
        res = mittag_leffler(1.0, 0.5, z)
        with mpmath.workdps(50):
            want = mpmath.fsum(
                mpmath.mpf(z) ** n * mpmath.rgamma(n + mpmath.mpf(0.5))
                for n in range(200)
            )
            assert abs(mpmath.mpf(res.value) - want) <= res.abs_error_bound

    @mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_positive_and_increasing_on_real_line(self, alpha):
        grid = np.linspace(-30.0, 5.0, 36)
        vals = [mittag_leffler(alpha, 1.0, float(z)).value for z in grid]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @mark.parametrize("z", [-2.0, -1.0, -0.5])
    def test_derivative_relation(self, alpha, z):
        h = 1e-5
        fd = (
            mittag_leffler(alpha, 1.0, z + h).value
            - mittag_leffler(alpha, 1.0, z - h).value
        ) / (2.0 * h)
        assert mittag_leffler_deriv(alpha, z).value == approx(fd, rel=1e-6)


class TestLogMittagLeffler:
    def test_matches_linear_value_in_range(self):
        for alpha, z in ((0.5, 2.0), (0.7, -3.0), (0.4, 0.5)):
            lv = log_mittag_leffler(alpha, z)
            assert lv.sign == 1
            assert lv.log_abs == approx(
                math.log(mittag_leffler(alpha, 1.0, z).value), rel=1e-9
            )

    def test_beyond_double_range(self):
        # E_{1/2}(z) = e^{z^2} erfc(-z) -> 2 e^{z^2}, so the log is z^2 + log 2.
        lv = log_mittag_leffler(0.5, 40.0)
        assert lv.log_abs == approx(1600.0 + math.log(2.0), abs=1e-6)
        # z^{1/a} - log a up to e^{-z^{1/a}}, with z^{1/a} = 1e200.
        lv = log_mittag_leffler(0.05, 1e10)
        assert lv.sign == 1
        assert lv.log_abs == approx(1e200, rel=1e-13)

    def test_out_of_double_range_raises(self):
        # log E_a(z) ~ z^{1/a} = 1e400 leaves double range.
        with raises(FracFrontError):
            log_mittag_leffler(0.05, 1e20)

    def test_classical_case(self):
        assert log_mittag_leffler(1.0, -7.5).log_abs == approx(-7.5, abs=1e-15)


class TestWright:
    def test_frozen_density_point(self):
        # W_{-1/2,1/2}(-1) = e^{-1/4}/sqrt(pi).
        assert wright_neg(0.5, 0.5, -1.0).value == approx(
            0.4393912894677224, rel=1e-12
        )

    @mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 12.0])
    def test_half_order_closed_forms(self, x):
        gauss = math.exp(-0.25 * x * x) / math.sqrt(math.pi)
        assert wright_neg(0.5, 0.5, -x).value == approx(gauss, rel=1e-10)
        assert wright_neg(0.5, 0.0, -x).value == approx(0.5 * x * gauss, rel=1e-10)

    def test_far_tail_against_closed_form(self):
        x = 20.0
        want = math.exp(-100.0) / math.sqrt(math.pi)
        assert wright_neg(0.5, 0.5, -x).value == approx(want, rel=1e-5)

    @mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_density_positive_and_eventually_decreasing(self, alpha):
        # Stop before the stretched-exponential decay underflows doubles
        # (around r = 14 already for alpha = 0.7).
        rs = np.linspace(2.0, 10.0, 17)
        vals = [wright_neg(alpha, 1.0 - alpha, float(-r)).value for r in rs]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @mark.parametrize("z", [-2.0, -1.0, -0.5])
    def test_derivative_relation(self, alpha, z):
        h = 1e-5
        fd = (
            wright_neg(alpha, 1.0, z + h).value
            - wright_neg(alpha, 1.0, z - h).value
        ) / (2.0 * h)
        assert wright_neg(alpha, 1.0 - alpha, z).value == approx(fd, rel=1e-6)

    def test_value_at_zero(self):
        assert wright_neg(0.4, 0.6, 0.0).value == approx(
            reciprocal_gamma(0.6), rel=1e-14
        )

    def test_domain_errors(self):
        with raises(DomainError):
            wright_neg(1.2, 0.5, -1.0)
        with raises(DomainError):
            wright_neg(0.5, 0.5, 1.0)
        for z in (math.nan, -math.inf):
            with raises(DomainError):
                wright_neg(0.5, 0.5, z)


def _x_at_saddle(nu: float, y: float) -> float:
    """The x at which W_{-nu,mu}(-x) has saddle variable Y = y."""
    return (y / (1.0 - nu)) ** (1.0 - nu) / nu ** nu


def _wright_reference(nu: float, mu: float, x: float) -> mpmath.mpf:
    """W_{-nu,mu}(-x) by its defining series at 30 + Y digits.

    The series cancels down from terms near e^{Y} to a value near e^{-Y},
    so Y extra digits keep about 30 of them.
    """
    y = (1.0 - nu) * (nu ** nu * x) ** (1.0 / (1.0 - nu))
    with mpmath.workdps(30 + int(y)):
        nu, mu, x = mpmath.mpf(nu), mpmath.mpf(mu), mpmath.mpf(x)
        total, power, n, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        # Stop after three terms in a row below working precision; a single
        # one can be a zero of 1/Gamma.
        while small < 3:
            term = power * mpmath.rgamma(mu - nu * n)
            total += term
            small = small + 1 if n > 8 and abs(term) < mpmath.eps * abs(total) else 0
            n += 1
            power *= -x / n
        return +total


def _wright_contour_reference(nu: float, mu: float, x: float) -> mpmath.mpf:
    """W_{-nu,mu}(-x) from its Hankel integral at 20 digits.

    (1/2 pi i) int s^{-mu} e^{s - x s^nu} ds on the Talbot path
    s = r theta (cot theta + i) through the saddle r = (nu x)^{1/(1-nu)}
    (at least 1), by mpmath's adaptive tanh-sinh rule split around the
    saddle peak.  The phase is shifted by Y, so the value's e^{-Y} costs no
    digits; this serves where the series needs hundreds of digits or, near
    nu = 1, hundreds of thousands of terms.
    """
    with mpmath.workdps(20):
        nu, mu, x = mpmath.mpf(nu), mpmath.mpf(mu), mpmath.mpf(x)
        saddle = (nu * x) ** (1 / (1 - nu))
        r = max(saddle, mpmath.mpf(1))
        y = (1 - nu) / nu * saddle

        def integrand(theta):
            if theta == 0:
                s, ds = r, 1j * r
            else:
                cot = mpmath.cot(theta)
                s = r * theta * (cot + 1j)
                ds = r * (cot - theta / mpmath.sin(theta) ** 2 + 1j)
            return mpmath.im(mpmath.exp(s - x * s ** nu + y) * s ** (-mu) * ds)

        width = 1 / mpmath.sqrt(1 + y)
        splits = [width * k for k in (0.5, 1, 2, 4, 8) if width * k < 3]
        return mpmath.quad(integrand, [0, *splits, mpmath.pi]) / mpmath.pi * mpmath.exp(-y)


def _wright_reference_any(nu: float, mu: float, x: float) -> mpmath.mpf:
    """The series reference where it is cheap, the contour one elsewhere."""
    y = (1.0 - nu) * (nu ** nu * x) ** (1.0 / (1.0 - nu))
    if y <= 60.0 and nu <= 0.95:
        return _wright_reference(nu, mu, x)
    return _wright_contour_reference(nu, mu, x)


def _wright_probe_points():
    rng = np.random.default_rng(2008)
    points = []
    for _ in range(135):
        nu, mu = rng.uniform(0.1, 0.95), rng.uniform(0.0, 1.5)
        y = math.exp(rng.uniform(math.log(0.1), math.log(60.0)))
        points.append((float(nu), float(mu), _x_at_saddle(nu, y)))
    # Near nu = 1 at Y < 1: slow decay along the contour, and no tail applies.
    points.append((0.933, 0.986, 1.27))
    # Y log-uniform in [1e-3, 300] with nu up to 0.99 and mu down to -1/2.
    rng = np.random.default_rng(2026)
    for _ in range(90):
        nu, mu = rng.uniform(0.05, 0.99), rng.uniform(-0.5, 1.5)
        y = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        points.append((float(nu), float(mu), _x_at_saddle(nu, y)))
    # mu = 0 at Y < 1e-2: W is ~ x there, far below its parts.
    for _ in range(6):
        nu, y = rng.uniform(0.05, 0.99), math.exp(rng.uniform(math.log(1e-3), math.log(1e-2)))
        points.append((float(nu), 0.0, _x_at_saddle(nu, y)))
    points += [(0.3, 0.0, 1e-8), (0.7, 0.0, 1e-8), (0.9, 0.0, 1e-6)]
    # nu = 0.99 across the Y range alpha = 0.99 subordination asks for, and
    # nu near 1 at x < 1, where Y is 1e-7 down to an underflowed 0 but the
    # integrand decays slowly along the contour.
    for i, y in enumerate(np.geomspace(1e-3, 1e3, 13)):
        points.append((0.99, (-0.5, 0.01, 0.5, 1.0, 1.5)[i % 5], _x_at_saddle(0.99, y)))
    for nu in (0.99, 0.995):
        for x in (0.02, 0.4, 0.9):
            points.append((nu, 1.0 - nu, x))
    return points


class TestWrightDifferential:
    """wright_neg and _log_wright against mpmath references over the
    documented domain."""

    def test_bound_covers_error(self):
        failures = []
        for nu, mu, x in _wright_probe_points():
            ref = _wright_reference_any(nu, mu, x)
            try:
                res = wright_neg(nu, mu, -x)
            except FracFrontError as exc:
                failures.append((nu, mu, x, exc))
                continue
            err = float(abs(mpmath.mpf(res.value) - ref))
            if not (res.abs_error_bound > 0.0 and err <= res.abs_error_bound):
                failures.append((nu, mu, x, res, err))
            # The tolerances of the bridge's deep-tail nodes, the
            # subordination weight and the tightest bridge nodes.  The
            # estimate is relative; exp() adds eps |log W| to it.
            for tol in (1e-2, 2.5e-7, 1e-11):
                lv, est, regime, _ = specfun._log_wright(nu, mu, x, tol)
                with mpmath.workdps(40):
                    rel = float(abs(lv.sign * mpmath.exp(lv.log_abs) - ref) / abs(ref))
                allowed = est + 2.0 ** -52 * abs(lv.log_abs)
                if not (est > 0.0 and rel <= allowed):
                    failures.append((nu, mu, x, tol, regime, rel, est))
        assert failures == []

    def test_contour_reference_matches_series(self):
        for nu, mu, y in ((0.3, 0.0, 0.01), (0.7, 1.3, 1.0), (0.95, -0.4, 20.0)):
            x = _x_at_saddle(nu, y)
            series = _wright_reference(nu, mu, x)
            contour = _wright_contour_reference(nu, mu, x)
            assert abs(contour - series) <= 1e-18 * abs(series)


def _assert_same_as_scalar(nu, mu, xs, tol):
    """log_wright_array at xs equals _log_wright node by node."""
    sign, log_abs, est, regime = specfun.log_wright_array(nu, mu, np.asarray(xs), tol)
    for k, x in enumerate(xs):
        if est[k] == math.inf:
            with raises(NonConvergence):
                specfun._log_wright(nu, mu, x, tol)
            continue
        lv, e, reg, _ = specfun._log_wright(nu, mu, x, tol)
        assert (lv.sign, reg) == (sign[k], specfun._WRIGHT_REGIMES[regime[k]]), (nu, mu, x)
        assert lv.log_abs == approx(log_abs[k], rel=1e-14, abs=1e-14), (nu, mu, x)
        assert e == approx(est[k], rel=1e-12), (nu, mu, x)


class TestArrayEvaluators:
    """The array forms agree node by node with their one-point views."""

    @mark.parametrize("size", [1, specfun._WRIGHT_CHUNK, specfun._WRIGHT_CHUNK + 1])
    def test_wright_array_matches_scalar(self, size):
        points = _wright_probe_points()
        ys = [float(specfun._wright_big_y(nu, x)) for nu, _, x in points]
        for start in range(0, len(points), 40):
            nu, mu, _ = points[start]
            batch = [ys[(start + k) % len(ys)] for k in range(size)]
            xs = [_x_at_saddle(nu, y) for y in batch]
            for tol in (2.5e-7, 1e-11):
                _assert_same_as_scalar(nu, mu, xs, tol)

    def test_wright_array_mixes_regimes(self):
        nu, mu = 0.7, 0.3
        xs = [0.0, _x_at_saddle(nu, 0.5), _x_at_saddle(nu, 40.0), _x_at_saddle(nu, 2e5),
              _x_at_saddle(nu, 1e8), 1e100, 0.0, _x_at_saddle(nu, 3.0)]
        sign, log_abs, est, regime = specfun.log_wright_array(nu, mu, np.array(xs), 1e-9)
        assert float(specfun._wright_big_y(nu, 1e100)) > 1e300
        assert [specfun._WRIGHT_REGIMES[k] for k in regime] == [
            Regime.TAYLOR_SERIES, Regime.QUADRATURE, Regime.QUADRATURE, Regime.ASYMPTOTIC_NEG,
            Regime.ASYMPTOTIC_NEG, Regime.ASYMPTOTIC_NEG, Regime.TAYLOR_SERIES, Regime.QUADRATURE]
        assert sign[5] == 0.0 and log_abs[5] == -math.inf
        _assert_same_as_scalar(nu, mu, xs, 1e-9)
        # mu = 0: W(0) = 1/Gamma(0) is an exact zero.
        _assert_same_as_scalar(0.4, 0.0, [0.0, 1.0, 0.0], 1e-9)

    def test_log_ml_array_matches_scalar(self):
        for alpha in (0.3, 0.75, 1.0):
            # z = 0, p = z^{1/a} 1e-9 either side of the residue split, both
            # axes, and an argument whose E_a leaves double range.
            p_split = specfun._POLE_SPLIT
            zs = [0.0, (p_split - 1e-9) ** alpha, (p_split + 1e-9) ** alpha, -40.0, -0.3,
                  2.0, 30.0 ** alpha * 40.0]
            sign, log_abs, _, _ = specfun.log_mittag_leffler_array(alpha, 1.0, np.array(zs))
            assert np.all(sign == 1.0)
            for z, got in zip(zs, log_abs):
                assert log_mittag_leffler(alpha, z).log_abs == approx(got, rel=1e-14, abs=1e-15)
            assert log_abs[0] == 0.0
            # The raw rule and the residue form meet at the split: a 2e-9
            # step in p moves log E_a by a few 1e-9 (up to 1.2e-8 here).
            assert abs(log_abs[2] - log_abs[1]) < 1e-7
            if alpha == 1.0:
                assert log_abs.tolist() == zs

    @mark.parametrize("alpha", [0.4, 0.8, 1.0])
    @mark.parametrize("beta", ["alpha", 1.0, 2.5])
    def test_log_ml_array_nodes_are_independent(self, alpha, beta):
        # Every branch in one call (z = 0, E_{a,0}(z)/z at beta = alpha,
        # the raw rule, the residue form, overflow, the a = 1 closed forms)
        # gives each node what a call with that node alone gives.
        beta = alpha if beta == "alpha" else beta
        zs = np.array([0.0, -30.0, -0.5, 1e-4, 0.8, 3.0, 700.0, -2.0])
        whole = specfun.log_mittag_leffler_array(alpha, beta, zs)
        for k, z in enumerate(zs):
            alone = specfun.log_mittag_leffler_array(alpha, beta, np.array([z]))
            assert [a[0] for a in alone] == [w[k] for w in whole], z

    @mark.parametrize("nu, mu", [(0.5, 0.5), (0.5, 0.0), (0.3, 0.7), (0.6, 0.4), (0.85, 0.15)])
    @mark.parametrize("tol", [1e-3, 2.5e-7])
    def test_log_wright_array_nodes_are_independent(self, nu, mu, tol):
        # Every branch in one call (x = 0, the nu = 1/2 closed forms, the
        # contour at squeeze classes j = 0..3, the tail past Y = 1e5 and the
        # exact zero past Y = 1e300) gives each node what a call with that
        # node alone gives.
        ys = np.array([0.01, 1.0, 10.0, 40.0, 150.0, 600.0, 2e5, 1e7, 1e302])
        xs = np.concatenate([[0.0], (ys / (1.0 - nu)) ** (1.0 - nu) / nu ** nu])
        whole = specfun.log_wright_array(nu, mu, xs, tol)
        if nu != 0.5:
            classes = np.ceil(0.5 * np.log2(ys[ys <= 1e5]) - 2.0).clip(0)
            assert set(classes.tolist()) == {0, 1, 2, 3}
            assert set(whole[3].tolist()) == {0, 1, 2}
            assert whole[0][-1] == 0.0 and whole[2][-1] == 1e-14  # past Y = 1e300
        for k, x in enumerate(xs):
            alone = specfun.log_wright_array(nu, mu, np.array([x]), tol)
            assert [a[0] for a in alone] == [w[k] for w in whole], x

    def test_log_ml_array_out_of_range_raises(self):
        # log E leaves double range: an infinite log, reported as past it.
        _, log_abs, _, regime = specfun.log_mittag_leffler_array(0.05, 1.0, np.array([1.0, 1e20]))
        assert log_abs[1] == math.inf and specfun._ML_REGIMES[regime[1]] is Regime.ASYMPTOTIC_POS
        with raises(DomainError):
            specfun.log_mittag_leffler_array(0.5, 1.0, np.array([1.0, math.inf]))


def _ml_laplace_reference(alpha: float, beta: float, z: float) -> mpmath.mpf:
    """E_{a,b}(z), z < 0: Talbot inversion of s^{a-b}/(s^a - z) at t = 1.

    For a < 1 and z < 0 the transform has no pole on the principal sheet,
    and the Talbot contour encloses the branch cut.
    """
    with mpmath.workdps(45):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return mpmath.invertlaplace(
            lambda s: s ** (a - b) / (s ** a - zz), 1, method="talbot"
        )


def _ml_series_reference(alpha: float, beta: float, z: float) -> mpmath.mpf:
    """E_{a,b}(z), z > 0, by its defining series.

    Every term is positive, so nothing cancels and 30 digits keep about 30;
    the summation runs past the peak term near k ~ z^{1/a}/a until three
    terms in a row fall below 1e-35 of the sum.
    """
    with mpmath.workdps(30):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        log_z = mpmath.log(zz)
        total, k, small = mpmath.mpf(0), 0, 0
        while small < 3:
            term = mpmath.exp(k * log_z - mpmath.loggamma(a * k + b))
            total += term
            small = small + 1 if term < mpmath.mpf(10) ** -35 * total else 0
            k += 1
        return total


def _ml_probe_points(sign: float, count: int, seed_value: int):
    """Seeded (alpha, beta, z) with alpha in (0.05, 1), beta cycling through
    {alpha, 1/2, 1, 3/2} and |z| log-uniform in [1e-3, 1e6]; on the positive
    axis |z| stops at the overflow edge z^{1/alpha} = 690."""
    rng = np.random.default_rng(seed_value)
    points = []
    for i in range(count):
        alpha = float(rng.uniform(0.05, 1.0))
        beta = (alpha, 0.5, 1.0, 1.5)[i % 4]
        top = 1e6 if sign < 0 else min(1e6, 690.0 ** alpha)
        z = float(math.exp(rng.uniform(math.log(1e-3), math.log(top))))
        points.append((alpha, beta, sign * z))
    return points


class TestMittagLefflerDifferential:
    """mittag_leffler's bound against high-precision references on both axes."""

    @staticmethod
    def _breaches(points, reference, rel_bound=math.inf, rel_error=math.inf):
        """Points whose bound misses the error, whose error exceeds
        ``rel_error`` |reference|, or whose bound exceeds ``rel_bound`` |value|
        where beta <= 2."""
        breaches = []
        for alpha, beta, z in points:
            try:
                res = mittag_leffler(alpha, beta, z)
            except FracFrontError as exc:
                breaches.append((alpha, beta, z, exc))
                continue
            ref = reference(alpha, beta, z)
            err = float(abs(mpmath.mpf(res.value) - ref))
            if (not (0.0 < res.abs_error_bound and err <= res.abs_error_bound)
                    or err > rel_error * float(abs(ref))):
                breaches.append((alpha, beta, z, res, err))
            elif beta <= 2.0 and res.abs_error_bound > rel_bound * abs(res.value):
                breaches.append((alpha, beta, z, res))
        return breaches

    def test_negative_axis_bound_covers_error(self):
        # Where the inverse-power expansion used to break its bound.
        known_bad = [(0.969, 1.0, -30.0), (0.999, 1.0, -80.0)]
        points = _ml_probe_points(-1.0, 120, 2015) + known_bad
        assert self._breaches(points, _ml_laplace_reference) == []

    def test_positive_axis_bound_covers_error(self):
        # Poles p = z^{1/alpha} on the real-axis vertices s = 4.492 N (1 -
        # sin 1.1721) of the N = 16 and N = 12 hyperbolas and 1e-9 to either
        # side, where a node at u = 0 would meet the pole; poles just either
        # side of the split below which no residue is subtracted; alpha = 1
        # off beta = 1, where the transform has a pole and no branch cut
        # (beta = 2) or both.  For beta > 2, R = p^{1-b}/a far exceeds E at
        # small p and the residue form cancels, so the split must move up
        # with beta: seeded p log-uniform in [1e-4, 600] at beta in
        # {5/2, 3, 5}, poles either side of the beta = 3 and 5 splits and
        # the former worst case (alpha, beta, p) = (0.66, 5, 0.057).  Tiny
        # z at beta > 1, where log(R e^p) itself is past double range.
        vertex = 4.492 * (1.0 - math.sin(1.1721))
        poles = [n * vertex + d for n in (16, 12) for d in (-1e-9, 0.0, 1e-9)]
        split = specfun._POLE_SPLIT
        placed = ([(alpha, beta, p ** alpha) for p in poles
                   for alpha, beta in ((0.6, 1.0), (0.85, 1.5), (0.3, 0.3))]
                  + [(0.5, beta, (split * (1.0 + d)) ** 0.5)
                     for beta in (0.5, 1.5, 3.0) for d in (-1e-9, 1e-9)]
                  + [(1.0, beta, z) for beta in (0.5, 1.5, 2.0) for z in (0.05, 3.0, 40.0, 600.0)])
        rng = np.random.default_rng(2016)
        for beta in (2.5, 3.0, 5.0):
            for _ in range(12):
                alpha = float(rng.uniform(0.05, 1.0))
                p = float(math.exp(rng.uniform(math.log(1e-4), math.log(600.0))))
                placed.append((alpha, beta, p ** alpha))
        placed += [(0.5, beta, (split ** (1.0 / (beta - 1.0)) * (1.0 + d)) ** 0.5)
                   for beta in (3.0, 5.0) for d in (-1e-9, 1e-9)]
        placed += [(0.66, 5.0, 0.057 ** 0.66), (0.05, 2.0, 1e-16), (0.2, 3.0, 1e-32),
                   (0.5, 2.0, 1e-300), (0.5, 2.0, 5e-324)]
        points = _ml_probe_points(1.0, 120, 2007) + placed
        assert self._breaches(points, _ml_series_reference,
                              rel_bound=1e-9, rel_error=1e-8) == []


class TestLogWrightTail:
    def test_leading_term_within_five_percent(self):
        # At nu = mu = 1/2 the leading term is W itself: both are
        # e^{-x^2/4}/sqrt(pi), so only rounding separates them.
        z = -10.0
        lv = log_wright_tail(0.5, 0.5, z)
        want = wright_neg(0.5, 0.5, z).value
        # abs=0: approx would otherwise accept any difference below 1e-12.
        assert lv.to_float() == approx(want, rel=1e-12, abs=0)

    @mark.parametrize("nu,mu", [(0.3, 0.7), (0.7, 0.3), (0.8, 1.0)])
    def test_leading_term_off_half_order(self, nu, mu):
        # The saddle-point constant A0(nu, mu) holds for every nu, so at
        # Y = 40 only the O(1/Y) correction separates the term from W.
        x = _x_at_saddle(nu, 40.0)
        want = _wright_reference(nu, mu, x)
        got = log_wright_tail(nu, mu, -x).to_float()
        # abs=0: approx would otherwise accept any difference below 1e-12.
        assert got == approx(float(want), rel=0.05, abs=0.0)

    def test_rejects_small_saddle(self):
        with raises(DomainError):
            log_wright_tail(0.5, 0.5, -0.1)
        with raises(DomainError):
            log_wright_tail(0.5, 0.5, 1.0)
        with raises(DomainError):
            log_wright_tail(1.5, 0.5, -10.0)
        for z in (math.nan, -math.inf):
            with raises(DomainError):
                log_wright_tail(0.5, 0.5, z)


class TestTailFit:
    """The 1/Y corrections of the tail: a1 in closed form, a2..a4 fitted
    against the Talbot rule."""

    @mark.parametrize("nu,mu,a1", [
        (0.5, 0.5, 0.0),  # W equals its leading term at nu = 1/2 ...
        (0.5, 0.0, 0.0),  # ... for mu = 1/2 and mu = 0
        (0.5, 1.0, -0.5),
        (0.999, 0.001, 0.041667),
        (0.05, 1.5, -9.7125),
    ])
    def test_a1_matches_saddle_coefficient(self, nu, mu, a1):
        assert specfun._wright_tail_correction(nu, mu)[0][0] == approx(a1, abs=1e-6)
        # (W/leading - 1) Y = a1 + a2/Y + ... on the Talbot rule, with the
        # a2/Y order cancelled between Y = 2e3 and 1e4.
        ys = np.array([2e3, 1e4])
        xs = np.array([_x_at_saddle(nu, y) for y in ys])
        ys = specfun._wright_big_y(nu, xs)
        sign, log_abs, est = specfun._wright_talbot(nu, mu, xs, ys, np.full(2, 1e-13))
        rs = np.expm1(log_abs - specfun._log_wright_lead(nu, mu, ys)) * ys
        limit = (rs[1] * ys[1] - rs[0] * ys[0]) / (ys[1] - ys[0])
        assert limit == approx(a1, rel=1e-5, abs=1e-5)

    def test_estimate_covers_error(self):
        # The corrected tail against the Talbot rule at tolerance 1e-13 over
        # Y in [12, 1e5], where the rule is the reference: the small nu and
        # the mu = 1.5 the old a1-leak estimate missed by up to 8.9x, and
        # seeded nu.  The rounding of forming Y out of x is left out of the
        # estimate by design, as is the rule's own error.
        rng = np.random.default_rng(1818)
        nus = [0.05, 0.1, *rng.uniform(0.05, 0.98, 8).tolist()]
        failures = []
        for nu in nus:
            for mu in (0.0, 0.5, 0.95, 1.0 - nu, 1.5):
                ys = 10.0 ** rng.uniform(math.log10(12.0), 5.0, 40)
                xs = np.array([_x_at_saddle(nu, y) for y in ys])
                ys = specfun._wright_big_y(nu, xs)
                _, ref, ref_est = specfun._wright_talbot(nu, mu, xs, ys, np.full(ys.size, 1e-13))
                log_abs, est = specfun._corrected_tail(nu, mu, ys)
                err = np.abs(np.expm1(log_abs - ref))
                allowed = est + ref_est + specfun._tail_rounding(nu, ys)
                for k in np.flatnonzero(~(err <= allowed)):
                    failures.append((nu, mu, ys[k], err[k], est[k], ref_est[k]))
        assert failures == []

    def test_no_mpmath_reachable_from_log_wright(self, monkeypatch):
        class NoMpmath:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.{name} reached from _log_wright")

        # specfun imports mpmath where it uses it, so the stand-in goes
        # where that import looks.
        monkeypatch.setitem(sys.modules, "mpmath", NoMpmath())
        specfun._wright_tail_correction.cache_clear()
        for nu in (0.3, 0.7, 0.999):
            for y in (1.5e5, 1e6, 1e7, 1e8):
                lv, est, regime, _ = specfun._log_wright(nu, 1.0 - nu, _x_at_saddle(nu, y))
                assert regime is Regime.ASYMPTOTIC_NEG
                assert lv.sign == 1 and 0.0 < est <= 1e-9
        assert specfun._wright_tail_correction.cache_info().misses == 3

    def test_failed_fit_leaves_no_tail(self, monkeypatch):
        def loose_talbot(nu, mu, x, y, tol):
            return np.ones(x.size), np.zeros(x.size), np.full(x.size, 1e-6)

        monkeypatch.setattr(specfun, "_wright_talbot", loose_talbot)
        with raises(NonConvergence):
            specfun._wright_tail_correction.__wrapped__(0.5, 1.0)

        def no_fit(nu, mu):
            raise NonConvergence("no fit")

        monkeypatch.setattr(specfun, "_wright_tail_correction", no_fit)
        with raises(NonConvergence):
            specfun._log_wright(0.7, 0.3, _x_at_saddle(0.7, 2e5))


class TestTalbotStop:
    """The Talbot rule stops once its estimate meets the tolerance."""

    def test_estimate_meets_tolerance_near_one(self):
        # Near nu = 1 and x < 1 the node doubling can stop with the sums
        # agreeing just inside 2.5e-7 and the rounding part on top; the
        # first x is such a point (subordination's factor at alpha = 0.999).
        xs = [0.19638337192936997, *np.linspace(0.01, 1.0, 100).tolist()]
        for nu in (0.99, 0.999, 0.9995):
            for x in xs:
                for tol in (2.5e-7, 1e-9):
                    est = specfun._log_wright(nu, 1.0 - nu, x, tol=tol)[1]
                    assert 0.0 < est <= tol, (nu, x, tol, est)


class TestMappedContour:
    """The Talbot rule with its nodes squeezed toward the saddle."""

    def test_estimate_covers_error(self):
        # Seeded nu, mu and Y = 10^U(-6, 5) at three tolerances against the
        # mpmath contour reference; exp() adds eps |log W| to the estimate.
        rng = np.random.default_rng(18)
        points = []
        for i in range(24):
            nu = float(rng.uniform(0.05, 0.98))
            points.append((nu, (1.0 - nu, 0.0, 0.5, 1.0, 1.5)[i % 5],
                           10.0 ** rng.uniform(-6.0, 5.0)))
        # Where the last two sums agree by chance before the rule resolves
        # the saddle or the contour's oscillating flank, and their
        # difference alone underestimates the error up to 18x.
        points += [(0.7599625519354745, 0.24003744806452554, 2.907039185171853),
                   (0.9174293593002681, 0.0, 1.044174118362809),
                   (0.7083756634003852, 1.5, 90645.8336565579),
                   (0.6527785568245897, 1.0, 84429.90614828472)]
        failures = []
        for nu, mu, y in points:
            x = np.array([_x_at_saddle(nu, y)])
            ref = _wright_contour_reference(nu, mu, float(x[0]))
            y = specfun._wright_big_y(nu, x)
            for tol in (1e-3, 2.5e-7, 1e-10):
                sign, log_abs, est = specfun._wright_talbot(nu, mu, x, y, np.array([tol]))
                with mpmath.workdps(40):
                    err = float(abs(sign[0] * mpmath.exp(log_abs[0]) / ref - 1))
                if not err <= est[0] + 2.0 ** -52 * abs(log_abs[0]):
                    failures.append((nu, mu, float(y[0]), tol, err, est[0]))
        assert failures == []

    def test_node_count_does_not_grow_with_y(self, monkeypatch):
        level = specfun._talbot_level
        sizes = []

        def counting(*args):
            rows = level(*args)
            sizes.append(rows.shape[1])
            return rows

        monkeypatch.setattr(specfun, "_talbot_level", counting)
        nu, mu = 0.6, 0.4
        for y, most in ((1e4, 128), (1e2, 128), (1e5, 256)):
            sizes.clear()
            x = np.array([_x_at_saddle(nu, y)])
            _, _, est = specfun._wright_talbot(
                nu, mu, x, specfun._wright_big_y(nu, x), np.array([2.5e-7]))
            assert 0.0 < est[0] <= 2.5e-7
            # Evenly spaced nodes took 1024 contour terms at Y = 1e4.
            assert sum(sizes) <= most, (y, sizes)


class TestNoNegativeAxisSeries:
    """No series is summed on the real line: the Wright function takes its
    contour rule at small and moderate Y, E_{a,b} its hyperbola rule on both
    axes."""

    def test_no_series_is_summed(self):
        assert not hasattr(specfun, "_kahan_series")
        nu, mu = 0.6, 0.4
        for y in (0.05, 3.0, 30.0):
            lv, est, regime, terms = specfun._log_wright(nu, mu, _x_at_saddle(nu, y))
            assert regime is Regime.QUADRATURE
            assert terms == 0
            assert lv.sign == 1 and 0.0 < est <= 1e-9
        for z in (-40.0, 1.0, 10.0, 30.0):
            res = mittag_leffler(0.7, 1.0, z)
            assert res.regime is Regime.QUADRATURE
            assert res.terms_used == 0
        assert 0.0 < mittag_leffler(0.7, 1.0, -40.0).value < 1.0


class TestScalarConstants:
    def test_gamma_alpha_values(self):
        assert gamma_alpha(0.5) == approx(0.25, abs=1e-15)
        assert gamma_alpha(0.75) == approx(0.10546875, abs=1e-15)

    def test_m_alpha_values(self):
        assert m_alpha(0.5) == 9
        assert m_alpha(0.75) == 3

    @given(st.floats(min_value=0.25, max_value=0.95))
    def test_m_alpha_at_least_two(self, alpha):
        assert m_alpha(alpha) >= 2

    @mark.parametrize("alpha", [0.01, 0.0175, 1e-4])
    def test_m_alpha_out_of_integer_range(self, alpha):
        # The threshold passes 2^62 near alpha = 0.018, and the power
        # itself leaves double range further down.
        with raises(DomainError):
            m_alpha(alpha)

    def test_dottie(self):
        d = dottie()
        assert abs(math.cos(d) - d) < 1e-14
        assert d == approx(0.7390851332151607, abs=1e-12)

    @given(st.integers(min_value=0, max_value=60))
    def test_reciprocal_gamma_poles_vanish(self, n):
        assert reciprocal_gamma(float(-n)) == 0.0

    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_reciprocal_gamma_positive_axis(self, x):
        assert reciprocal_gamma(x) == approx(1.0 / sp_gamma(x), rel=1e-13)

    def test_reciprocal_gamma_against_mpmath(self):
        rng = np.random.default_rng(1010)
        with mpmath.workdps(40):
            for x in rng.uniform(-170.0, 171.0, 2000).tolist():
                want = mpmath.rgamma(mpmath.mpf(x))
                assert float(abs((reciprocal_gamma(x) - want) / want)) <= 1e-14
        for n in range(171):
            assert reciprocal_gamma(float(-n)) == 0.0
        for x in (172.0, 180.5, 1e300):
            assert reciprocal_gamma(x) == 0.0
        # Gamma overflows near 0, where 1/Gamma(x) = x + O(x^2).
        for x in (1e-309, -1e-309, 5e-324, -5e-324):
            assert reciprocal_gamma(x) == x
        # Gamma underflows past about -184; 1/Gamma has the sign (-1)^ceil(-x).
        assert reciprocal_gamma(-185.5) == math.inf
        assert reciprocal_gamma(-200.5) == -math.inf
        assert mpmath.rgamma(-185.5) > 0 > mpmath.rgamma(-200.5)


class TestEstimateRhs:
    def test_sandwich_at_unit_argument(self):
        e = mittag_leffler(0.5, 1.0, 1.0).value
        assert ml_estimate_rhs("lower", 2, 0.5, 1.0) <= e
        assert e <= ml_estimate_rhs("upper", 2, 0.5, 1.0)

    @mark.parametrize("n,alpha", [(2, 0.5), (2, 0.75), (3, 0.4), (4, 0.3)])
    def test_sandwich_on_log_grid(self, n, alpha):
        # The n = 2 lower bound is an identity at alpha = 1/2, so both sides
        # agree to rounding; a few ulp of slack keeps the check meaningful.
        slack = 1e-12
        r_cap = min(50.0, 0.98 * 700.0 ** alpha)
        for r in np.geomspace(1e-2, r_cap, 40):
            e = mittag_leffler(alpha, 1.0, float(r)).value
            assert ml_estimate_rhs("lower", n, alpha, float(r)) <= e * (1.0 + slack)
            assert e <= ml_estimate_rhs("upper", n, alpha, float(r)) * (1.0 + slack)

    def test_domain_errors(self):
        with raises(DomainError):
            ml_estimate_rhs("upper", 3, 0.2, 1.0)
        with raises(DomainError):
            ml_estimate_rhs("sideways", 2, 0.5, 1.0)
        with raises(DomainError):
            ml_estimate_rhs("upper", 1, 0.5, 1.0)


class TestUpperIncompleteGamma:
    def test_integer_case(self):
        assert gamma_upper_incomplete(1.0, 3.0) == approx(math.exp(-3.0), rel=1e-12)

    @mark.parametrize("s", [-0.5, 0.5, 2.0])
    def test_asymptotic_ratio(self, s):
        # The first correction to the leading term is (s-1)/x, up to 3% here.
        x = 50.0
        ratio = gamma_upper_incomplete(s, x) / (x ** (s - 1.0) * math.exp(-x))
        assert ratio == approx(1.0, rel=0.05)
        assert ratio == approx(1.0 + (s - 1.0) / x, rel=2e-3)

    def test_domain_errors(self):
        with raises(DomainError):
            gamma_upper_incomplete(0.5, -1.0)
        with raises(DomainError):
            gamma_upper_incomplete(-0.5, 0.0)
        for s, x in ((0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with raises(DomainError):
                gamma_upper_incomplete(s, x)
