import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises
from scipy.special import erfcx, gamma as sp_gamma

from fracfront import specfun
from fracfront.errors import DomainError
from fracfront.specfun import (
    EvalPolicy,
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
        assert mittag_leffler(0.5, 1.0, -1.0).regime is Regime.TAYLOR_SERIES
        assert mittag_leffler(0.5, 1.0, -40.0).regime is Regime.ASYMPTOTIC_NEG
        assert mittag_leffler(0.5, 1.0, -15.0).regime is Regime.QUADRATURE

    def test_overflow_reports_infinity(self):
        res = mittag_leffler(0.3, 1.0, 10.0)
        assert res.value == math.inf
        assert res.regime is Regime.ASYMPTOTIC_POS

    def test_zero_argument(self):
        res = mittag_leffler(0.4, 2.0, 0.0)
        assert res.value == approx(1.0 / sp_gamma(2.0), rel=1e-14)

    @mark.parametrize("alpha,beta", [(0.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_domain_errors(self, alpha, beta):
        with raises(DomainError):
            mittag_leffler(alpha, beta, 1.0)

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


class TestLogWrightTail:
    def test_leading_term_within_five_percent(self):
        # nu = 1/2 is where the leading constant is exact; at z = -10 the
        # first correction term is ~1/Y ~ 2%.
        z = -10.0
        lv = log_wright_tail(0.5, 0.5, z)
        want = wright_neg(0.5, 0.5, z).value
        assert lv.to_float() == approx(want, rel=0.05)

    def test_rejects_small_saddle(self):
        with raises(DomainError):
            log_wright_tail(0.5, 0.5, -0.1)
        with raises(DomainError):
            log_wright_tail(0.5, 0.5, 1.0)
        with raises(DomainError):
            log_wright_tail(1.5, 0.5, -10.0)


def _x_at_saddle(nu: float, y: float) -> float:
    """The x at which W_{-nu,mu}(-x) has saddle variable Y = y."""
    return (y / (1.0 - nu)) ** (1.0 - nu) / nu ** nu


class TestSeriesGates:
    """The negative-axis series run only when they can meet their tolerance."""

    def test_gated_points_sum_no_series(self, monkeypatch):
        nu, mu = 0.6, 0.4
        x = _x_at_saddle(nu, 30.0)
        talbot = specfun._wright_talbot(nu, mu, x)

        def no_series(*args, **kwargs):
            raise AssertionError("a series was summed at a point its gate rejects")

        monkeypatch.setattr(specfun, "_kahan_series", no_series)
        assert specfun._log_wright(nu, mu, x) == talbot
        res = mittag_leffler(0.7, 1.0, -40.0)
        assert res.regime is Regime.ASYMPTOTIC_NEG
        assert 0.0 < res.value < 1.0

    # Every point a gate rejects must be one its series would have failed:
    # that is what keeps values, regimes and term counts unchanged.
    @seed(3)
    @settings(max_examples=500, deadline=None, database=None)
    @given(
        nu=st.floats(0.1, 0.95, exclude_min=True, exclude_max=True),
        mu=st.floats(0.0, 1.0),
        y=st.floats(0.0, 60.0, exclude_min=True),
        log10_tol=st.floats(-11.0, -2.0),
    )
    def test_wright_gate_is_conservative(self, nu, mu, y, log10_tol):
        tol = 10.0 ** log10_tol
        x = _x_at_saddle(nu, y)
        if specfun._wright_series_hopeless(specfun._wright_big_y(nu, x), tol):
            assert specfun._wright_series(nu, mu, x, tol) is None

    @seed(3)
    @settings(max_examples=500, deadline=None, database=None)
    @given(
        alpha=st.floats(0.1, 1.0, exclude_min=True, exclude_max=True),
        beta_choice=st.sampled_from(["one", "alpha", "three-halves"]),
        log_abs_z=st.floats(math.log(1e-3), math.log(60.0)),
        log10_tol=st.floats(-11.0, -2.0),
    )
    def test_ml_gate_is_conservative(self, alpha, beta_choice, log_abs_z, log10_tol):
        # z in [-60, 0), log-uniform: the gate's edge lies at |z| ~ 1-30.
        z = -math.exp(log_abs_z)
        beta = {"one": 1.0, "alpha": alpha, "three-halves": 1.5}[beta_choice]
        policy = EvalPolicy(target_tol=10.0 ** log10_tol)
        if specfun._ml_series_hopeless(alpha, beta, z, policy):
            assert specfun._ml_series(alpha, beta, z, policy) is None


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
