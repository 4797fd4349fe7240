import math

from pytest import approx, mark, raises

from fracfront.errors import DomainError
from fracfront.fourier1d import (
    _segment_integral_log,
    a0_lower_bound,
    a1_upper_bound,
    a_coefficient,
    solution_at_origin,
    solution_series,
    theorem17_comparator,
)
from fracfront.kernels import FracParams, classical_solution
from fracfront.subordination import QuadratureSpec, subordinate


class TestCoefficients:
    @mark.parametrize("rho", [1.0, 1.5, 2.0])
    def test_positive_and_decreasing(self, rho):
        a = [a_coefficient(k, 0.5, rho, 1.0, 3.0) for k in range(5)]
        assert all(v > 0.0 for v in a)
        # Monotonicity is guaranteed from k = 1 on; the k = 0 term is the
        # half-width segment and only satisfies 2 a_0 > a_1.
        assert all(b < c for c, b in zip(a[1:], a[2:]))
        assert 2.0 * a[0] > a[1]

    def test_factor_beyond_double_range(self):
        # At t = 800, alpha = 0.3 the factor E_a(t^a (1 - xi^2)) passes
        # e^{690} while its argument is still below 25; the segment stays
        # in log space.
        seg = _segment_integral_log(0.3, 2.0, 800.0, 1.0, 0.0, 0.01)
        assert seg.sign == 1
        assert seg.log_abs == approx(796.60, abs=0.01)

    def test_domain_errors(self):
        with raises(DomainError):
            a_coefficient(0, 1.0, 1.0, 1.0, 1.0)
        with raises(DomainError):
            a_coefficient(0, 0.5, 0.8, 1.0, 1.0)
        with raises(DomainError):
            a_coefficient(0, 0.5, 1.0, 1.0, 0.0)
        with raises(DomainError):
            a_coefficient(0, 0.5, 1.0, -1.0, 1.0)


class TestSolutionSeries:
    @mark.parametrize(
        "alpha,t,x", [(0.4, 1.0, 2.0), (0.5, 2.0, 1.0), (0.8, 1.0, 3.0)]
    )
    def test_agrees_with_subordination(self, alpha, t, x):
        series = solution_series(alpha, 1.0, t, x, 1e-8)
        sub = subordinate(FracParams(alpha, 1.0, 1), t, x).to_float()
        assert series.value == approx(sub, rel=1e-3)

    def test_error_bound_honest(self):
        loose = solution_series(0.5, 1.5, 1.0, 2.0, 1e-4)
        tight = solution_series(0.5, 1.5, 1.0, 2.0, 1e-9)
        assert abs(loose.value - tight.value) <= loose.abs_error_bound + 1e-9

    def test_classical_limit(self):
        got = solution_series(0.999, 1.0, 1.0, 1.0, 1e-8)
        want = classical_solution(FracParams(1.0, 1.0, 1), 1.0, 1.0).to_float()
        assert got.value == approx(want, rel=5e-3)

    def test_domain_errors(self):
        with raises(DomainError):
            solution_series(1.0, 1.0, 1.0, 1.0, 1e-6)
        with raises(DomainError):
            solution_series(0.5, 1.0, 1.0, 1.0, 0.0)


class TestSolutionAtOrigin:
    @mark.parametrize("alpha,t", [(0.4, 1.0), (0.5, 2.0), (0.8, 5.0)])
    def test_agrees_with_subordination(self, alpha, t):
        # The reported bound covers the distance to a 1e-9 subordination
        # value (rel_tol 1e-10 would push the Wright factor past its reach).
        got = solution_at_origin(alpha, 1.0, t)
        spec = QuadratureSpec(rel_tol=1e-9)
        sub = subordinate(FracParams(alpha, 1.0, 1), t, 0.0, spec).to_float()
        assert abs(got.value - sub) <= got.abs_error_bound

    def test_dominates_off_origin_values(self):
        center = solution_at_origin(0.5, 1.5, 1.0).value
        off = solution_series(0.5, 1.5, 1.0, 1.0, 1e-8).value
        assert center > abs(off)


class TestAnalyticBounds:
    @mark.parametrize("x", [6.0, 10.0, 20.0])
    def test_a0_lower_bound_holds(self, x):
        a0 = a_coefficient(0, 0.5, 1.5, 10.0, x)
        assert a0_lower_bound(2, 0.5, 1.5, 10.0, x) <= a0

    @mark.parametrize("x", [6.0, 10.0, 20.0])
    def test_a1_upper_bound_holds(self, x):
        a1 = a_coefficient(1, 0.5, 1.5, 10.0, x)
        assert a1 <= a1_upper_bound(2, 0.5, 1.5, 10.0, x)

    def test_cutoff_validation(self):
        with raises(DomainError):
            a0_lower_bound(2, 0.5, 1.5, 10.0, 6.0, ell=2.0)
        with raises(DomainError):
            a1_upper_bound(2, 0.5, 1.5, 10.0, 1.0)


class TestComparator:
    def test_positive_and_increasing_in_time(self):
        vals = [theorem17_comparator(2, 0.5, 1.5, 1.0, 0.25, t) for t in (10.0, 20.0, 30.0)]
        assert all(v.sign == 1 for v in vals)
        assert all(b.log_abs > a.log_abs for a, b in zip(vals, vals[1:]))

    @mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time(self, t):
        with raises(DomainError):
            theorem17_comparator(2, 0.5, 1.5, 1.0, 0.25, t)

    def test_beta_range_enforced(self):
        with raises(DomainError):
            theorem17_comparator(2, 0.5, 1.5, 1.0, 0.5, 10.0)
        with raises(DomainError):
            theorem17_comparator(2, 0.5, 1.5, 0.0, 0.25, 10.0)
