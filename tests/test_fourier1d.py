import math

from pytest import approx, mark, raises

from fracfront import fourier1d
from fracfront.errors import DomainError, NonConvergence
from fracfront.fourier1d import (
    _a_coefficients_log,
    _segment_integrals_log,
    _solution_series_log,
    a0_lower_bound,
    a1_upper_bound,
    a_coefficient,
    solution_at_origin,
    solution_series,
    theorem17_comparator,
)
from fracfront.invasion import Method, _point_log_u
from fracfront.kernels import FracParams, classical_solution
from fracfront.logvalue import LogValue, signed_log_sum
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
        seg = _segment_integrals_log(0.3, 2.0, 800.0, 1.0, [(0.0, 0.01)])[0]
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


class TestBlockedSeries:
    """The series integrates its a_k in doubling blocks, one call each."""

    @staticmethod
    def _serial(alpha, rho, t, x, tol):
        """The series one a_k (a block of one) at a time, with the stop
        rules of ``_solution_series_log``."""
        terms, k = [], 0
        while True:
            ak = _a_coefficients_log(k, 1, alpha, rho, t, x)[0]
            if ak.sign < 0 or (k >= 1 and ak.log_abs < math.log(tol * math.pi)):
                break
            terms.append(LogValue.from_log(ak.log_abs, 1 if k % 2 == 0 else -1))
            k += 1
        total, cancellation = signed_log_sum(terms)
        log_pi = math.log(math.pi)
        return (LogValue(total.sign, total.log_abs - log_pi),
                LogValue.from_log(ak.log_abs - log_pi), len(terms), cancellation)

    # Blocks start at a_0, a_2, a_6, a_14, a_30, a_62, ...; these series
    # stop at a_1, a_3, a_36 and a_44, inside a block.
    @mark.parametrize("alpha,rho,t,x,tol", [(0.5, 1.5, 1.0, 2.0, 0.1),
                                            (0.5, 1.5, 1.0, 2.0, 0.005),
                                            (0.5, 1.5, 1.0, 2.0, 1e-6),
                                            (0.7, 2.0, 0.5, 1.0, 1e-9)])
    def test_equals_serial_loop(self, alpha, rho, t, x, tol):
        got = _solution_series_log(alpha, rho, t, x, tol)
        assert got[2] not in (0, 2, 6, 14, 30, 62)
        assert got == self._serial(alpha, rho, t, x, tol)

    def test_small_t_point_takes_few_evaluator_calls(self, monkeypatch):
        # 5 713 terms at rho = 1: one Mittag-Leffler call per segment would
        # make more than 5 713 calls; blocks of up to 64 segments make 94.
        exact, calls = fourier1d.log_mittag_leffler_array, []

        def counting(alpha, beta, z):
            calls.append(z.size)
            return exact(alpha, beta, z)

        monkeypatch.setattr(fourier1d, "log_mittag_leffler_array", counting)
        (got,) = _point_log_u(FracParams(0.5, 1.0, 1), [0.361], [0.346], Method.FOURIER1D)
        assert got.sign == 1
        assert len(calls) <= 100

    def test_loose_node_raises(self, monkeypatch):
        exact = fourier1d.log_mittag_leffler_array

        def one_loose_node(alpha, beta, z):
            sign, log_abs, est, regime = exact(alpha, beta, z)
            est = est.copy()
            est[z.size // 2] = 1e-3
            return sign, log_abs, est, regime

        monkeypatch.setattr(fourier1d, "log_mittag_leffler_array", one_loose_node)
        with raises(NonConvergence, match="estimate 0.001"):
            solution_series(0.5, 1.5, 1.0, 2.0, 1e-6)
        with raises(NonConvergence):
            a_coefficient(3, 0.5, 1.5, 1.0, 2.0)
        with raises(NonConvergence):
            solution_at_origin(0.5, 1.5, 1.0)


class TestSolutionAtOrigin:
    @mark.parametrize("alpha,t", [(0.4, 1.0), (0.5, 2.0), (0.8, 5.0), (0.5, 0.001),
                                  (0.5, 0.01), (0.4, 0.001), (0.7, 0.001)])
    def test_agrees_with_subordination(self, alpha, t):
        # The reported bound covers the distance to a 1e-9 subordination
        # value (rel_tol 1e-10 would push the Wright factor past its reach).
        # At small t the tail beyond xi = 1e6 is most of that distance.
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
