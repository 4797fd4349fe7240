import math

import mpmath as mp
import numpy as np
from pytest import approx, mark, raises
from scipy.integrate import quad

from fracfront.errors import DomainError, QuadratureFailure, Unsupported
from fracfront.invasion import thresholds
from fracfront.kernels import (
    FracParams,
    _f_transform,
    classical_solution,
    exact_kernel,
    f_bound,
    kernel,
    log_kernel,
    stable_envelope,
)
from fracfront.logvalue import LogValue
from fracfront.subordination import subordinate_envelope


class TestFracParams:
    def test_valid(self):
        p = FracParams(0.5, 1.5, 2)
        assert (p.alpha, p.rho, p.dim) == (0.5, 1.5, 2)

    @mark.parametrize(
        "alpha,rho,dim",
        [(0.0, 1.0, 1), (1.1, 1.0, 1), (0.5, 0.0, 1), (0.5, -1.0, 1), (0.5, 1.0, 0)],
    )
    def test_invalid(self, alpha, rho, dim):
        with raises(DomainError):
            FracParams(alpha, rho, dim)

    @mark.parametrize("dim", [1.5, 2.0, True, "2", math.inf])
    def test_dim_must_be_an_integer(self, dim):
        with raises(DomainError):
            FracParams(0.5, 1.0, dim)

    @mark.parametrize("call", [
        lambda: kernel(1.0, 0, 1, 1),
        lambda: kernel(1.0, 1.5, 1, 1),
        lambda: kernel(0.5, -2, 1, 1),
        lambda: kernel(1.0, True, 1, 1),
        lambda: stable_envelope(0.3, 1, 1, 0),
        lambda: subordinate_envelope(0.5, 0.3, 1.5, 2, 1),
        lambda: thresholds(0.5, 1, 2.5),
    ], ids=["kernel-d0", "kernel-d1.5", "kernel-d-2", "kernel-dTrue", "envelope-d0",
            "subordinate_envelope-d1.5", "thresholds-d2.5"])
    def test_bare_dimension_checked(self, call):
        # The entry points that take a bare d check it as FracParams does.
        with raises(DomainError):
            call()


class TestGaussian:
    def test_closed_form_point(self):
        lv = kernel(1.0, 1, 1.0, 0.0)
        assert lv.to_float() == approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)

    @mark.parametrize("t,d", [(0.5, 1), (2.0, 1), (1.0, 2), (3.0, 3)])
    def test_unit_mass(self, t, d):
        # Radial integral: surface area of S^{d-1} times r^{d-1} weight.
        area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        mass, _ = quad(
            lambda r: area * r ** (d - 1) * kernel(1.0, d, t, r).to_float(),
            0.0,
            np.inf,
        )
        assert mass == approx(1.0, rel=1e-9)

    def test_domain_errors(self):
        with raises(DomainError):
            kernel(1.0, 1, 0.0, 1.0)
        with raises(DomainError):
            kernel(1.0, 1, 1.0, -1.0)


class TestCauchy:
    def test_closed_form_point(self):
        assert kernel(0.5, 1, 2.0, 0.0).to_float() == approx(
            1.0 / (2.0 * math.pi), rel=1e-14
        )

    @mark.parametrize("t,d", [(0.5, 1), (1.0, 1), (1.0, 2)])
    def test_unit_mass(self, t, d):
        area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        mass, _ = quad(
            lambda r: area * r ** (d - 1) * kernel(0.5, d, t, r).to_float(),
            0.0,
            np.inf,
        )
        assert mass == approx(1.0, rel=1e-9)

    def test_huge_radius_stays_finite(self):
        lv = kernel(0.5, 1, 1.0, 1e200)
        assert lv.sign == 1
        assert lv.log_abs == approx(math.log(1.0 / math.pi) - 2.0 * math.log(1e200))


class TestStableEnvelope:
    def test_order_and_cauchy_bracketing(self):
        # For rho = 1/2 the envelope shape equals the Poisson kernel up to
        # the constant 1/pi, so constants straddling 1/pi must bracket it.
        for t, r in ((0.5, 0.0), (1.0, 2.0), (3.0, 10.0)):
            shape = stable_envelope(0.5, t, r, 1)
            true = kernel(0.5, 1, t, r)
            assert shape.sign == true.sign == 1
            assert shape.log_abs + math.log(0.31) <= true.log_abs <= shape.log_abs + math.log(0.33)

    @mark.parametrize("r", [1e160, 1e300])
    def test_radius_past_squared_overflow(self, r):
        # r^2 leaves double range past r ~ 1.3e154; the shape stays finite.
        for rho, t, d in ((0.7, 2.0, 1), (0.3, 0.5, 3)):
            with mp.workdps(30):
                want = float(mp.log(t) - (d + 2 * mp.mpf(rho)) / 2
                             * mp.log(mp.mpf(r) ** 2 + mp.mpf(t) ** (1 / mp.mpf(rho))))
            got = stable_envelope(rho, t, r, d)
            assert got.sign == 1 and got.log_abs == approx(want, rel=1e-14, abs=0)

    def test_rejects_rho_outside_unit_interval(self):
        # No evaluator for this rho: the error type of the exact-kernel table.
        with raises(Unsupported):
            stable_envelope(1.0, 1.0, 1.0, 1)
        with raises(Unsupported):
            stable_envelope(1.5, 1.0, 1.0, 1)


def _f_reference(rho, ys):
    """F(y) at 30 digits at every y of a list, split at the half periods
    (j + 1/2) pi / y of the cosine: tanh-sinh on the first piece, where
    s^{2 rho} is not smooth at 0, and 24-point Gauss-Legendre on the others,
    which are analytic; the tail past exp(-s^{2 rho}) = e^{-50} is dropped."""
    with mp.workdps(30):
        rho = mp.mpf(rho)
        s_max = mp.mpf(50) ** (1 / (2 * rho))
        nodes, weights = mp.gauss_quadrature(24, "legendre")
        out = []
        for y in map(mp.mpf, ys):
            f = lambda s: mp.exp(-s ** (2 * rho)) * mp.cos(s * y)
            ends = [] if y == 0 else [(j + mp.mpf(0.5)) * mp.pi / y
                                      for j in range(int(s_max * y / mp.pi + 0.5) + 1)]
            ends = [e for e in ends if e < s_max] + [s_max]
            total = mp.quad(f, [0, ends[0]])
            for a, b in zip(ends, ends[1:]):
                mid, half = (a + b) / 2, (b - a) / 2
                total += half * mp.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))
            out.append(float(total / mp.pi))
        return out


class TestHigherOrderKernel:
    @mark.parametrize("t", [0.5, 1.0, 4.0])
    @mark.parametrize("x", [0.0, 0.7, 2.0, 5.0])
    def test_rho_one_reduces_to_gaussian(self, t, x):
        # The cosine transform of the rho > 1 kernels, taken at rho = 1.
        scale = t ** -0.5
        k = scale * _f_transform(1.0, [scale * x])[0]
        g = kernel(1.0, 1, t, x)
        assert g.sign == 1
        assert k == approx(g.to_float(), rel=1e-8)

    def test_sign_change_for_rho_above_one(self):
        signs = {kernel(1.5, 1, 1.0, x).sign for x in np.linspace(0, 8, 33)}
        assert 1 in signs and -1 in signs

    def test_self_similar_scaling(self):
        # k(t, x) = t^{-1/(2 rho)} F(t^{-1/(2 rho)} x): compare t = 1 vs 16.
        rho, t = 1.5, 16.0
        scale = t ** (-1.0 / (2.0 * rho))
        for x in (0.5, 1.3, 3.0):
            a = kernel(rho, 1, t, x).to_float()
            b = scale * kernel(rho, 1, 1.0, scale * x).to_float()
            assert a == approx(b, rel=1e-9, abs=1e-12)

    def test_unit_mass(self):
        mass, _ = quad(
            lambda x: kernel(1.5, 1, 1.0, x).to_float(),
            0.0,
            60.0,
            limit=400,
        )
        assert 2.0 * mass == approx(1.0, abs=1e-5)

    @mark.parametrize("rho, tol", [(1.05, 1e-12), (1.25, 1e-12), (1.5, 1e-15), (2.0, 1e-15),
                                   (3.0, 1e-15)])
    def test_transform_matches_mpmath(self, rho, tol):
        ys = [0.0, 0.4, 1.3, 3.1, 7.5, 17.0, 38.0, 80.0]
        assert np.abs(_f_transform(rho, ys) - _f_reference(rho, ys)).max() <= tol

    @mark.parametrize("y", [1e6, 1e20, 1e300, 1.7e308, math.inf, math.nan])
    def test_segment_guard_at_huge_arguments(self, y):
        # Past 200 000 panels the transform fails at once, also where the
        # panel count is past integer range.
        with raises(QuadratureFailure, match="did not terminate"):
            _f_transform(1.5, [0.5, y])

    def test_domain_errors(self):
        with raises(Unsupported):
            kernel(0.9, 1, 1.0, 1.0)
        with raises(DomainError):
            kernel(1.5, 1, 0.0, 1.0)


class TestFBound:
    def test_domain_errors(self):
        with raises(DomainError):
            f_bound(1.0, 1.0, 2.0, 1.0)
        with raises(DomainError):
            f_bound(1.5, 1.0, 0.5, 1.0)
        with raises(DomainError):
            f_bound(1.5, 1.0, 2.0, 0.0)

    def test_dominates_transform_for_rho_two(self):
        # Fit (k, omega) on |y| <= 3, then verify dominance further out.
        rho = 2.0
        p = 2.0 * rho / (2.0 * rho - 1.0)
        fit_y = np.linspace(0.25, 3.0, 12)
        fit_f = np.array(
            [abs(kernel(rho, 1, 1.0, y).to_float()) for y in fit_y]
        )
        # Slope of log|F| against y^p gives omega; intercept gives log K.
        slope, intercept = np.polyfit(fit_y ** p, np.log(fit_f), 1)
        omega = -0.8 * slope
        k_const = max(2.0, 4.0 * math.exp(intercept))
        for y in np.linspace(3.0, 6.0, 13):
            f = abs(kernel(rho, 1, 1.0, float(y)).to_float())
            assert f <= f_bound(rho, float(y), k_const, omega)


class TestExactKernelTable:
    @mark.parametrize("rho,d,exact", [
        (1.0, 1, True), (1.0, 3, True), (0.5, 1, True), (0.5, 2, True), (1.5, 1, True),
        (3.0, 1, True), (0.3, 1, False), (0.7, 2, False), (1.5, 2, False), (2.0, 3, False),
    ])
    def test_one_table(self, rho, d, exact):
        # The predicate, the array evaluator and its scalar view agree.
        assert exact_kernel(rho, d) is exact
        if exact:
            sign, log_abs = log_kernel(rho, d, np.array([2.0]), 0.5)
            assert kernel(rho, d, 2.0, 0.5) == LogValue.from_log(log_abs[0], int(sign[0]))
        else:
            with raises(Unsupported):
                log_kernel(rho, d, np.array([2.0]), 0.5)
            with raises(Unsupported):
                kernel(rho, d, 2.0, 0.5)


    @mark.parametrize("rho, d", [(1.0, 1), (1.0, 3), (0.5, 1), (0.5, 2), (1.5, 1)])
    def test_radius_per_node_equals_scalar_radius(self, rho, d):
        # One r per s gives each s what a call with that r alone gives, bit
        # for bit, as the batched subordination integrands rely on.
        s = np.geomspace(1e-3, 1e3, 9)
        rs = [0.0, 0.3, 1.0, 5.0, 40.0, 300.0]
        sign, log_abs = log_kernel(rho, d, np.tile(s, len(rs)), np.repeat(rs, s.size))
        for k, r in enumerate(rs):
            alone = log_kernel(rho, d, s, r)
            part = slice(k * s.size, (k + 1) * s.size)
            assert sign[part].tolist() == alone[0].tolist(), r
            assert log_abs[part].tolist() == alone[1].tolist(), r


class TestClassicalSolution:
    def test_gaussian_case_exact(self):
        lv = classical_solution(FracParams(1.0, 1.0, 1), 1.0, 0.0)
        assert lv.log_abs == approx(1.0 - 0.5 * math.log(4.0 * math.pi), abs=1e-14)

    def test_cauchy_case_exact(self):
        lv = classical_solution(FracParams(1.0, 0.5, 1), 1.0, 0.0)
        assert lv.log_abs == approx(1.0 + math.log(1.0 / math.pi), abs=1e-14)

    def test_higher_order_case(self):
        lv = classical_solution(FracParams(1.0, 2.0, 1), 2.0, 1.0)
        want = kernel(2.0, 1, 2.0, 1.0)
        assert lv.log_abs == approx(want.log_abs + 2.0, abs=1e-12)

    def test_stable_case_is_unsupported(self):
        # Off the exact-kernel table: the envelope shape is not the kernel.
        with raises(Unsupported):
            classical_solution(FracParams(1.0, 0.3, 2), 1.0, 1.0)

    def test_rejects_fractional_alpha(self):
        with raises(DomainError):
            classical_solution(FracParams(0.5, 1.0, 1), 1.0, 0.0)

    def test_rejects_higher_order_in_higher_dimension(self):
        with raises((DomainError, Unsupported)):
            classical_solution(FracParams(1.0, 1.5, 2), 1.0, 0.0)
