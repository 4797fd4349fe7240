import itertools
import math
import random
import warnings

import mpmath as mp
import numpy as np

from pytest import approx, mark, raises

from fracfront import subordination
from fracfront.errors import DomainError, FracFrontError, NonConvergence, QuadratureFailure, Unsupported
from fracfront.fourier1d import solution_series
from fracfront.invasion import Method, ProfileKind, SpeedProfile, theta, trajectory
from fracfront.kernels import FracParams, classical_solution
from fracfront.logvalue import LogValue
from fracfront.specfun import log_mittag_leffler
from fracfront.subordination import (
    QuadratureSpec,
    subordinate,
    subordinate_envelope,
    total_mass,
)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert 0.0 < spec.rel_tol < 1.0

    def test_validation(self):
        with raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with raises(DomainError):
            QuadratureSpec(rel_tol=2.0)
        with raises(DomainError):
            QuadratureSpec(tail_cut_log=1.0)


class TestTotalMass:
    @mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_equals_mittag_leffler_of_reaction(self, alpha, t):
        mass = total_mass(alpha, t)
        want = log_mittag_leffler(alpha, t ** alpha)
        assert mass.sign == 1
        assert mass.log_abs == approx(want.log_abs, abs=1e-5 * max(1.0, abs(want.log_abs)))

    def test_rejects_classical_alpha(self):
        with raises(Unsupported):
            total_mass(1.0, 1.0)


class TestSubordinate:
    @mark.parametrize("r", [0.0, 1.0, 3.0])
    def test_positive_for_gaussian_kernel(self, r):
        lv = subordinate(FracParams(0.5, 1.0, 1), 1.0, r)
        assert lv.sign == 1
        assert math.isfinite(lv.log_abs)

    def test_decreasing_in_radius_for_cauchy_kernel(self):
        vals = [
            subordinate(FracParams(0.6, 0.5, 1), 1.0, r) for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(lv.sign == 1 for lv in vals)
        assert all(b.log_abs < a.log_abs for a, b in zip(vals, vals[1:]))

    def test_tolerance_consistency(self):
        loose = subordinate(FracParams(0.5, 1.0, 1), 2.0, 1.0, QuadratureSpec(rel_tol=1e-4))
        tight = subordinate(FracParams(0.5, 1.0, 1), 2.0, 1.0, QuadratureSpec(rel_tol=1e-8))
        assert loose.log_abs == approx(tight.log_abs, abs=1e-4)

    @mark.parametrize("alpha, rho, d, t, r, rel_tol", [
        (0.1, 0.5, 1, 2.8, 0.0217, 1e-9),
        (0.05, 1.0, 1, 0.0788, 125.5, 1e-8),
        (0.7, 0.9, 3, 0.0149, 7.9, 1e-9),
    ])
    def test_tight_tolerance_past_the_tail(self, alpha, rho, d, t, r, rel_tol):
        # A walk block reaches past the window's edge, to Wright arguments
        # where the factor misses rel_tol / 4 at these tolerances; only the
        # panel nodes are held to it.
        spec = QuadratureSpec(rel_tol=rel_tol)
        if rho == 0.9:
            tight = subordinate_envelope(alpha, rho, d, t, r, spec)
            loose = subordinate_envelope(alpha, rho, d, t, r)
        else:
            tight = subordinate(FracParams(alpha, rho, d), t, r, spec)
            loose = subordinate(FracParams(alpha, rho, d), t, r)
        assert tight.sign == loose.sign == 1
        assert tight.log_abs == approx(loose.log_abs, abs=1e-6 * max(1.0, abs(loose.log_abs)))

    def test_approaches_classical_solution_as_alpha_to_one(self):
        got = subordinate(FracParams(0.99, 1.0, 1), 1.0, 1.0)
        want = classical_solution(FracParams(1.0, 1.0, 1), 1.0, 1.0)
        assert got.log_abs == approx(want.log_abs, abs=2e-2)

    @mark.parametrize("rho, d, diverges", [
        (1.0, 2, True), (0.5, 1, True), (0.5, 2, True), (0.3, 1, True), (0.9, 2, True),
        (1.0, 1, False), (1.5, 1, False), (0.7, 1, False),
    ])
    def test_origin_diverges_when_d_at_least_two_rho(self, rho, d, diverges):
        # Near s = 0 the integrand is about s^{-d/(2 rho)} / Gamma(1 - alpha);
        # rho without an exact kernel goes through the envelope route.
        def value():
            if rho in (0.5, 1.0, 1.5):
                return subordinate(FracParams(0.8, rho, d), 3.0, 0.0)
            return subordinate_envelope(0.8, rho, d, 3.0, 0.0)

        if diverges:
            with raises(DomainError, match=r"u\(t, 0\) diverges"):
                value()
        else:
            lv = value()
            assert lv.sign == 1
            assert math.isfinite(lv.log_abs)

    @mark.parametrize("t, r", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                               (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_entry_checks(self, t, r):
        # Each entry point checks (t, r) before any integral.
        with raises(DomainError):
            subordinate(FracParams(0.5, 1.0, 1), t, r)
        with raises(DomainError):
            subordinate(FracParams(0.5, 1.5, 1), t, r)
        with raises(DomainError):
            subordinate_envelope(0.5, 0.7, 1, t, r)

    @mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_total_mass_entry_check(self, t):
        with raises(DomainError):
            total_mass(0.5, t)

    def test_unsupported_routes(self):
        with raises(Unsupported):
            subordinate(FracParams(1.0, 1.0, 1), 1.0, 1.0)
        with raises(Unsupported):
            subordinate(FracParams(0.5, 0.7, 1), 1.0, 1.0)
        with raises(Unsupported):
            subordinate(FracParams(0.5, 1.5, 2), 1.0, 1.0)

    @mark.parametrize("t", [0.01, 0.001])
    def test_known_limit_tight_tolerance_at_small_time(self, t):
        # Known limit: the Talbot estimate of W_(-0.9,0.1)(-4.33) is about
        # 3.7e-10, above the rel_tol / 4 = 2.5e-10 each panel node must meet.
        with raises(NonConvergence):
            subordinate(FracParams(0.9, 1.0, 1), t, 0.0, QuadratureSpec(rel_tol=1e-9))

    def test_known_limit_tight_tolerance_near_the_peak(self):
        # Known limit, not only at small t: near x = 4.2 the Talbot estimate
        # of W_(-0.9,0.1) is about 3.3e-10, above rel_tol / 4 = 2.5e-10.
        with raises(NonConvergence):
            subordinate(FracParams(0.9, 1.0, 1), 5.0, 5.0, QuadratureSpec(rel_tol=1e-9))

    def test_known_limit_alpha_next_to_one(self):
        # Known limit: the Wright factor has no regime at alpha = 0.99999 (its
        # tail fit fails too); a typed error, and no numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with raises(NonConvergence):
                subordinate(FracParams(0.99999, 1.0, 1), 1.0, 1.0)


def _seeded_points():
    """80 seeded (alpha, rho, t, r) points in d = 1."""
    rng = random.Random(16)
    points = []
    for _ in range(80):
        t = rng.uniform(1.0, 60.0)
        points.append((rng.uniform(0.3, 0.99), rng.choice([0.5, 1.0, 1.5]), t,
                       t * rng.uniform(0.01, 2.0)))
    return points


def test_default_tolerance_agrees_with_tight_reference():
    # The default rel_tol against rel_tol = 1e-8 at seeded points of the
    # three exact kernels; rho = 3/2 changes sign, so u may be negative.
    for alpha, rho, t, r in _seeded_points():
        got = subordinate(FracParams(alpha, rho, 1), t, r)
        want = subordinate(FracParams(alpha, rho, 1), t, r, QuadratureSpec(rel_tol=1e-8))
        assert got.sign == want.sign != 0, (alpha, rho, t, r)
        assert got.log_abs == approx(want.log_abs, rel=0, abs=1e-6), (alpha, rho, t, r)


def _near_classical_points():
    # The whole 4 x 3 (t, r) grid per alpha: the Fourier reference takes
    # 1.3 s over all 36 points (2-core machine, numpy 2.4).
    grid = itertools.product([0.5, 1.0, 2.0, 5.0], [0.25, 1.0, 3.0])
    return [(a,) + tr for tr in grid for a in (0.99, 0.999, 0.9999)]


def _closed_form_log_u(alpha, rho, d, t, r):
    """log u at alpha = 1/2 or 1/3 from closed forms alone, at 30 digits.

    The Wright factor M_a(z) = W_{-a,1-a}(-z) has a closed form at both
    (Mainardi, Mura & Pagnini, Int. J. Differ. Equ. 2010): M_{1/2}(z) =
    e^{-z^2/4} / sqrt(pi) and M_{1/3}(z) = 3^{2/3} Ai(z / 3^{1/3}).  So
    u = t^{-a} int_0^inf e^s K_s(r) M_a(s / t^a) ds with the Gaussian
    (rho = 1) or Cauchy (rho = 1/2) kernel.  Breakpoints 1/4 apart on
    [0, 200]: with breakpoints at t x {0.01, 0.1, 0.5, 1, 2, 4, ..., 64}
    alone, mpmath.quad is off by 7e-3 in log u at (t, r) = (4, 80) and
    alpha = 1/2.  Halving the spacing and reaching 300 moves no alpha = 1/2
    value by more than 1e-18.
    """
    with mp.workdps(30):
        t, r, half = mp.mpf(t), mp.mpf(r), mp.mpf(d + 1) / 2
        if rho == 1.0:
            kern = lambda s: (4 * mp.pi * s) ** (-mp.mpf(d) / 2) * mp.exp(-r * r / (4 * s))
        else:
            kern = lambda s: mp.gamma(half) / mp.pi ** half * s / (r * r + s * s) ** half
        if alpha == 0.5:
            ta, wright = mp.sqrt(t), lambda z: mp.exp(-z * z / 4) / mp.sqrt(mp.pi)
        else:
            ta, wright = mp.cbrt(t), lambda z: mp.cbrt(9) * mp.airyai(z / mp.cbrt(3))
        edges = [mp.mpf(k) / 4 for k in range(801)] + [mp.inf]
        u = mp.quad(lambda s: mp.exp(s) * kern(s) * wright(s / ta), edges) / ta
        return float(mp.log(u))


# _closed_form_log_u(1/2, rho, d, t, r) at each (t, r) by (rho, d), cached:
# about 1 s a point.
_ALPHA_HALF_LOG_U = {
    (0.5, 1): [
        (0.1, 0.05, "0.49002208299366369323"),
        (0.1, 0.2, "-0.20080388017123975045"),
        (1.0, 0.5, "-0.23403641501091840272"),
        (1.0, 2.0, "-1.09121742441101090114"),
        (5.0, 2.5, "2.25042708537962517803"),
        (5.0, 10.0, "1.49592384543117867695"),
        (20.0, 10.0, "15.8172601517075071987"),
        (20.0, 40.0, "15.1533690351472611000"),
    ],
    (0.5, 2): [
        (0.1, 0.05, "1.72015271119506008233"),
        (0.1, 0.2, "0.10167306230510388196"),
        (1.0, 0.5, "-1.22373946487063751788"),
        (1.0, 2.0, "-2.87094995925813084260"),
        (5.0, 2.5, "-0.57501860468549681446"),
        (5.0, 10.0, "-1.84443209428944208061"),
        (20.0, 10.0, "11.4502556848641452380"),
        (20.0, 40.0, "10.4271595518776999591"),
    ],
    (0.5, 3): [
        (0.1, 0.05, "3.62934744670370117365"),
        (0.1, 0.2, "0.80254775044684019322"),
        (1.0, 0.5, "-1.67809846918345782408"),
        (1.0, 2.0, "-4.35577911085446759574"),
        (5.0, 2.5, "-3.00947501866651562074"),
        (5.0, 10.0, "-4.92362787739930653410"),
        (20.0, 10.0, "7.35138107950380666391"),
        (20.0, 40.0, "5.94843081246091625798"),
    ],
    (1.0, 1): [
        (0.1, 0.0, "-0.07628187159233796678"),
        (0.1, 0.05, "-0.12507781516548133854"),
        (0.1, 0.2, "-0.27905583062861694189"),
        (1.0, 0.0, "0.18862276676441370370"),
        (1.0, 0.5, "0.04581089599941169526"),
        (1.0, 2.0, "-0.63541118913066537531"),
        (5.0, 0.0, "3.32724515328310330116"),
        (5.0, 2.5, "3.12918435263168885430"),
        (5.0, 10.0, "0.77547502322591504472"),
        (20.0, 0.0, "17.5930970051053313049"),
        (20.0, 10.0, "16.9482107544970884322"),
        (20.0, 40.0, "8.24427825297299303857"),
        (4.0, 80.0, "-80.4126366514968202473"),
    ],
    (1.0, 2): [
        (0.1, 0.05, "-0.04491090359192843637"),
        (0.1, 0.2, "-0.57946247756399040303"),
        (1.0, 0.5, "-1.25082964681304824647"),
        (1.0, 2.0, "-2.23456472634902150320"),
        (5.0, 2.5, "0.77813214731665718035"),
        (5.0, 10.0, "-1.69971116922524847224"),
        (20.0, 10.0, "13.8458194690482070853"),
        (20.0, 40.0, "5.05789797139273574559"),
    ],
    (1.0, 3): [
        (0.1, 0.05, "1.02165088035141713389"),
        (0.1, 0.2, "-0.44633265836120091363"),
        (1.0, 0.5, "-2.19396141419098822277"),
        (1.0, 2.0, "-3.74834163605164047910"),
        (5.0, 2.5, "-1.52588815628545627292"),
        (5.0, 10.0, "-4.15942810591979717235"),
        (20.0, 10.0, "10.7501556391443530817"),
        (20.0, 40.0, "1.87507688353434456375"),
    ],
}


# _closed_form_log_u(1/3, rho, d, t, r) at each (t, r) by (rho, d), cached:
# 10-70 s a point, the Airy function at 30 digits.
_ALPHA_THIRD_LOG_U = {
    (0.5, 1): [
        (0.1, 0.05, "0.407055095803270717002"),
        (0.1, 0.2, "-0.186349997399248074667"),
        (1.0, 0.5, "-0.112621203191919618860"),
        (1.0, 2.0, "-0.815654319560514285095"),
        (5.0, 2.5, "2.33995882562950719271"),
        (5.0, 10.0, "1.83219544280679567495"),
        (20.0, 10.0, "15.8624416102150795885"),
        (20.0, 40.0, "15.4848313198848556028"),
    ],
    (0.5, 2): [
        (0.1, 0.05, "1.54613274787839519676"),
        (0.1, 0.2, "-0.0400364350621033489709"),
        (1.0, 0.5, "-1.20399651740098144246"),
        (1.0, 2.0, "-2.74955070318352962248"),
        (5.0, 2.5, "-0.738893023816131306721"),
        (5.0, 10.0, "-1.69852047273156234924"),
        (20.0, 10.0, "11.1295163647806759874"),
        (20.0, 40.0, "10.5330118072241261803"),
    ],
    (0.5, 3): [
        (0.1, 0.05, "3.45845069036412634984"),
        (0.1, 0.2, "0.604937514661297621961"),
        (1.0, 0.5, "-1.65265518535420746441"),
        (1.0, 2.0, "-4.33003184098759173163"),
        (5.0, 2.5, "-3.31010430859431199320"),
        (5.0, 10.0, "-4.93755607190716360985"),
        (20.0, 10.0, "6.67838415910400966470"),
        (20.0, 40.0, "5.83827989433153128352"),
    ],
    (1.0, 1): [
        (0.1, 0.0, "-0.0640313472003794004034"),
        (0.1, 0.05, "-0.106660806495248383772"),
        (0.1, 0.2, "-0.237160650439310539461"),
        (1.0, 0.0, "0.403221612940969037845"),
        (1.0, 0.5, "0.265242505194010185125"),
        (1.0, 2.0, "-0.292794607913098525467"),
        (5.0, 0.0, "3.54816426465748911397"),
        (5.0, 2.5, "3.39979926917361716752"),
        (5.0, 10.0, "1.73633490227535631940"),
        (20.0, 0.0, "17.7991735706416648412"),
        (20.0, 10.0, "17.3628386809817040513"),
        (20.0, 40.0, "11.4563218271541839542"),
        (4.0, 80.0, "-51.0420133135182442121"),
    ],
    (1.0, 2): [
        (0.1, 0.05, "-0.155465622182819624493"),
        (0.1, 0.2, "-0.679260783181482123052"),
        (1.0, 0.5, "-1.12684567847270662096"),
        (1.0, 2.0, "-2.04053016403884498939"),
        (5.0, 2.5, "0.877740555464017407950"),
        (5.0, 10.0, "-0.922883940733790595147"),
        (20.0, 10.0, "14.0641397246709398689"),
        (20.0, 40.0, "8.07524737239520417588"),
    ],
    (1.0, 3): [
        (0.1, 0.05, "0.896913440907071819909"),
        (0.1, 0.2, "-0.590360030405918308374"),
        (1.0, 0.5, "-2.07153486038030323270"),
        (1.0, 2.0, "-3.66278478488973391336"),
        (5.0, 2.5, "-1.57278248315821621571"),
        (5.0, 10.0, "-3.55852729062702486592"),
        (20.0, 10.0, "10.7746955852012651595"),
        (20.0, 40.0, "4.69946897168499185470"),
    ],
}


class TestClosedFormOracle:
    """Against an oracle that shares no code with specfun or logvalue: the
    window walk must find every peak, also one far from log t."""

    @mark.parametrize("rho,d,t,r,want", [(rho, d, *row) for (rho, d), rows
                                         in _ALPHA_HALF_LOG_U.items() for row in rows])
    def test_agrees_at_default_spec(self, rho, d, t, r, want):
        got = subordinate(FracParams(0.5, rho, d), t, r)
        assert got.sign == 1 and abs(got.log_abs - float(want)) <= 1e-6

    @mark.parametrize("rho,d,t,r,want", [(rho, d, *row) for (rho, d), rows
                                         in _ALPHA_THIRD_LOG_U.items() for row in rows])
    def test_alpha_third_agrees_at_default_spec(self, rho, d, t, r, want):
        got = subordinate(FracParams(1.0 / 3.0, rho, d), t, r)
        assert got.sign == 1 and abs(got.log_abs - float(want)) <= 1e-6

    def test_cached_value_is_the_oracle(self):
        # The far peak: at log t + 1.89 in w, past s = 4t.
        assert _closed_form_log_u(0.5, 1.0, 1, 4.0, 80.0) == approx(
            float(_ALPHA_HALF_LOG_U[1.0, 1][-1][2]), rel=1e-15)


class TestNearClassicalAlpha:
    # Near alpha = 1 the Wright density is a cliff about ln(1e5) (1 - alpha)
    # wide in w = log s; the adaptive panels must find it without help.
    @mark.parametrize("alpha,t,r", _near_classical_points())
    def test_agrees_with_fourier_route(self, alpha, t, r):
        got = subordinate(FracParams(alpha, 1.0, 1), t, r)
        # log u lies in [-5, 3] on the grid, so 1e-9 u is a relative tolerance.
        assert got.sign == 1 and got.log_abs > -20.0
        want = solution_series(alpha, 1.0, t, r, 1e-9 * got.to_float())
        assert got.log_abs == approx(math.log(want.value), rel=0, abs=1e-8)


class TestWrightFactorEstimate:
    """A Wright factor whose estimate misses rel_tol / 4 raises."""

    def test_loose_factor_raises(self, monkeypatch):
        exact = subordination.log_wright_array

        def one_loose_node(nu, mu, x, tol):
            sign, log_abs, est, regime = exact(nu, mu, x, tol)
            if x.size > 32:  # a panel round, past the walk block
                est = est.copy()
                est[x.size // 2] = 1e-3
            return sign, log_abs, est, regime

        monkeypatch.setattr(subordination, "log_wright_array", one_loose_node)
        with raises(NonConvergence):
            subordinate(FracParams(0.5, 1.0, 1), 1.0, 1.0)
        with raises(NonConvergence):
            subordinate(FracParams(0.6, 0.5, 1), 1.0, 1.0)
        with raises(NonConvergence):
            total_mass(0.5, 1.0)
        with raises(NonConvergence):
            subordinate_envelope(0.5, 0.7, 1, 1.0, 2.0)


class TestWorkCounts:
    """The subordination integral evaluates its panel rounds as arrays."""

    def test_fixed_cell_batches_and_nodes(self, monkeypatch):
        exact = subordination.log_wright_array
        sizes = []

        def counting(nu, mu, x, tol):
            sizes.append(x.size)
            return exact(nu, mu, x, tol)

        monkeypatch.setattr(subordination, "log_wright_array", counting)
        subordinate(FracParams(0.6, 1.0, 1), 2.0, 1.5)
        # One call for the first 16-step block of both tail walks from
        # w = log t, and one panel round: 8 panels of 31 Kronrod nodes.  A
        # per-node loop over the panel nodes would make 248 more calls, and
        # a one-node peak search or walk would add size-1 calls.
        assert min(sizes) > 1
        assert sorted(sizes, reverse=True) == [248, 32]
        assert sum(sizes) == 280

    def test_trajectory_integrates_its_samples_together(self, monkeypatch):
        exact = subordination.log_wright_array
        sizes = []

        def counting(nu, mu, x, tol):
            sizes.append(x.size)
            return exact(nu, mu, x, tol)

        monkeypatch.setattr(subordination, "log_wright_array", counting)
        params, ts = FracParams(0.6, 1.0, 1), [2.0, 4.0, 8.0, 16.0]
        profile = SpeedProfile(ProfileKind.POWER, 0.75, 1.0)
        alone = []
        for t in ts:
            sizes.clear()
            alone.append((subordinate(params, t, theta(profile, t)), len(sizes), sum(sizes)))
        sizes.clear()
        samples = trajectory(params, profile, ts, Method.SUBORDINATION)
        # Each phase is one call across the samples still in it: fewer calls
        # than the samples make alone, the same nodes, the same values.
        assert len(sizes) < sum(calls for _, calls, _ in alone)
        assert sum(sizes) == sum(nodes for _, _, nodes in alone)
        assert [s.log_u for s in samples] == [value for value, _, _ in alone]  # bit for bit


    def test_failing_sample_is_not_computed_again(self, monkeypatch):
        exact, kernel = subordination.log_wright_array, subordination.log_kernel
        params, ts = FracParams(0.6, 1.0, 1), [2.0, 4.0, 8.0]
        profile = SpeedProfile(ProfileKind.POWER, 0.75, 1.0)
        sizes, bad_r = [], theta(profile, 4.0)

        def counting(nu, mu, x, tol):
            sizes.append(x.size)
            return exact(nu, mu, x, tol)

        def failing_in_panels(rho, d, s, r):
            # More than a walk block (32) of the sample at t = 4: its first
            # panel round.
            if np.sum(r == bad_r) > 32:
                raise NonConvergence("made to fail")
            return kernel(rho, d, s, r)

        monkeypatch.setattr(subordination, "log_wright_array", counting)
        monkeypatch.setattr(subordination, "log_kernel", failing_in_panels)
        alone = 0
        for t in ts:
            sizes.clear()
            try:
                subordinate(params, t, theta(profile, t))
            except NonConvergence:
                assert t == 4.0
            alone += sum(sizes)
        sizes.clear()
        samples = trajectory(params, profile, ts, Method.SUBORDINATION)
        # The sample fails in the last phase and drops out of the batch.
        # The kernel raises before the Wright factor, so no Wright node of
        # the batch is evaluated twice.
        assert [s.failure for s in samples] == [None, "made to fail", None]
        assert sum(sizes) == alone


class TestPoints:
    """``subordinate_points`` integrates its points together; each point
    gives the value, or the error, of a one-point call."""

    def test_failing_points_leave_the_others(self):
        params = FracParams(0.5, 1.5, 1)
        ts, rs = [0.1, 0.0, 10.0, 1.0], [0.5, 1.0, math.exp(50.0), 2.0]
        got = subordination.subordinate_points(params, ts, rs)
        assert [type(v) for v in got] == [LogValue, DomainError, QuadratureFailure, LogValue]
        for t, r, v in zip(ts, rs, got):
            try:
                assert v == subordinate(params, t, r)  # bit for bit
            except FracFrontError as exc:
                assert type(v) is type(exc) and str(v) == str(exc)

    def test_lengths_must_match(self):
        for ts, rs in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])):
            with raises(DomainError, match="times against"):
                subordination.subordinate_points(FracParams(0.5, 1.0, 1), ts, rs)
            with raises(DomainError, match="times against"):
                subordination.subordinate_envelope_points(0.5, 0.7, 1, ts, rs)

    def test_no_points_give_no_values(self):
        assert subordination.subordinate_points(FracParams(0.5, 1.0, 1), [], []) == []
        assert subordination.subordinate_envelope_points(0.5, 0.7, 1, [], []) == []


class TestSubordinateEnvelope:
    def test_positivity(self):
        env = subordinate_envelope(0.5, 0.7, 1, 1.0, 2.0)
        assert env.sign == 1
        assert math.isfinite(env.log_abs)

    def test_brackets_exact_cauchy_route(self):
        # rho = 1/2: the envelope shape is the Poisson kernel divided by
        # c_1 = 1/pi, so constants straddling 1/pi must bracket the exact
        # subordination value.
        exact = subordinate(FracParams(0.5, 0.5, 1), 1.0, 2.0)
        shape = subordinate_envelope(0.5, 0.5, 1, 1.0, 2.0)
        assert shape.log_abs + math.log(0.31) <= exact.log_abs <= shape.log_abs + math.log(0.33)

    def test_radius_past_squared_overflow(self):
        # Far out the shape is s / r^{d + 2 rho}, so log u + (d + 2 rho) log r
        # no longer depends on r, also where r^2 leaves double range.
        want = subordinate_envelope(0.5, 0.7, 1, 5.0, 1e100).log_abs + 2.4 * math.log(1e100)
        for r in (1e160, 1e300):
            got = subordinate_envelope(0.5, 0.7, 1, 5.0, r)
            assert got.sign == 1
            assert got.log_abs + 2.4 * math.log(r) == approx(want, rel=0, abs=1e-9)

    def test_rejects_rho_at_least_one(self):
        with raises(Unsupported):
            subordinate_envelope(0.5, 1.0, 1, 1.0, 1.0)

    @mark.parametrize("alpha", [1.0, 0.0, -0.2, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with raises(Unsupported):
            subordinate_envelope(alpha, 0.7, 1, 1.0, 2.0)


class TestLogDomainReach:
    def test_far_field_below_double_underflow(self):
        # The Gaussian factor pushes the value far below double underflow;
        # the log form must stay finite while the float collapse hits zero.
        lv = subordinate(FracParams(0.5, 1.0, 1), 1.0, 300.0)
        assert lv.sign == 1
        assert lv.log_abs < -750.0
        assert math.isfinite(lv.log_abs)
        assert lv.to_float() == 0.0
        assert isinstance(lv, LogValue)
