import math

from hypothesis import given
from hypothesis import strategies as st
from pytest import approx, mark, raises

from fracfront import invasion
from fracfront.errors import (DomainError, InsufficientData, NonConvergence, QuadratureFailure,
                              Unsupported)
from fracfront.invasion import (
    ExperimentConfig,
    Method,
    ProfileKind,
    SpeedProfile,
    TrajectorySample,
    Verdict,
    _point_log_u,
    classify,
    predicted_verdict,
    run_experiment,
    theta,
    thresholds,
    trajectory,
)
from fracfront.kernels import FracParams, kernel, stable_envelope
from fracfront.logvalue import LogValue
from fracfront.subordination import subordinate


class TestThresholds:
    def test_frozen_values_alpha_half(self):
        rep = thresholds(0.5, 1.0, 1)
        assert rep.gamma_alpha == approx(0.25, abs=1e-15)
        assert rep.m_alpha == 9
        assert rep.power_lower == approx(math.sqrt(3.0), rel=1e-12)
        assert rep.power_upper == approx(17.74823934929885, rel=1e-12)
        assert rep.exp_lower == approx(0.25, rel=1e-12)
        assert rep.exp_upper == approx(1.0 / 3.0, rel=1e-12)

    def test_exponential_thresholds_for_stable_kernel(self):
        rep = thresholds(0.5, 0.5, 1)
        assert rep.exp_lower == approx(0.375, rel=1e-12)
        assert rep.exp_upper == approx(0.5, rel=1e-12)

    def test_ordering(self):
        rep = thresholds(0.7, 0.5, 2)
        assert rep.power_lower < rep.power_upper
        assert rep.exp_lower < rep.exp_upper

    def test_domain_errors(self):
        with raises(DomainError):
            thresholds(0.5, 1.0, 0)
        with raises(DomainError):
            thresholds(0.5, 0.0, 1)


# One row per return of predicted_verdict, in its order: (rho, d, profile,
# m, beta, verdict).  At alpha 1/2 the power thresholds in m are sqrt(3) and
# 17.75 (rho = 1), the exponential ones 0.375 and 0.5 (rho = 1/2, d = 1).
_VERDICT_TABLE = [
    (0.5, 1, "power", 1.0, 1.0, "diverging"),
    (1.0, 1, "power", 1.0, 0.5, "diverging"),
    (1.0, 1, "power", 1.0, 1.5, "vanishing"),
    (1.0, 1, "power", 1.0, 1.0, "diverging"),
    (1.0, 1, "power", 20.0, 1.0, "vanishing"),
    (1.0, 1, "power", 5.0, 1.0, "gap"),
    (1.5, 1, "power", 1.0, 1.5, "vanishing"),
    (1.5, 1, "power", 1.0, 0.2, "diverging"),
    (1.5, 2, "power", 1.0, 0.2, "gap"),
    (1.0, 1, "exponential", 1.0, 1.0, "none"),
    (0.5, 1, "exponential", 1.0, 0.5, "diverging"),
    (0.5, 1, "exponential", 1.0, 1.5, "vanishing"),
    (0.5, 1, "exponential", 0.3, 1.0, "diverging"),
    (0.5, 1, "exponential", 0.6, 1.0, "vanishing"),
    (0.5, 1, "exponential", 0.4, 1.0, "gap"),
]


@mark.parametrize("rho,d,kind,m,beta,want", _VERDICT_TABLE)
def test_predicted_verdict_table(rho, d, kind, m, beta, want):
    report = thresholds(0.5, rho, d)
    profile = SpeedProfile(ProfileKind(kind), m, beta)
    assert predicted_verdict(FracParams(0.5, rho, d), profile, report) == want


class TestSpeedProfile:
    def test_validation(self):
        with raises(DomainError):
            SpeedProfile(ProfileKind.POWER, 0.0, 1.0)
        with raises(DomainError):
            SpeedProfile(ProfileKind.POWER, 1.0, -0.5)

    # Ranges keep m t^beta inside double exponent range for the
    # exponential profile.
    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.001, max_value=2.0),
    )
    def test_theta_nonnegative_and_increasing(self, m, beta, t, dt):
        for kind in (ProfileKind.POWER, ProfileKind.EXPONENTIAL):
            profile = SpeedProfile(kind, m, beta)
            assert theta(profile, 0.0) == 0.0
            assert theta(profile, t + dt) > theta(profile, t) >= 0.0

    def test_rejects_negative_time(self):
        with raises(DomainError):
            theta(SpeedProfile(ProfileKind.POWER, 1.0, 1.0), -1.0)


def _synthetic(slope, n=12):
    return [
        TrajectorySample(
            t=float(t),
            theta=float(t),
            log_u=LogValue(1, slope * t),
            method=Method.SUBORDINATION,
        )
        for t in range(1, n + 1)
    ]


class TestClassify:
    def test_diverging(self):
        assert classify(_synthetic(0.5)).verdict is Verdict.DIVERGING

    def test_vanishing(self):
        assert classify(_synthetic(-0.5)).verdict is Verdict.VANISHING

    def test_inconclusive_for_flat_trajectory(self):
        assert classify(_synthetic(0.0)).verdict is Verdict.INCONCLUSIVE

    def test_slope_estimate(self):
        cls = classify(_synthetic(0.37))
        assert cls.slope == approx(0.37, abs=1e-9)

    def test_short_grids_still_classified(self):
        assert classify(_synthetic(0.5, n=4)).verdict is Verdict.DIVERGING

    def test_insufficient_finite_samples(self):
        samples = [
            TrajectorySample(float(t), float(t), None, Method.SUBORDINATION, "boom")
            for t in range(1, 9)
        ]
        with raises(InsufficientData):
            classify(samples)


class TestTrajectory:
    def test_one_sample_per_grid_point(self):
        params = FracParams(0.5, 1.0, 1)
        profile = SpeedProfile(ProfileKind.POWER, 1.0, 0.5)
        samples = trajectory(params, profile, [1.0, 2.0, 4.0], Method.SUBORDINATION)
        assert [s.t for s in samples] == [1.0, 2.0, 4.0]
        assert all(s.failure is None and s.log_u.sign == 1 for s in samples)

    def test_rejects_unsorted_grid(self):
        params = FracParams(0.5, 1.0, 1)
        profile = SpeedProfile(ProfileKind.POWER, 1.0, 0.5)
        with raises(DomainError):
            trajectory(params, profile, [2.0, 1.0], Method.SUBORDINATION)

    def test_route_mismatch_aborts(self):
        profile = SpeedProfile(ProfileKind.POWER, 1.0, 0.5)
        for method, rho, d in [
            (Method.SUBORDINATION, 0.7, 1),
            (Method.SUBORDINATION, 1.5, 2),
            (Method.FOURIER1D, 0.7, 1),
            (Method.FOURIER1D, 1.0, 2),
            (Method.ENVELOPE, 1.0, 1),
            (Method.ENVELOPE, 1.5, 1),
        ]:
            for alpha in (0.5, 1.0):
                with raises(Unsupported, match="route"):
                    trajectory(FracParams(alpha, rho, d), profile, [1.0, 2.0], method)

    def test_other_failures_stay_per_sample(self):
        # theta(10) = e^50 - 1 is past the cosine transform's panel guard: a
        # QuadratureFailure in that sample, not an aborted sweep.  The
        # samples are integrated together, and that one drops out.
        params = FracParams(0.5, 1.5, 1)
        profile = SpeedProfile(ProfileKind.EXPONENTIAL, 5.0, 1.0)
        ts = [0.1, 0.2, 10.0]
        samples = trajectory(params, profile, ts, Method.SUBORDINATION)
        for s in samples[:2]:
            assert s.failure is None and s.log_u.sign == 1
            assert s.log_u == subordinate(params, s.t, s.theta)  # bit for bit
        last = samples[2]
        with raises(QuadratureFailure) as alone:
            subordinate(params, 10.0, last.theta)
        assert last.log_u is None and "did not terminate" in last.failure
        assert last.failure == str(alone.value)

    def test_fourier_failure_takes_each_sample_once(self, monkeypatch):
        series = invasion._solution_series_log
        calls = []

        def failing_at_two(alpha, rho, t, x, tol):
            calls.append(t)
            if t == 2.0:
                raise NonConvergence("made to fail")
            return series(alpha, rho, t, x, tol)

        monkeypatch.setattr(invasion, "_solution_series_log", failing_at_two)
        ts = [1.0, 2.0, 3.0]
        samples = trajectory(FracParams(0.5, 1.0, 1), SpeedProfile(ProfileKind.POWER, 1.0, 1.0),
                             ts, Method.FOURIER1D)
        assert calls == ts
        assert [s.failure for s in samples] == [None, "made to fail", None]


def _higher_dimension_cells():
    """The power cells of C7 (rho = 1) and the exponential cells at half of
    exp_lower and 1.5 exp_upper (rho = 1/2), in d = 2 and 3 at alpha 1/2."""
    cells = []
    for d in (2, 3):
        report = thresholds(0.5, 0.5, d)
        cells += [(1.0, d, "power", m, beta)
                  for m, beta in ((1.0, 0.5), (1.0, 1.5), (1.0, 1.0), (20.0, 1.0))]
        cells += [(0.5, d, "exponential", 0.5 * report.exp_lower, 1.0),
                  (0.5, d, "exponential", 1.5 * report.exp_upper, 1.0)]
    return cells


@mark.parametrize("rho, d, kind, m, beta", _higher_dimension_cells())
def test_verdict_in_higher_dimension(rho, d, kind, m, beta):
    # The paper's dichotomies hold in any dimension.
    report = run_experiment(ExperimentConfig(
        params=FracParams(0.5, rho, d), profile=SpeedProfile(ProfileKind(kind), m, beta)))
    assert report.predicted in ("diverging", "vanishing")
    assert report.agreement is True, (report.predicted, report.classification)


class TestExperimentConfig:
    def test_validation(self):
        params = FracParams(0.5, 1.0, 1)
        profile = SpeedProfile(ProfileKind.POWER, 1.0, 1.0)
        with raises(DomainError):
            ExperimentConfig(params, profile, t_start=5.0, t_end=2.0)
        with raises(DomainError):
            ExperimentConfig(params, profile, n_samples=3)
        with raises(DomainError):
            ExperimentConfig(params, profile, format="yaml")
        with raises(DomainError):
            ExperimentConfig(params, profile, method="bogus")
        for bad in (4.5, True):
            with raises(DomainError):
                ExperimentConfig(params, profile, n_samples=bad)
        nan, inf = math.nan, math.inf
        for make in (
            lambda: ExperimentConfig(params, profile, t_end=inf),
            lambda: ExperimentConfig(params, profile, t_start=nan),
            lambda: FracParams(0.5, nan),
            lambda: FracParams(0.5, inf),
            lambda: FracParams(0.5, 1.0, nan),
            lambda: SpeedProfile(ProfileKind.POWER, nan, 0.5),
            lambda: SpeedProfile(ProfileKind.POWER, 1.0, inf),
            lambda: kernel(1.0, 1, nan, 1.0),
            lambda: kernel(1.0, 1, 1.0, inf),
            lambda: kernel(0.5, 1, inf, 1.0),
            lambda: stable_envelope(0.7, 1.0, nan, 1),
            lambda: kernel(1.5, 1, 1.0, nan),
            lambda: thresholds(0.5, nan, 1),
        ):
            with raises(DomainError):
                make()


class TestRunExperiment:
    def test_slow_power_speed_diverges(self):
        config = ExperimentConfig(
            params=FracParams(0.5, 1.0, 1),
            profile=SpeedProfile(ProfileKind.POWER, 1.0, 0.5),
            t_start=5.0,
            t_end=25.0,
            n_samples=8,
        )
        report = run_experiment(config)
        assert report.classification.verdict is Verdict.DIVERGING
        assert report.predicted == "diverging"
        assert report.agreement is True

    def test_threshold_cell_reports_gap(self):
        config = ExperimentConfig(
            params=FracParams(0.5, 1.0, 1),
            profile=SpeedProfile(ProfileKind.POWER, 5.0, 1.0),
            t_start=5.0,
            t_end=25.0,
            n_samples=8,
        )
        report = run_experiment(config)
        assert report.predicted == "gap"
        assert report.agreement is None

    def test_envelope_route_heavy_tail_diverges(self):
        config = ExperimentConfig(
            params=FracParams(0.65, 0.3, 2),
            profile=SpeedProfile(ProfileKind.POWER, 1.0, 0.5),
            t_start=5.0,
            t_end=20.0,
            n_samples=4,
            method="envelope",
        )
        report = run_experiment(config)
        assert report.classification.verdict is Verdict.DIVERGING
        assert report.agreement is True
        assert all(s.method is Method.ENVELOPE for s in report.samples)


class TestAlphaOne:
    """alpha = 1 on every route: the classical cells and the limit alpha -> 1."""

    @mark.parametrize("method, rho, kind, m, beta", [
        ("subordination", 1.0, ProfileKind.POWER, 1.0, 1.0),
        ("subordination", 1.0, ProfileKind.POWER, 3.0, 1.0),
        ("envelope", 0.3, ProfileKind.EXPONENTIAL, 0.1, 1.0),
        ("fourier1d", 1.5, ProfileKind.POWER, 1.0, 0.2),
    ])
    def test_classical_cell_agrees(self, method, rho, kind, m, beta):
        config = ExperimentConfig(
            params=FracParams(1.0, rho, 1),
            profile=SpeedProfile(kind, m, beta),
            method=method,
        )
        report = run_experiment(config)
        # The classical thresholds: 2 for power speeds, 1/(d + 2 rho) for
        # exponential ones.
        assert (report.thresholds.gamma_alpha, report.thresholds.power_lower) == (0.0, 2.0)
        assert report.thresholds.exp_lower == approx(1.0 / (1.0 + 2.0 * rho), rel=1e-15)
        assert report.agreement is True

    @mark.parametrize("method, rho", [
        (Method.SUBORDINATION, 1.0),
        (Method.SUBORDINATION, 0.5),
        (Method.SUBORDINATION, 1.5),
        (Method.ENVELOPE, 0.5),
        (Method.ENVELOPE, 0.3),
        (Method.FOURIER1D, 1.5),
    ])
    def test_route_is_continuous_at_alpha_one(self, method, rho):
        # The envelope route at rho = 1/2 gives the envelope shape, not the
        # Cauchy kernel: the two differ by the factor pi.
        near, at = (_point_log_u(FracParams(alpha, rho, 1), [2.0], [3.0], method)[0]
                    for alpha in (0.999, 1.0))
        assert near.sign == at.sign == 1
        assert abs(near.log_abs - at.log_abs) <= 0.01
