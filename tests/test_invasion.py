import math

from hypothesis import given
from hypothesis import strategies as st
from pytest import approx, mark, raises

from fracfront.errors import DomainError, InsufficientData, Unsupported
from fracfront.invasion import (
    ExperimentConfig,
    Method,
    ProfileKind,
    SpeedProfile,
    TrajectorySample,
    Verdict,
    classify,
    run_experiment,
    theta,
    thresholds,
    trajectory,
)
from fracfront.kernels import FracParams
from fracfront.logvalue import LogValue


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

    def test_window_fraction_validation(self):
        with raises(DomainError):
            classify(_synthetic(0.5), window_fraction=0.0)


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
        with raises(Unsupported):
            trajectory(
                FracParams(0.5, 1.0, 1), profile, [1.0, 2.0], Method.ENVELOPE
            )
        with raises(Unsupported):
            trajectory(
                FracParams(0.5, 1.0, 2), profile, [1.0, 2.0], Method.FOURIER1D
            )


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
