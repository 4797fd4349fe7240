"""Invasion-speed experiments: sample log u(t, theta(t)) and classify.

The analytic results are dichotomies: along theta(t) = m t^b (power) or
theta(t) = e^{m t^b} - 1 (exponential) the solution either blows up or dies,
with thresholds in m at the boundary exponent.  The harness measures the
least-squares slope of log u over the trailing part of a time grid and
compares the verdict against the predicted side of those thresholds; cells
inside an analytic gap carry no prediction and are never failures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, FracFrontError, InsufficientData, Unsupported
from .fourier1d import _solution_series_points
from .kernels import FracParams, classical_solution, exact_kernel, stable_envelope
from .logvalue import LogValue
from .specfun import _log_mittag_leffler_points, gamma_alpha, m_alpha
from .subordination import subordinate_envelope_points, subordinate_points
# _point_log_u calls the batched functions above, not these one-point views;
# perfbench/child.py looks them up here.
from .fourier1d import _solution_series_log  # noqa: F401
from .specfun import log_mittag_leffler  # noqa: F401
from .subordination import subordinate, subordinate_envelope  # noqa: F401


class ProfileKind(Enum):
    POWER = "power"
    EXPONENTIAL = "exponential"


class Method(Enum):
    SUBORDINATION = "subordination"
    FOURIER1D = "fourier1d"
    ENVELOPE = "envelope"


class Verdict(Enum):
    DIVERGING = "diverging"
    VANISHING = "vanishing"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpeedProfile:
    """theta(t) = m t^beta (power) or e^{m t^beta} - 1 (exponential)."""

    kind: ProfileKind
    m: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.m < math.inf and 0.0 < self.beta < math.inf):
            raise DomainError("speed profile requires finite m > 0 and beta > 0")


def theta(profile: SpeedProfile, t: float) -> float:
    """The invasion radius at time t; theta(0) = 0 and strictly increasing."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if profile.kind is ProfileKind.POWER:
        return profile.m * t ** profile.beta
    return math.expm1(profile.m * t ** profile.beta)


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    theta: float
    log_u: LogValue | None
    method: Method
    failure: str | None = None


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    slope: float
    window: tuple[float, float]


@dataclass(frozen=True)
class ThresholdReport:
    """The four analytic threshold constants for one (alpha, rho, d) cell."""

    gamma_alpha: float
    m_alpha: int
    power_lower: float
    power_upper: float
    exp_lower: float
    exp_upper: float


def thresholds(alpha: float, rho: float, d: int) -> ThresholdReport:
    """Threshold constants in m at the boundary exponents.

    Power speeds (rho = 1, beta = 1): divergence below 2 sqrt(1 - g_a),
    vanishing above 2 M_a sqrt(1 - g_a / M_a).  Exponential speeds
    (rho in (0,1), beta = 1): divergence below (1 - g_a)/(d + 2 rho),
    vanishing above 1/(d + 2 rho).
    """
    FracParams(alpha, rho, d)  # checks alpha, rho and d
    g = gamma_alpha(alpha)
    m_a = m_alpha(alpha)
    return ThresholdReport(
        gamma_alpha=g,
        m_alpha=m_a,
        power_lower=2.0 * math.sqrt(1.0 - g),
        power_upper=2.0 * m_a * math.sqrt(1.0 - g / m_a),
        exp_lower=(1.0 - g) / (d + 2.0 * rho),
        exp_upper=1.0 / (d + 2.0 * rho),
    )


def _fourier_log_u(alpha: float, rho: float, ts, xs) -> list[LogValue | FracFrontError]:
    """Signed log of u(t, x) by the Fourier series at each (t, x) of ts, xs,
    or the point's error, the series summed together.

    The absolute series tolerance of a point x > 0 is pinned a fixed number
    of nats below its total-mass scale E_a(t^a), which dominates every a_k;
    the scales are one Mittag-Leffler call, their t^a formed one t at a time
    (a point at x = 0 takes the integral at the origin and no tolerance, and
    one at t <= 0 the series' DomainError).
    """
    series = [j for j, (t, x) in enumerate(zip(ts, xs)) if x != 0.0 and t > 0.0]
    scales = dict(zip(series, _log_mittag_leffler_points(alpha, [ts[j] ** alpha for j in series])))
    values: list = [scales.get(j) for j in range(len(ts))]
    keep = [j for j, v in enumerate(values) if not isinstance(v, FracFrontError)]
    tols = [0.0 if values[j] is None else math.exp(min(values[j].log_abs - 22.0, 700.0))
            for j in keep]
    sums = _solution_series_points(alpha, rho, [ts[j] for j in keep], [xs[j] for j in keep], tols)
    for j, v in zip(keep, sums):
        values[j] = v if isinstance(v, FracFrontError) else v[0]
    return values


def _point_log_u(params: FracParams, ts, xs, method: Method) -> list[LogValue | FracFrontError]:
    """Signed log of u(t, x) by ``method`` at each (t, x) of ts, xs, or the
    point's error: the one table of routes.

    A route that cannot compute (params, method) raises Unsupported here,
    before any integral: subordination needs an exact kernel
    (``kernels.exact_kernel``), fourier1d needs d = 1 and rho >= 1, and the
    envelope route rho in (0,1).  Below alpha = 1 every route integrates
    the points together.  At alpha = 1 the envelope route gives e^t times
    the envelope shape it subordinates below 1, and the other routes the
    classical solution, one point at a time.
    """
    rho, d = params.rho, params.dim
    if method is Method.SUBORDINATION and not exact_kernel(rho, d):
        raise Unsupported(f"subordination route has no exact kernel for rho = {rho} in dimension {d}")
    if method is Method.FOURIER1D and (d != 1 or rho < 1.0):
        raise Unsupported("fourier1d route requires d = 1 and rho >= 1")
    if method is Method.ENVELOPE and rho >= 1.0:
        raise Unsupported("envelope route requires rho in (0,1)")
    if params.alpha < 1.0 and method is Method.SUBORDINATION:
        return subordinate_points(params, ts, xs)
    if params.alpha < 1.0 and method is Method.ENVELOPE:
        return subordinate_envelope_points(params.alpha, rho, d, ts, xs)
    if params.alpha < 1.0:
        return _fourier_log_u(params.alpha, rho, ts, xs)
    values = []
    for t, x in zip(ts, xs):
        try:
            if method is Method.ENVELOPE:
                values.append(LogValue(1, t + stable_envelope(rho, t, x, d).log_abs))
            else:
                values.append(classical_solution(params, t, x))
        except FracFrontError as exc:
            values.append(exc)
    return values


def trajectory(
    params: FracParams,
    profile: SpeedProfile,
    t_grid,
    method: Method,
) -> list[TrajectorySample]:
    """One sample of log u(t, theta(t)) per grid point, all computed by one
    ``_point_log_u`` call.

    Per-point failures are recorded in the sample rather than aborting the
    sweep; Unsupported, a route that cannot compute the cell, aborts it.
    """
    ts = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("t_grid must be strictly increasing")
    xs = [theta(profile, t) for t in ts]
    return [TrajectorySample(t, x, None, method, failure=str(v)) if isinstance(v, FracFrontError)
            else TrajectorySample(t, x, v, method)
            for t, x, v in zip(ts, xs, _point_log_u(params, ts, xs, method))]


# The trailing share of the samples whose slope decides the verdict, and the
# slope below which it is inconclusive.
_WINDOW_FRACTION = 0.5
_SLOPE_TOL = 0.02


def classify(samples: list[TrajectorySample]) -> Classification:
    """Least-squares slope of log u over the trailing window of samples."""
    # At least four samples (when available) so the slope fit below is
    # meaningful even for the shortest legal grids.
    n_win = min(len(samples), max(4, math.ceil(_WINDOW_FRACTION * len(samples))))
    window = samples[len(samples) - n_win:]
    pts = [
        (s.t, s.log_u.log_abs)
        for s in window
        if s.failure is None
        and s.log_u is not None
        and s.log_u.sign > 0
        and math.isfinite(s.log_u.log_abs)
    ]
    if len(pts) < 4:
        raise InsufficientData(
            f"only {len(pts)} finite samples in the trailing window"
        )
    ts = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(ts, ys, 1)[0])
    if slope > _SLOPE_TOL:
        verdict = Verdict.DIVERGING
    elif slope < -_SLOPE_TOL:
        verdict = Verdict.VANISHING
    else:
        verdict = Verdict.INCONCLUSIVE
    return Classification(verdict, slope, (float(ts[0]), float(ts[-1])))


def predicted_verdict(
    params: FracParams, profile: SpeedProfile, report: ThresholdReport
) -> str:
    """The analytic prediction for one cell: diverging / vanishing / gap / none.

    "gap" marks regions the theory leaves open (including threshold
    boundaries); "none" marks parameter ranges no analytic result covers.
    """
    rho, d = params.rho, params.dim
    beta, m = profile.beta, profile.m
    if profile.kind is ProfileKind.POWER:
        if 0.0 < rho < 1.0:
            return "diverging"  # heavy tails outrun every power speed
        if rho == 1.0:
            if beta < 1.0:
                return "diverging"
            if beta > 1.0:
                return "vanishing"
            if m < report.power_lower:
                return "diverging"
            if m > report.power_upper:
                return "vanishing"
            return "gap"
        # rho > 1
        if beta > 1.0:
            return "vanishing"
        if d == 1 and beta < 1.0 / (2.0 * rho):
            return "diverging"
        return "gap"
    # exponential profiles: dichotomy stated for rho in (0,1)
    if not 0.0 < rho < 1.0:
        return "none"
    if beta < 1.0:
        return "diverging"
    if beta > 1.0:
        return "vanishing"
    if m < report.exp_lower:
        return "diverging"
    if m > report.exp_upper:
        return "vanishing"
    # The divergence side formally includes m = exp_lower; boundary cells
    # are still reported as gap rather than asserted numerically.
    return "gap"


@dataclass(frozen=True)
class ExperimentConfig:
    """One invasion experiment cell plus its output destination."""

    params: FracParams
    profile: SpeedProfile
    t_start: float = 5.0
    t_end: float = 60.0
    n_samples: int = 24
    method: str = "subordination"
    output_path: str = ""
    format: str = "csv"

    def __post_init__(self):
        if not 0.0 < self.t_start < self.t_end < math.inf:
            raise DomainError("require 0 < t_start < t_end < inf")
        # A JSON config can carry any number here; bool is an int subclass.
        if isinstance(self.n_samples, bool) or not isinstance(self.n_samples, numbers.Integral):
            raise DomainError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 4:
            raise DomainError("n_samples must be >= 4")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.format!r}")
        methods = [m.value for m in Method]
        if self.method not in methods:
            raise DomainError(f"method must be one of {methods}, got {self.method!r}")


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    thresholds: ThresholdReport
    samples: list[TrajectorySample]
    classification: Classification
    predicted: str
    agreement: bool | None = field(default=None)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one cell end to end: trajectory, classification, prediction check.

    Every route, the envelope route included, samples one trajectory and
    classifies its slope.  agreement is None when the cell sits in an
    analytic gap (or no analytic result applies), True/False otherwise.
    """
    params = config.params
    t_grid = np.geomspace(config.t_start, config.t_end, config.n_samples)
    if params.alpha < 1.0:
        report = thresholds(params.alpha, params.rho, params.dim)
    else:
        # Classical cells still get the rho-dependent exponential thresholds.
        exp_threshold = 1.0 / (params.dim + 2.0 * params.rho)
        report = ThresholdReport(
            gamma_alpha=0.0,
            m_alpha=2,
            power_lower=2.0,
            power_upper=2.0,
            exp_lower=exp_threshold,
            exp_upper=exp_threshold,
        )
    samples = trajectory(params, config.profile, t_grid, Method(config.method))
    cls = classify(samples)

    predicted = predicted_verdict(params, config.profile, report)
    if predicted in ("gap", "none"):
        agreement = None
    else:
        agreement = cls.verdict.value == predicted
    return ExperimentReport(
        config=config,
        thresholds=report,
        samples=samples,
        classification=cls,
        predicted=predicted,
        agreement=agreement,
    )
