"""Fundamental solution of the space-time fractional reaction-diffusion
equation and its invasion-speed dichotomies."""

from .errors import (
    DomainError,
    FracFrontError,
    InsufficientData,
    NonConvergence,
    QuadratureFailure,
    Unsupported,
)
from .logvalue import LogValue, signed_log_sum
from .specfun import (
    EvalResult,
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
from .kernels import (
    FracParams,
    classical_solution,
    exact_kernel,
    f_bound,
    kernel,
    stable_envelope,
)
from .subordination import (
    QuadratureSpec,
    subordinate,
    subordinate_envelope,
    total_mass,
)
from .fourier1d import (
    a0_lower_bound,
    a1_upper_bound,
    a_coefficient,
    solution_at_origin,
    solution_series,
    theorem17_comparator,
)
from .invasion import (
    Classification,
    ExperimentConfig,
    ExperimentReport,
    Method,
    ProfileKind,
    SpeedProfile,
    ThresholdReport,
    TrajectorySample,
    Verdict,
    classify,
    run_experiment,
    theta,
    thresholds,
    trajectory,
)
from .verify import SuiteName, SuiteReport, run_suite

__version__ = "0.1.0"
