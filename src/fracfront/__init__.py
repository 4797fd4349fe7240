"""Fundamental solution of the space-time fractional reaction-diffusion
equation and its invasion-speed dichotomies.

The names below load their module on first use (PEP 562), so importing the
package, or one command of its CLI, does not import every module.
"""

import importlib

_MODULES = {
    "errors": ("DomainError", "FracFrontError", "InsufficientData", "NonConvergence",
               "QuadratureFailure", "Unsupported"),
    "logvalue": ("LogValue", "signed_log_sum"),
    "specfun": ("EvalResult", "Regime", "dottie", "gamma_alpha", "gamma_upper_incomplete",
                "log_mittag_leffler", "log_wright_tail", "m_alpha", "mittag_leffler",
                "mittag_leffler_deriv", "ml_estimate_rhs", "reciprocal_gamma", "wright_neg"),
    "kernels": ("FracParams", "classical_solution", "exact_kernel", "f_bound", "kernel",
                "stable_envelope"),
    "subordination": ("QuadratureSpec", "subordinate", "subordinate_envelope", "total_mass"),
    "fourier1d": ("a0_lower_bound", "a1_upper_bound", "a_coefficient", "solution_at_origin",
                  "solution_series", "theorem17_comparator"),
    "invasion": ("Classification", "ExperimentConfig", "ExperimentReport", "Method",
                 "ProfileKind", "SpeedProfile", "ThresholdReport", "TrajectorySample",
                 "Verdict", "classify", "run_experiment", "theta", "thresholds", "trajectory"),
    "verify": ("SuiteName", "SuiteReport", "run_suite"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
