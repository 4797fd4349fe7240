"""End-to-end acceptance checks.

Each criterion prints one pass/fail line so a log scan shows the full
scorecard; the assertions carry the same condition.
"""

import math
import time

import numpy as np
from scipy.special import erfcx, gamma as sp_gamma

from fracfront.fourier1d import (
    solution_at_origin,
    solution_series,
    theorem17_comparator,
)
from fracfront.invasion import (
    ExperimentConfig,
    Method,
    ProfileKind,
    SpeedProfile,
    Verdict,
    run_experiment,
    trajectory,
)
from fracfront.kernels import FracParams
from fracfront.specfun import (
    log_mittag_leffler,
    log_wright_array,
    mittag_leffler,
    ml_estimate_rhs,
)
from fracfront.subordination import subordinate, total_mass
from fracfront.verify import SuiteName, run_suite

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _wright_quadrature(alpha: float, mu: float, tail_log: float = 50.0):
    """Nodes, weights and density values for integrals of W_{-a,mu}(-s).

    Uses the substitution s = w^2 to flatten the origin and the library's
    log-domain evaluator at a tolerance well inside the targets below; the
    density values are shared by every integrand built on them.
    """
    s_end = (tail_log / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    edges = np.linspace(0.0, math.sqrt(s_end), 49)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * _GL_NODES)
        weights.append(half * _GL_WEIGHTS)
    w = np.concatenate(nodes)
    s = w ** 2
    jacobian = 2.0 * w * np.concatenate(weights)
    sign, log_abs, est, _ = log_wright_array(alpha, mu, s, tol=1e-10)
    assert np.all(np.isfinite(est))  # a node with no regime
    density = sign * np.exp(log_abs)
    return s, jacobian, density


def test_criterion_01_special_function_oracle():
    start = time.perf_counter()
    worst = 0.0
    for z in np.linspace(-5.0, 3.0, 41):
        z = float(z)
        got = mittag_leffler(0.5, 1.0, z).value
        want = float(erfcx(-z)) if z <= 0 else 2.0 * math.exp(z * z) - float(erfcx(z))
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    _criterion(
        "C1 special-function oracle",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_laplace_transform_identity():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        for beta in (1.0, alpha):
            s, jac, wright = _wright_quadrature(alpha, beta - alpha)
            for z in (-3.0, -1.0, 0.0, 0.5, 1.0):
                quad = float(np.dot(jac, np.exp(z * s) * wright))
                direct = mittag_leffler(alpha, beta, z).value
                worst = max(worst, abs(quad - direct) / abs(direct))
    elapsed = time.perf_counter() - start
    _criterion(
        "C2 Laplace transform identity",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel {worst:.2e} over 30 cells, {elapsed:.1f}s",
    )


def test_criterion_03_subordination_density_moments():
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        s, jac, wright = _wright_quadrature(alpha, 1.0 - alpha)
        for nu in (0.0, 0.5, 1.0, 2.0, 3.5):
            got = float(np.dot(jac, s ** nu * wright))
            want = float(sp_gamma(nu + 1.0) / sp_gamma(nu * alpha + 1.0))
            worst = max(worst, abs(got - want) / abs(want))
    _criterion(
        "C3 density moments",
        worst <= 1e-7,
        f"worst rel {worst:.2e} over 15 cells",
    )


def test_criterion_04_estimate_lemmas():
    violations = 0
    checked = 0
    for n, alpha in ((2, 0.5), (2, 0.75), (3, 0.4), (4, 0.3)):
        r_cap = min(50.0, 0.98 * 700.0 ** alpha)
        for r in np.geomspace(1e-2, r_cap, 40):
            r = float(r)
            e = mittag_leffler(alpha, 1.0, r).value
            checked += 1
            # The n = 2 lower bound degenerates to an identity at alpha =
            # 1/2; a few ulp of slack keeps rounding out of the count.
            slack = 1e-12
            if not (
                ml_estimate_rhs("lower", n, alpha, r) <= e * (1.0 + slack)
                and e <= ml_estimate_rhs("upper", n, alpha, r) * (1.0 + slack)
            ):
                violations += 1
    _criterion(
        "C4 estimate lemmas",
        violations == 0,
        f"{violations} violations over {checked} grid points",
    )


def test_criterion_05_mass_identity():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0, 5.0):
            mass = total_mass(alpha, t).log_abs
            want = log_mittag_leffler(alpha, t ** alpha).log_abs
            worst = max(worst, abs(mass - want))
    elapsed = time.perf_counter() - start
    _criterion(
        "C5 mass identity",
        worst <= 1e-5 and elapsed < 30.0,
        f"worst log-space error {worst:.2e} over 12 cells, {elapsed:.1f}s",
    )


def test_criterion_06_dual_representation():
    worst = 0.0
    for alpha in (0.4, 0.5, 0.8):
        for t in (1.0, 2.0, 5.0):
            for x in (0.0, 1.0, 3.0):
                sub = subordinate(FracParams(alpha, 1.0, 1), t, x).to_float()
                if x == 0.0:
                    four = solution_at_origin(alpha, 1.0, t).value
                else:
                    four = solution_series(alpha, 1.0, t, x, 1e-6).value
                worst = max(worst, abs(sub - four) / abs(four))
    _criterion(
        "C6 dual representation",
        worst <= 1e-3,
        f"worst rel {worst:.2e} over 27 cells",
    )


def _power_cell(m: float, beta: float) -> Verdict:
    config = ExperimentConfig(
        params=FracParams(0.5, 1.0, 1),
        profile=SpeedProfile(ProfileKind.POWER, m, beta),
    )
    return run_experiment(config).classification.verdict


def test_criterion_07_power_speed_dichotomy():
    start = time.perf_counter()
    got = {
        (0.5, 1.0): _power_cell(1.0, 0.5),
        (1.5, 1.0): _power_cell(1.0, 1.5),
        (1.0, 1.0): _power_cell(1.0, 1.0),
        (1.0, 20.0): _power_cell(20.0, 1.0),
    }
    want = {
        (0.5, 1.0): Verdict.DIVERGING,
        (1.5, 1.0): Verdict.VANISHING,
        (1.0, 1.0): Verdict.DIVERGING,
        (1.0, 20.0): Verdict.VANISHING,
    }
    elapsed = time.perf_counter() - start
    _criterion(
        "C7 power-speed dichotomy",
        got == want and elapsed < 120.0,
        f"{ {k: v.value for k, v in got.items()} }, {elapsed:.1f}s",
    )


def test_criterion_08_exponential_speed_dichotomy():
    verdicts = {}
    for m in (0.2, 0.8):
        config = ExperimentConfig(
            params=FracParams(0.5, 0.5, 1),
            profile=SpeedProfile(ProfileKind.EXPONENTIAL, m, 1.0),
            t_start=5.0,
            t_end=40.0,
        )
        verdicts[m] = run_experiment(config).classification.verdict
    ok = verdicts[0.2] is Verdict.DIVERGING and verdicts[0.8] is Verdict.VANISHING
    _criterion(
        "C8 exponential-speed dichotomy",
        ok,
        f"m=0.2 {verdicts[0.2].value}, m=0.8 {verdicts[0.8].value}",
    )


def test_criterion_09_heavy_tail_outruns_power_speeds():
    config = ExperimentConfig(
        params=FracParams(0.5, 0.5, 1),
        profile=SpeedProfile(ProfileKind.POWER, 1.0, 2.0),
        t_start=5.0,
        t_end=40.0,
        n_samples=12,
    )
    report = run_experiment(config)
    _criterion(
        "C9 heavy tail outruns power speeds",
        report.classification.verdict is Verdict.DIVERGING,
        f"verdict {report.classification.verdict.value}, "
        f"slope {report.classification.slope:.3f}",
    )


def test_criterion_10_higher_order_growth_trend():
    samples = trajectory(
        FracParams(0.5, 1.5, 1),
        SpeedProfile(ProfileKind.POWER, 1.0, 0.25),
        [10.0, 20.0, 30.0],
        Method.FOURIER1D,
    )
    logs = [s.log_u.log_abs for s in samples]
    ratios = [
        logs[i] - theorem17_comparator(2, 0.5, 1.5, 1.0, 0.25, t).log_abs
        for i, t in enumerate((10.0, 20.0, 30.0))
    ]
    increasing = all(b > a for a, b in zip(logs, logs[1:]))
    nondecreasing = all(b >= a for a, b in zip(ratios, ratios[1:]))
    _criterion(
        "C10 higher-order growth trend",
        increasing and nondecreasing,
        f"log u {['%.2f' % v for v in logs]}, "
        f"log ratio {['%.2f' % v for v in ratios]}",
    )


def test_criterion_11_alternating_series_structure():
    report = run_suite(SuiteName.LEIBNIZ_PROPERTIES)
    _criterion(
        "C11 alternating-series structure",
        report.passed,
        f"{report.cases_passed}/{report.cases_run} cases",
    )


def test_criterion_12_verify_all_deterministic():
    start = time.perf_counter()
    first = run_suite(SuiteName.ALL)
    second = run_suite(SuiteName.ALL)
    elapsed = time.perf_counter() - start
    ok = first.passed and second.passed and first == second and elapsed < 300.0
    _criterion(
        "C12 verify-all deterministic",
        ok,
        f"{first.cases_passed}/{first.cases_run} twice, identical reports, "
        f"{elapsed:.0f}s total",
    )
