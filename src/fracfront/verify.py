"""Executable identity and inequality suites.

Each suite evaluates a fixed, deterministic grid of checks; a case records a
nonnegative error measure (relative error for identities, violation margin
for inequalities, so 0 means "holds") together with its tolerance.  Failures
are data in the report, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import fourier1d, specfun, subordination
from .errors import FracFrontError
from .kernels import FracParams
from .logvalue import GL_NODES, gl_panels
from .specfun import _bridge_rule, _log_wright, reciprocal_gamma


class SuiteName(Enum):
    ML_IDENTITIES = "ml-identities"
    WRIGHT_IDENTITIES = "wright-identities"
    ESTIMATE_LEMMAS = "estimate-lemmas"
    LEIBNIZ_PROPERTIES = "leibniz-properties"
    SUBORDINATION = "subordination"
    REPRESENTATIONS = "representations"
    ASYMPTOTICS = "asymptotics"
    ALL = "all"


@dataclass(frozen=True)
class SuiteReport:
    suite_name: str
    cases_run: int
    cases_passed: int
    worst_rel_error: float
    worst_case_inputs: str

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


@dataclass(frozen=True)
class _Case:
    inputs: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _rel(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def _violation(lhs: float, rhs: float) -> float:
    """How far lhs <= rhs fails, scaled; 0 when the inequality holds."""
    if lhs <= rhs:
        return 0.0
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _ml(alpha: float, z: float) -> float:
    return specfun.mittag_leffler(alpha, 1.0, z).value


# ---------------------------------------------------------------------------
# suites


def _suite_ml_identities(tol: float) -> list[_Case]:
    cases = []
    # Positivity and monotonicity on the real line.
    for alpha in (0.3, 0.5, 0.7, 0.9):
        grid = np.linspace(-30.0, 5.0, 36)
        vals = [_ml(alpha, float(z)) for z in grid]
        worst = 0.0
        for prev, cur in zip(vals, vals[1:]):
            if prev <= 0.0 or cur <= prev:
                worst = max(worst, 1.0 if prev <= 0 else _violation(prev, cur))
        cases.append(_Case(f"monotone alpha={alpha}", worst, 0.0))
    # Derivative lemma by central finite difference.
    h = 1e-5
    for alpha in (0.3, 0.5, 0.7):
        for z in (-0.5, -1.0, -2.0):
            fd = (_ml(alpha, z + h) - _ml(alpha, z - h)) / (2.0 * h)
            direct = specfun.mittag_leffler_deriv(alpha, z).value
            cases.append(_Case(f"deriv alpha={alpha} z={z}", _rel(fd, direct), tol))
    # Laplace-Wright identity: mittag_leffler (the contour rule, plus the
    # pole's residue for z > 0) vs the transform quadrature over Wright values.
    for alpha in (0.3, 0.5, 0.7):
        for beta in (1.0, alpha):
            (s_f, f_f), _ = _bridge_rule(alpha, beta - alpha)
            for z in (-3.0, -1.0, 0.0, 0.5, 1.0):
                quad = float(np.dot(f_f, np.exp(z * s_f)))
                direct = specfun.mittag_leffler(alpha, beta, z).value
                cases.append(
                    _Case(
                        f"laplace-wright alpha={alpha} beta={beta} z={z}",
                        _rel(quad, direct),
                        tol,
                    )
                )
    return cases


def _suite_wright_identities(tol: float) -> list[_Case]:
    cases = []
    h = 1e-5
    # d/dz W_{-a,1}(z) = W_{-a,1-a}(z).
    for alpha in (0.3, 0.5, 0.7):
        for z in (-0.5, -1.0, -2.0):
            fd = (
                specfun.wright_neg(alpha, 1.0, z + h).value
                - specfun.wright_neg(alpha, 1.0, z - h).value
            ) / (2.0 * h)
            direct = specfun.wright_neg(alpha, 1.0 - alpha, z).value
            cases.append(_Case(f"wright-deriv alpha={alpha} z={z}", _rel(fd, direct), tol))
    # Moments: integral W_{-a,1-a}(-r) r^nu dr = Gamma(nu+1)/Gamma(nu a + 1).
    for alpha in (0.3, 0.5, 0.8):
        r_end = (45.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
        w_end = math.sqrt(r_end)
        # Wright values are shared by every moment order, so evaluate the
        # density once per node (substitution r = w^2 flattens the origin).
        ws, hw = gl_panels(np.linspace(0.0, w_end, 49))
        dens = np.array(
            [_log_wright(alpha, 1.0 - alpha, w ** 2, tol=1e-9)[0].to_float()
             for w in ws.tolist()]
        )
        for nu in (0.0, 0.5, 1.0, 2.0, 3.5):
            vals = 2.0 * dens * ws ** (2.0 * nu + 1.0)
            k = len(GL_NODES)
            pieces = [
                float(np.dot(h, v))
                for h, v in zip(hw.reshape(-1, k), vals.reshape(-1, k))
            ]
            got = math.fsum(pieces)
            want = math.gamma(nu + 1.0) * reciprocal_gamma(nu * alpha + 1.0)
            cases.append(_Case(f"moment alpha={alpha} nu={nu}", _rel(got, want), tol))
    # Positivity, eventual decay, and the kappa e^{-sigma r^{1/(1-a)}} bound
    # (fit on [5,15], verify on (15,25]).
    for alpha in (0.4, 0.6):
        power = 1.0 / (1.0 - alpha)
        # sigma at 90% of the exact decay coefficient (from the tail
        # variable Y): slack below the true rate keeps the extrapolation
        # beyond the kappa-fitting window on the safe side.
        sigma = 0.9 * (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
        fit_r = np.linspace(0.0, 15.0, 16)
        logs = np.array(
            [_log_wright(alpha, 1.0 - alpha, float(r), tol=1e-10)[0].log_abs
             for r in fit_r]
        )
        log_kappa = float(np.max(logs + sigma * fit_r ** power))
        worst = 0.0
        for r in np.linspace(15.5, 25.0, 8):
            lv = _log_wright(alpha, 1.0 - alpha, float(r), tol=1e-8)[0]
            if lv.sign <= 0:
                worst = max(worst, 1.0)
                continue
            bound = log_kappa - sigma * float(r) ** power
            worst = max(worst, max(0.0, lv.log_abs - bound))
        cases.append(_Case(f"wright-bound alpha={alpha}", worst, 1e-6))
        small = [specfun.wright_neg(alpha, 1.0 - alpha, -float(r)).value
                 for r in np.linspace(0.0, 4.0, 9)]
        cases.append(
            _Case(
                f"wright-positive alpha={alpha}",
                0.0 if all(v > 0.0 for v in small) else 1.0,
                0.0,
            )
        )
    return cases


def _suite_estimate_lemmas(tol: float) -> list[_Case]:
    cases = []
    for n, alpha in ((2, 0.5), (2, 0.75), (3, 0.4), (4, 0.3)):
        # Cap the grid where E_a(r) ~ exp(r^{1/a}) leaves double range.
        r_cap = min(50.0, 0.98 * 700.0 ** alpha)
        grid = np.geomspace(1e-2, r_cap, 40)
        worst_up = 0.0
        worst_lo = 0.0
        for r in grid:
            r = float(r)
            e = _ml(alpha, r)
            upper = specfun.ml_estimate_rhs("upper", n, alpha, r)
            lower = specfun.ml_estimate_rhs("lower", n, alpha, r)
            worst_up = max(worst_up, _violation(e, upper))
            worst_lo = max(worst_lo, _violation(lower, e))
        cases.append(_Case(f"upper n={n} alpha={alpha}", worst_up, tol))
        cases.append(_Case(f"lower n={n} alpha={alpha}", worst_lo, tol))
    return cases


def _suite_leibniz(tol: float) -> list[_Case]:
    cases = []
    for alpha in (0.4, 0.6):
        for rho in (1.0, 1.5, 2.0):
            for t in (1.0, 5.0):
                for x in (2.0, 5.0, 10.0):
                    try:
                        a = [fourier1d.a_coefficient(k, alpha, rho, t, x)
                             for k in range(4)]
                    except FracFrontError as exc:
                        cases.append(_Case(
                            f"a_k grid a={alpha} rho={rho} t={t} x={x}: {exc}",
                            1.0, 0.0))
                        continue
                    err = 0.0
                    if not all(v > 0.0 for v in a):
                        err = 1.0
                    err = max(err, _violation(a[2], a[1]), _violation(a[3], a[2]))
                    err = max(err, _violation(a[1], 2.0 * a[0]))
                    cases.append(
                        _Case(f"a_k grid a={alpha} rho={rho} t={t} x={x}", err, tol)
                    )
    # Bracketing: odd partial sums below, even above, final value between.
    for alpha, rho, t, x in ((0.5, 1.0, 2.0, 3.0), (0.4, 1.5, 1.0, 5.0)):
        a = [fourier1d.a_coefficient(k, alpha, rho, t, x) for k in range(6)]
        partials = np.cumsum([(-1) ** k * ak for k, ak in enumerate(a)]) / math.pi
        # The partial sums are ~a_6/pi apart, so a 1e-4 limit is ample and
        # avoids the ~sqrt(1/tol) coefficient count of a tight tolerance.
        value = fourier1d.solution_series(alpha, rho, t, x, 1e-4).value
        err = 0.0
        for idx, p in enumerate(partials[:-1]):
            if idx % 2 == 0:
                err = max(err, _violation(value, p))
            else:
                err = max(err, _violation(p, value))
        cases.append(_Case(f"bracketing a={alpha} rho={rho} t={t} x={x}", err, tol))
    # Analytic a_0 lower and a_1 upper bounds.
    for n, alpha, rho, t, x in ((2, 0.5, 1.0, 5.0, 10.0), (3, 0.4, 1.5, 8.0, 20.0)):
        a0 = fourier1d.a_coefficient(0, alpha, rho, t, x)
        bound = fourier1d.a0_lower_bound(n, alpha, rho, t, x)
        cases.append(
            _Case(f"a0-bound n={n} a={alpha} rho={rho} t={t} x={x}",
                  _violation(bound, a0), tol)
        )
    for n, alpha, rho, t, x in ((2, 0.5, 1.0, 5.0, 10.0), (2, 0.75, 2.0, 6.0, 12.0)):
        a1 = fourier1d.a_coefficient(1, alpha, rho, t, x)
        bound = fourier1d.a1_upper_bound(n, alpha, rho, t, x)
        cases.append(
            _Case(f"a1-bound n={n} a={alpha} rho={rho} t={t} x={x}",
                  _violation(a1, bound), tol)
        )
    return cases


def _suite_subordination(tol: float) -> list[_Case]:
    cases = []
    spec = subordination.DEFAULT_SPEC
    for alpha in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0, 5.0):
            mass = subordination.total_mass(alpha, t, spec)
            want = specfun.log_mittag_leffler(alpha, t ** alpha)
            err = abs(mass.log_abs - want.log_abs) / max(abs(want.log_abs), 1.0)
            cases.append(_Case(f"mass alpha={alpha} t={t}", err, tol))
    # Positivity of the subordinated solution for the exact kernels.  The
    # origin is skipped for rho = 1/2: the Cauchy kernel grows like 1/(pi s)
    # at its center as s -> 0 while the subordination weight stays positive
    # there, so u(t, 0) is a genuine divergence, not a quadrature failure.
    for rho in (0.5, 1.0):
        for r in ((1.0, 3.0) if rho == 0.5 else (0.0, 1.0, 3.0)):
            lv = subordination.subordinate(FracParams(0.5, rho, 1), 2.0, r, spec)
            cases.append(
                _Case(f"positive rho={rho} r={r}", 0.0 if lv.sign > 0 else 1.0, 0.0)
            )
    # Truncation self-test: a deeper tail cut must not move the result.
    deep = replace(spec, tail_cut_log=2.0 * spec.tail_cut_log)
    base = subordination.subordinate(FracParams(0.5, 1.0, 1), 2.0, 1.0, spec)
    moved = subordination.subordinate(FracParams(0.5, 1.0, 1), 2.0, 1.0, deep)
    cases.append(
        _Case("tail-cut self-test", abs(base.log_abs - moved.log_abs), spec.rel_tol)
    )
    # Continuity in alpha: close to 1 the classical solution is approached.
    near = subordination.subordinate(FracParams(0.95, 1.0, 1), 1.0, 1.0, spec)
    from .kernels import classical_solution

    classical = classical_solution(FracParams(1.0, 1.0, 1), 1.0, 1.0)
    cases.append(
        _Case("alpha->1 continuity", abs(near.log_abs - classical.log_abs), 0.1)
    )
    return cases


def _suite_representations(tol: float) -> list[_Case]:
    cases = []
    spec = subordination.DEFAULT_SPEC
    for alpha in (0.4, 0.5, 0.8):
        for t in (1.0, 2.0, 5.0):
            for x in (0.0, 1.0, 3.0):
                sub = subordination.subordinate(
                    FracParams(alpha, 1.0, 1), t, x, spec
                ).to_float()
                if x == 0.0:
                    four = fourier1d.solution_at_origin(alpha, 1.0, t).value
                else:
                    # 1e-6 absolute is far inside the 1e-3 agreement target
                    # and avoids the ~1/sqrt(tol) growth of the term count.
                    four = fourier1d.solution_series(alpha, 1.0, t, x, 1e-6).value
                cases.append(
                    _Case(f"dual alpha={alpha} t={t} x={x}", _rel(sub, four), tol)
                )
    return cases


def _suite_asymptotics(tol: float) -> list[_Case]:
    cases = []
    # Exponential leading term of E_a: closer to the computed value at larger
    # z.  Moderate z on purpose; past z ~ 10 the correction terms fall under
    # double rounding and the trend comparison would be noise against noise.
    for alpha in (0.5, 0.7):
        errs = []
        for z in (1.5, 3.0):
            lead = z ** (1.0 / alpha) - math.log(alpha)
            errs.append(abs(math.log(_ml(alpha, z)) - lead) / lead)
        cases.append(_Case(f"ml-leading alpha={alpha}", _violation(errs[1], errs[0]), 0.0))
        cases.append(_Case(f"ml-leading-size alpha={alpha}", errs[1], 1e-3))
    # Negative-axis contour rule against the Laplace-Wright transform at z = -30.
    for alpha in (0.4, 0.6):
        direct = specfun.mittag_leffler(alpha, 1.0, -30.0).value
        (s_f, f_f), _ = _bridge_rule(alpha, 1.0 - alpha)
        quad = float(np.dot(f_f, np.exp(-30.0 * s_f)))
        cases.append(_Case(f"ml-negative-tail alpha={alpha}", _rel(direct, quad), 1e-4))
    # Wright tail leading term within 5% at Y = 25, against the nu = 1/2 closed forms.
    closed = {0.5: math.exp(-25.0) / math.sqrt(math.pi), 1.0: math.erfc(5.0)}
    for mu, exact in closed.items():
        lead = specfun.log_wright_tail(0.5, mu, -10.0).to_float()
        cases.append(_Case(f"wright-tail mu={mu}", _rel(lead, exact), 0.05))
    # Upper incomplete gamma ~ x^{s-1} e^{-x}.
    for s in (-0.5, 0.5, 2.0):
        ratio = specfun.gamma_upper_incomplete(s, 50.0) / (
            50.0 ** (s - 1.0) * math.exp(-50.0)
        )
        # Leading order only: the next term contributes (s-1)/50 here.
        cases.append(_Case(f"gamma-tail s={s}", abs(ratio - 1.0), 0.05))
    # Correction terms of the a_0 / a_1 bounds fade relative to E_a(t^a).
    c0_ratio = []
    c1_ratio = []
    for t in (20.0, 40.0):
        x = 3.0 * t ** 0.25  # keeps x above the 3 pi/2 floor of the a_1 bound
        e = math.exp(specfun.log_mittag_leffler(0.5, math.sqrt(t)).log_abs)
        bound0 = fourier1d.a0_lower_bound(2, 0.5, 1.0, t, x)
        # Recover c_0 from the bound's bracket by subtracting the E terms.
        ell = specfun.dottie()
        pref = (math.cos(ell) / 2.0) * (x / ell) * 0.5 / t
        bracket = bound0 / pref
        c0 = bracket - e + _ml(0.5, math.sqrt(t) * (1.0 - (ell / x) ** 2))
        c0_ratio.append(abs(c0) / e)
        q1 = 1.0 - (math.pi / (2 * x)) ** 2
        q3 = 1.0 - (3 * math.pi / (2 * x)) ** 2
        bound1 = fourier1d.a1_upper_bound(2, 0.5, 1.0, t, x)
        pref1 = (0.5 / (2.0 * math.sqrt(t))) * (2 * x / math.pi)
        c1 = bound1 / pref1 - _ml(0.5, math.sqrt(t) * q1) + _ml(0.5, math.sqrt(t) * q3)
        c1_ratio.append(math.sqrt(t) * abs(c1) / e)
    cases.append(_Case("c0/E trend", _violation(c0_ratio[1], c0_ratio[0]), 0.0))
    cases.append(_Case("t^a c1/E trend", _violation(c1_ratio[1], c1_ratio[0]), 0.0))
    return cases


_SUITES = {
    SuiteName.ML_IDENTITIES: (_suite_ml_identities, 1e-6),
    SuiteName.WRIGHT_IDENTITIES: (_suite_wright_identities, 1e-7),
    SuiteName.ESTIMATE_LEMMAS: (_suite_estimate_lemmas, 1e-9),
    SuiteName.LEIBNIZ_PROPERTIES: (_suite_leibniz, 1e-9),
    SuiteName.SUBORDINATION: (_suite_subordination, 1e-5),
    SuiteName.REPRESENTATIONS: (_suite_representations, 1e-3),
    SuiteName.ASYMPTOTICS: (_suite_asymptotics, 0.05),
}


def run_suite(name, tol_overrides: dict | None = None) -> SuiteReport:
    """Run one named suite (or "all") and report pass counts and worst error.

    tol_overrides maps suite names to replacement default tolerances for
    exploratory runs; acceptance always uses the built-in defaults.
    """
    if not isinstance(name, SuiteName):
        name = SuiteName(str(name).lower())
    overrides = tol_overrides or {}
    if name is SuiteName.ALL:
        sub_names = [s for s in SuiteName if s is not SuiteName.ALL]
    else:
        sub_names = [name]
    cases: list[_Case] = []
    for sub in sub_names:
        fn, default_tol = _SUITES[sub]
        tol = float(overrides.get(sub.value, default_tol))
        cases.extend(fn(tol))
    worst = max(cases, key=lambda c: c.error)
    return SuiteReport(
        suite_name=name.value,
        cases_run=len(cases),
        cases_passed=sum(1 for c in cases if c.passed),
        worst_rel_error=worst.error,
        worst_case_inputs=worst.inputs,
    )
