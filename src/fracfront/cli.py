"""Command-line front end.

Subcommands: eval ml / eval wright (point evaluations), kernel, solution,
invade (trajectory experiments with CSV/JSON export), thresholds, verify.
Exit codes: 0 success, 1 usage error, 2 computation failure, 3 verify-suite
failure.  Each command imports the modules it uses, so ``eval`` does not
load the quadratures, the invasion experiments or the verify suites.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

from .errors import DomainError, FracFrontError, Unsupported
from .logvalue import LogValue
from .specfun import mittag_leffler, wright_neg

# The values of invasion.Method and verify.SuiteName, spelled out so that
# building the parser imports neither module.
_METHODS = ("subordination", "fourier1d", "envelope")
_SUITES = ("ml-identities", "wright-identities", "estimate-lemmas", "leibniz-properties",
           "subordination", "representations", "asymptotics", "all")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _print_logvalue(label: str, lv: LogValue) -> None:
    print(f"{label} sign={lv.sign:+d} log_abs={_fmt(lv.log_abs)}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracfront")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="point evaluation of special functions")
    eval_sub = p_eval.add_subparsers(dest="function", required=True)
    p_ml = eval_sub.add_parser("ml")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, required=True)
    p_ml.add_argument("--z", type=float, required=True)
    p_wr = eval_sub.add_parser("wright")
    p_wr.add_argument("--nu", type=float, required=True)
    p_wr.add_argument("--mu", type=float, required=True)
    p_wr.add_argument("--z", type=float, required=True)

    p_kernel = sub.add_parser("kernel", help="classical diffusion kernel at (t, r)")
    p_kernel.add_argument("--rho", type=float, required=True)
    p_kernel.add_argument("--dim", type=int, required=True)
    p_kernel.add_argument("--t", type=float, required=True)
    p_kernel.add_argument("--r", type=float, required=True)

    p_sol = sub.add_parser("solution", help="fundamental solution at (t, r)")
    p_sol.add_argument("--alpha", type=float, required=True)
    p_sol.add_argument("--rho", type=float, required=True)
    p_sol.add_argument("--dim", type=int, required=True)
    p_sol.add_argument("--t", type=float, required=True)
    p_sol.add_argument("--r", type=float, required=True)
    p_sol.add_argument("--method", choices=_METHODS, default="subordination")

    # No defaults here: a flag left out takes the FracParams or
    # ExperimentConfig default.
    p_inv = sub.add_parser("invade", help="invasion-speed experiment")
    p_inv.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p_inv.add_argument("--alpha", type=float)
    p_inv.add_argument("--rho", type=float)
    p_inv.add_argument("--dim", type=int)
    p_inv.add_argument("--profile", choices=["power", "exponential"])
    p_inv.add_argument("--m", type=float)
    p_inv.add_argument("--beta", type=float)
    p_inv.add_argument("--t-start", type=float)
    p_inv.add_argument("--t-end", type=float)
    p_inv.add_argument("--n-samples", type=int)
    p_inv.add_argument("--method", choices=_METHODS)
    p_inv.add_argument("--output")
    p_inv.add_argument("--format", choices=["csv", "json"])

    p_thr = sub.add_parser("thresholds", help="analytic invasion thresholds")
    p_thr.add_argument("--alpha", type=float, required=True)
    p_thr.add_argument("--rho", type=float, required=True)
    p_thr.add_argument("--dim", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run identity/inequality suites")
    p_ver.add_argument("--suite", required=True, choices=_SUITES)
    p_ver.add_argument("--json", action="store_true")
    return parser


def _experiment_config(raw: dict) -> ExperimentConfig:
    """The ExperimentConfig of the nested dict a --config file holds, or the
    invade flags make; keys left out take the dataclass defaults."""
    from .invasion import ExperimentConfig, ProfileKind, SpeedProfile
    from .kernels import FracParams

    if not isinstance(raw, dict):
        raise _UsageError(f"bad config: not a JSON object: {raw!r}")
    try:
        for label, section, cls in (("config", raw, ExperimentConfig),
                                    ("params", raw.get("params", {}), FracParams),
                                    ("profile", raw.get("profile", {}), SpeedProfile)):
            unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise _UsageError(f"unknown {label} keys: {sorted(unknown)}")
        profile = {**raw["profile"], "kind": ProfileKind(raw["profile"]["kind"])}
        return ExperimentConfig(**{**raw, "params": FracParams(**raw.get("params", {})),
                                   "profile": SpeedProfile(**profile)})
    except (KeyError, ValueError, TypeError, DomainError) as exc:
        raise _UsageError(f"bad config: {exc}") from exc


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracfront-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _samples_csv(samples) -> str:
    lines = ["t,theta,sign,log_u,method"]
    for s in sorted(samples, key=lambda s: s.t):
        if s.log_u is None:
            sign, log_u = 0, math.nan
        else:
            sign, log_u = s.log_u.sign, s.log_u.log_abs
        lines.append(
            f"{_fmt(s.t)},{_fmt(s.theta)},{sign},{_fmt(log_u)},{s.method.value}"
        )
    return "\n".join(lines) + "\n"


def _report_json(report) -> str:
    """Every field of the report, enums by value, and one row per sample."""
    payload = dataclasses.asdict(report)
    payload["samples"] = [
        {
            "t": s.t,
            "theta": s.theta,
            "sign": 0 if s.log_u is None else s.log_u.sign,
            "log_u": None if s.log_u is None else s.log_u.log_abs,
            "method": s.method.value,
            "failure": s.failure,
        }
        for s in sorted(report.samples, key=lambda s: s.t)
    ]
    return json.dumps(payload, sort_keys=True, indent=2, default=lambda e: e.value) + "\n"


def _cmd_eval(args) -> int:
    if args.function == "ml":
        if not 0.0 < args.alpha <= 1.0 or args.beta <= 0.0:
            raise _UsageError("require 0 < alpha <= 1 and beta > 0")
        res = mittag_leffler(args.alpha, args.beta, args.z)
    else:
        if not 0.0 < args.nu < 1.0:
            raise _UsageError("require 0 < nu < 1")
        if args.z > 0.0:
            raise _UsageError("wright evaluation requires z <= 0")
        res = wright_neg(args.nu, args.mu, args.z)
    print(
        f"value={_fmt(res.value)} abs_error_bound={_fmt(res.abs_error_bound)} "
        f"terms={res.terms_used} regime={res.regime.value}"
    )
    return 0


def _point_params(alpha: float, args) -> FracParams:
    """FracParams(alpha, rho, dim) of ``args`` after its point (t, r); a
    DomainError is a usage error."""
    from .kernels import FracParams, _check_point

    try:
        _check_point(args.t, args.r)
        return FracParams(alpha, args.rho, args.dim)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_kernel(args) -> int:
    from .kernels import exact_kernel, kernel, stable_envelope

    _point_params(1.0, args)
    if exact_kernel(args.rho, args.dim):
        _print_logvalue("kernel", kernel(args.rho, args.dim, args.t, args.r))
        return 0
    try:
        _print_logvalue("envelope", stable_envelope(args.rho, args.t, args.r, args.dim))
    except Unsupported as exc:
        raise _UsageError(f"no exact kernel for rho = {args.rho} in dimension {args.dim}") from exc
    return 0


def _cmd_solution(args) -> int:
    from .invasion import Method, _point_log_u

    params = _point_params(args.alpha, args)
    method = Method(args.method)
    lv = _point_log_u(params, args.t, args.r, method)
    if method is Method.ENVELOPE:
        _print_logvalue("envelope", lv)
        return 0
    _print_logvalue("solution", lv)
    if lv.sign != 0 and abs(lv.log_abs) < 700.0:
        print(f"value={_fmt(lv.to_float())}")
    return 0


def _cmd_invade(args) -> int:
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"bad config: {exc}") from exc
    else:
        missing = [flag for flag in ("--alpha", "--rho", "--profile", "--m", "--beta")
                   if getattr(args, flag[2:]) is None]
        if missing:
            raise _UsageError(f"missing required flags: {' '.join(missing)}")

        def given(**fields):
            return {key: value for key, value in fields.items() if value is not None}

        raw = given(
            params=given(alpha=args.alpha, rho=args.rho, dim=args.dim),
            profile=given(kind=args.profile, m=args.m, beta=args.beta),
            t_start=args.t_start, t_end=args.t_end, n_samples=args.n_samples,
            method=args.method, output_path=args.output, format=args.format,
        )
    from .invasion import run_experiment

    config = _experiment_config(raw)
    report = run_experiment(config)
    print(
        f"verdict={report.classification.verdict.value} "
        f"slope={_fmt(report.classification.slope)} "
        f"predicted={report.predicted} "
        f"agreement={report.agreement}"
    )
    if config.output_path:
        if config.format == "csv":
            _atomic_write(config.output_path, _samples_csv(report.samples))
        else:
            _atomic_write(config.output_path, _report_json(report))
        print(f"wrote {config.output_path}")
    return 0


def _cmd_thresholds(args) -> int:
    from .invasion import thresholds

    if not 0.0 < args.alpha < 1.0:
        raise _UsageError("require 0 < alpha < 1")
    if args.rho <= 0.0 or args.dim < 1:
        raise _UsageError("require rho > 0 and dim >= 1")
    rep = thresholds(args.alpha, args.rho, args.dim)
    for name, value in dataclasses.asdict(rep).items():
        print(f"{name}={value if isinstance(value, int) else _fmt(value)}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2))
    else:
        print(
            f"suite={report.suite_name} passed={report.cases_passed}/"
            f"{report.cases_run} worst_rel_error={_fmt(report.worst_rel_error)} "
            f"worst_case={report.worst_case_inputs}"
        )
    return 0 if report.passed else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise _UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "solution":
            return _cmd_solution(args)
        if args.command == "invade":
            return _cmd_invade(args)
        if args.command == "thresholds":
            return _cmd_thresholds(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FracFrontError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
