import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys

from pytest import approx

from fracfront.cli import main
from fracfront.invasion import ExperimentConfig


# The child interpreters import fracfront from this checkout's src/, whether
# or not the package is installed.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
_ENV = {**os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_ENV)


def run_cli(*args):
    return _python("-m", "fracfront.cli", *args)


def test_import_loads_no_scipy():
    # Nor mpmath, which only the alpha = 1 closed form and the incomplete
    # gamma import, when they run.
    proc = _python(
        "-c",
        "import sys, fracfront.cli;"
        " print([m for m in sys.modules if m.startswith(('scipy', 'mpmath'))])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eval_loads_only_special_functions():
    # The package namespace and the CLI import a module when a name or
    # command needs it, so a cold ``eval`` skips the quadratures.
    proc = _python(
        "-c",
        "import sys, fracfront, fracfront.cli\n"
        "fracfront.cli.main(['eval', 'ml', '--alpha', '0.5', '--beta', '1', '--z', '-2'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('fracfront.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(
        ["fracfront.cli", "fracfront.errors", "fracfront.logvalue", "fracfront.specfun"])


def test_lazy_namespace_and_parser_choices():
    import fracfront
    from fracfront import cli
    from fracfront.invasion import Method
    from fracfront.verify import SuiteName

    assert cli._METHODS == tuple(m.value for m in Method)
    assert cli._SUITES == tuple(s.value for s in SuiteName)
    for name in fracfront.__all__:
        assert getattr(fracfront, name) is not None
    assert fracfront.run_experiment.__module__ == "fracfront.invasion"
    assert set(fracfront.__all__) <= set(dir(fracfront))


def test_routes_load_no_numpy_ma():
    # np.unique and friends import numpy.ma lazily, which costs the
    # benchmark's children about 1 MB; no route of the package may pull it.
    proc = _python(
        "-c",
        "import sys, fracfront.cli\n"
        "from fracfront import FracParams\n"
        "from fracfront.fourier1d import solution_series\n"
        "from fracfront.specfun import wright_neg\n"
        "from fracfront.subordination import subordinate, subordinate_envelope\n"
        "subordinate(FracParams(0.6, 1.0, 1), 2.0, 1.5)\n"
        "subordinate_envelope(0.7, 0.3, 2, 2.0, 1.5)\n"
        "subordinate(FracParams(0.6, 1.5, 1), 5.0, 1.0)\n"
        "solution_series(0.6, 2.0, 2.0, 1.0, 1e-6)\n"
        "wright_neg(0.6, 0.4, -3.0)\n"
        "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestEval:
    def test_ml_point(self):
        proc = run_cli("eval", "ml", "--alpha", "0.5", "--beta", "1", "--z", "1")
        assert proc.returncode == 0
        assert "value=5.008980081" in proc.stdout
        assert "abs_error_bound=" in proc.stdout

    def test_wright_point(self):
        proc = run_cli("eval", "wright", "--nu", "0.5", "--mu", "0.5", "--z", "-1")
        assert proc.returncode == 0
        assert "value=0.4393912895" in proc.stdout

    def test_ml_point_at_alpha_one(self):
        # E_{1,2}(-20) = (e^{-20} - 1)/(-20): the 1F1 closed form, since the
        # negative-axis contour rule needs alpha < 1.
        proc = run_cli("eval", "ml", "--alpha", "1", "--beta", "2", "--z", "-20")
        assert proc.returncode == 0
        assert f"value={math.expm1(-20.0) / -20.0:.10g}" in proc.stdout

    def test_ml_point_past_double_range(self):
        # z^{1/alpha} = 1e400 overflows; the value is reported as inf.
        proc = run_cli("eval", "ml", "--alpha", "0.05", "--beta", "1", "--z", "1e20")
        assert proc.returncode == 0, proc.stderr
        assert "value=inf" in proc.stdout

    def test_ml_tiny_argument_above_unit_beta(self):
        # log(R e^p) leaves double range, E_{0.05,2}(1e-16) is about 1.
        proc = run_cli("eval", "ml", "--alpha", "0.05", "--beta", "2", "--z", "1e-16")
        assert proc.returncode == 0, proc.stderr
        assert "value=1 " in proc.stdout

    def test_usage_error_on_bad_alpha(self):
        proc = run_cli("eval", "ml", "--alpha", "2", "--beta", "1", "--z", "1")
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_usage_error_on_missing_flag(self):
        proc = run_cli("eval", "ml", "--alpha", "0.5", "--beta", "1")
        assert proc.returncode == 1

    def test_usage_error_on_positive_wright_argument(self):
        proc = run_cli("eval", "wright", "--nu", "0.5", "--mu", "0.5", "--z", "1")
        assert proc.returncode == 1

    def test_usage_error_on_non_finite_argument(self):
        argvs = [
            ["eval", *function, z]
            for function in (["ml", "--alpha", "0.5", "--beta", "1"],
                             ["wright", "--nu", "0.5", "--mu", "0.5"])
            for z in ("--z=nan", "--z=-inf")
        ]
        argvs += [
            ["kernel", "--rho", "1", "--dim", "1", "--t", "nan", "--r", "1"],
            ["kernel", "--rho", "1", "--dim", "1", "--t", "1", "--r", "inf"],
            ["thresholds", "--alpha", "0.5", "--rho", "nan", "--dim", "1"],
            ["invade", "--alpha", "0.5", "--rho", "1", "--profile", "power",
             "--m", "nan", "--beta", "0.5"],
            ["invade", "--alpha", "0.5", "--rho", "1", "--profile", "power",
             "--m", "1", "--beta", "0.5", "--t-end", "inf"],
            ["solution", "--alpha", "0.5", "--rho", "1", "--dim", "1",
             "--t", "1", "--r", "nan"],
        ]
        for argv in argvs:
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                assert main(argv) == 1, argv
            assert "usage error" in err.getvalue()
            assert "must be finite" in err.getvalue()
            assert out.getvalue() == ""


class TestKernelAndThresholds:
    def test_gaussian_kernel(self):
        proc = run_cli("kernel", "--rho", "1", "--dim", "1", "--t", "1", "--r", "0")
        assert proc.returncode == 0
        log_abs = float(proc.stdout.split("log_abs=")[1])
        assert log_abs == approx(-0.5 * math.log(4.0 * math.pi), abs=1e-9)

    def test_stable_kernel_prints_envelope(self):
        proc = run_cli("kernel", "--rho", "0.7", "--dim", "1", "--t", "1", "--r", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("envelope sign=+1 log_abs=")
        assert len(proc.stdout.splitlines()) == 1

    def test_stable_kernel_past_squared_radius_overflow(self):
        # r^2 leaves double range at r = 1e160; the envelope does not.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["kernel", "--rho", "0.7", "--dim", "1", "--t", "2", "--r", "1e160"]) == 0
        log_abs = float(out.getvalue().split("log_abs=")[1])
        assert log_abs == approx(math.log(2.0) - 2.4 * math.log(1e160), abs=1e-6)

    def test_higher_order_kernel_past_segment_guard(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["kernel", "--rho", "1.5", "--dim", "1", "--t", "1", "--r", "1e20"]) == 2
        assert "did not terminate" in err.getvalue()

    def test_no_kernel_is_usage_error(self):
        # rho > 1 has an exact kernel in d = 1 only, and no envelope.
        proc = run_cli("kernel", "--rho", "1.5", "--dim", "2", "--t", "1", "--r", "1")
        assert proc.returncode == 1
        assert "usage error: no exact kernel" in proc.stderr

    def test_thresholds_out_of_integer_range(self):
        # m_alpha passes 2^62 below alpha ~ 0.018: a typed failure, not a
        # traceback.
        proc = run_cli("thresholds", "--alpha", "0.01", "--rho", "1", "--dim", "1")
        assert proc.returncode == 2
        assert "computation failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_thresholds_usage_errors(self):
        # The checks of FracParams and gamma_alpha, as usage errors.
        for (alpha, rho, dim), message in ((("1", "1", "1"), "alpha must be in (0,1)"),
                                           (("0.5", "-1", "1"), "rho must be positive"),
                                           (("0.5", "1", "0"), "dim must be >= 1")):
            argv = ["thresholds", "--alpha", alpha, "--rho", rho, "--dim", dim]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 1, argv
            assert f"usage error: {message}" in err.getvalue()

    def test_thresholds_frozen_values(self):
        proc = run_cli("thresholds", "--alpha", "0.5", "--rho", "1", "--dim", "1")
        assert proc.returncode == 0
        assert "power_lower=1.732050808" in proc.stdout
        assert "power_upper=17.74823935" in proc.stdout
        assert "m_alpha=9" in proc.stdout


class TestSolution:
    def test_routes_agree(self):
        # At r = 0 the Fourier route is the one integral at the origin.
        for r in ("1", "0"):
            args = ["--alpha", "0.5", "--rho", "1", "--dim", "1", "--t", "1", "--r", r]
            out = {}
            for method in ("subordination", "fourier1d"):
                proc = run_cli("solution", *args, "--method", method)
                assert proc.returncode == 0
                assert "value=" in proc.stdout
                out[method] = float(proc.stdout.split("log_abs=")[1].split()[0])
            assert out["subordination"] == approx(out["fourier1d"], abs=1e-3)

    def test_envelope_prints_one_line(self):
        proc = run_cli(
            "solution", "--alpha", "0.5", "--rho", "0.7", "--dim", "1",
            "--t", "1", "--r", "1", "--method", "envelope",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("envelope sign=+1 log_abs=")
        assert len(proc.stdout.splitlines()) == 1

    def test_fourier_route_is_log_domain(self):
        # u is about e^757 here, past double range: the Fourier route sums
        # the series in log space, as the trajectory does, and agrees with
        # the subordination route.
        args = ["--alpha", "0.9", "--rho", "2", "--dim", "1", "--t", "760"]
        for r in ("1", "0"):
            out = {}
            for method in ("subordination", "fourier1d"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(["solution", *args, "--r", r, "--method", method]) == 0
                lines = buf.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("solution sign=+1 log_abs=")
                out[method] = float(lines[0].split("log_abs=")[1])
            assert out["fourier1d"] == approx(out["subordination"], rel=1e-9)

    def test_alpha_one(self):
        # The classical solution e^t K_t(r) on the subordination route, and
        # e^t times the envelope shape on the envelope route.
        for rho, method, label, want in (
                ("1", "subordination", "solution", 2.0 - 0.5 * math.log(8.0 * math.pi) - 9.0 / 8.0),
                ("0.5", "envelope", "envelope", 2.0 + math.log(2.0) - math.log(13.0))):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["solution", "--alpha", "1", "--rho", rho, "--dim", "1",
                             "--t", "2", "--r", "3", "--method", method]) == 0
            first = buf.getvalue().splitlines()[0]
            assert first.startswith(f"{label} sign=+1 log_abs=")
            assert float(first.split("log_abs=")[1]) == approx(want, abs=1e-9)

    def test_unsupported_route_is_computation_failure(self):
        # Every route mismatch, on the route table's message.
        for rho, dim, method in (("0.7", "1", "subordination"), ("0.7", "1", "fourier1d"),
                                 ("1", "2", "fourier1d"), ("1", "1", "envelope")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(["solution", "--alpha", "0.5", "--rho", rho, "--dim", dim,
                             "--t", "1", "--r", "1", "--method", method]) == 2
            assert "computation failed" in err.getvalue() and "route" in err.getvalue()


class TestInvade:
    BASE = [
        "invade", "--alpha", "0.5", "--rho", "1", "--dim", "1",
        "--profile", "power", "--m", "1", "--beta", "0.5",
        "--t-start", "5", "--t-end", "20", "--n-samples", "6",
    ]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = run_cli(*self.BASE, "--output", str(out), "--format", "csv")
        assert proc.returncode == 0
        assert "verdict=diverging" in proc.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "t,theta,sign,log_u,method"
        assert len(lines) == 7
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)
        # No temp files left behind by the atomic write.
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_json_round_trip_is_byte_stable(self, tmp_path):
        out = tmp_path / "run.json"
        proc = run_cli(*self.BASE, "--output", str(out), "--format", "json")
        assert proc.returncode == 0
        raw = out.read_text()
        parsed = json.loads(raw)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == raw
        assert parsed["classification"]["verdict"] == "diverging"
        assert len(parsed["samples"]) == 6

    def test_config_file(self, tmp_path):
        config = {
            "params": {"alpha": 0.5, "rho": 1.0, "dim": 1},
            "profile": {"kind": "power", "m": 1.0, "beta": 0.5},
            "t_start": 5.0,
            "t_end": 20.0,
            "n_samples": 6,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("invade", "--config", str(path))
        assert proc.returncode == 0
        assert "verdict=diverging" in proc.stdout

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {"alpha": 0.5, "rho": 1.0, "dim": 1},
                                    "profile": {"kind": "power", "m": 1.0, "beta": 0.5},
                                    "t_stop": 20.0}))
        proc = run_cli("invade", "--config", str(path))
        assert proc.returncode == 1
        assert "t_stop" in proc.stderr

    def test_malformed_config_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        nan_rho = json.dumps({"params": {"alpha": 0.5, "rho": math.nan},
                              "profile": {"kind": "power", "m": 1.0, "beta": 0.5}})
        for text in ("[1, 2]", "{", nan_rho):
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["invade", "--config", str(path)]) == 1
            assert "usage error: bad config" in err.getvalue()

    def test_unknown_method_in_config_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {"alpha": 0.5, "rho": 1.0, "dim": 1},
                                    "profile": {"kind": "power", "m": 1.0, "beta": 0.5},
                                    "method": "bogus"}))
        proc = run_cli("invade", "--config", str(path))
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_fractional_n_samples_in_config_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {"alpha": 0.5, "rho": 1.0, "dim": 1},
                                    "profile": {"kind": "power", "m": 1.0, "beta": 0.5},
                                    "n_samples": 4.5}))
        proc = run_cli("invade", "--config", str(path))
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_fractional_dim_in_config_is_usage_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {"alpha": 0.5, "rho": 1.0, "dim": 1.5},
                                    "profile": {"kind": "power", "m": 1.0, "beta": 0.5}}))
        proc = run_cli("invade", "--config", str(path))
        assert proc.returncode == 1
        assert "usage error: bad config: dim must be an integer" in proc.stderr

    def test_left_out_flags_take_the_config_defaults(self, tmp_path):
        # No --dim, --n-samples, --t-end, --method or --format: the values
        # come from FracParams and ExperimentConfig, not from the parser.
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        out = tmp_path / "run.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "invade", "--alpha", "0.5", "--rho", "1", "--profile", "power",
                "--m", "1", "--beta", "0.5", "--t-start", "40",
                "--output", str(out),
            ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,theta,sign,log_u,method"
        assert len(lines) - 1 == defaults["n_samples"]
        assert float(lines[-1].split(",")[0]) == approx(defaults["t_end"])
        assert {line.split(",")[-1] for line in lines[1:]} == {defaults["method"]}

    def test_missing_flags_listed(self):
        proc = run_cli("invade", "--alpha", "0.5")
        assert proc.returncode == 1
        assert "--rho" in proc.stderr and "--profile" in proc.stderr


class TestVerifyCommand:
    def test_suite_pass_in_process(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", "--suite", "wright-identities", "--json"])
        assert code == 0
        payload = json.loads(buf.getvalue())
        assert payload["cases_passed"] == payload["cases_run"]

    def test_failing_suite_exits_three(self, monkeypatch):
        import fracfront.verify as verify

        # The verify command imports run_suite from its module when it runs.
        monkeypatch.setattr(
            verify, "run_suite", lambda name: verify.SuiteReport(name, 3, 2, 1.0, "case")
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "all"]) == 3
