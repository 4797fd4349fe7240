import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys

from pytest import approx

from fracfront.cli import main
from fracfront.invasion import ExperimentConfig


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fracfront.cli", *args],
        capture_output=True,
        text=True,
    )


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracfront.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True,
        text=True,
    )
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
        for function in (["ml", "--alpha", "0.5", "--beta", "1"],
                         ["wright", "--nu", "0.5", "--mu", "0.5"]):
            for z in ("--z=nan", "--z=-inf"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    assert main(["eval", *function, z]) == 1
                assert "usage error" in err.getvalue()


class TestKernelAndThresholds:
    def test_gaussian_kernel(self):
        proc = run_cli("kernel", "--rho", "1", "--dim", "1", "--t", "1", "--r", "0")
        assert proc.returncode == 0
        log_abs = float(proc.stdout.split("log_abs=")[1])
        assert log_abs == approx(-0.5 * math.log(4.0 * math.pi), abs=1e-9)

    def test_stable_kernel_prints_envelope(self):
        proc = run_cli("kernel", "--rho", "0.7", "--dim", "1", "--t", "1", "--r", "1")
        assert proc.returncode == 0
        assert "lower" in proc.stdout and "upper" in proc.stdout

    def test_thresholds_out_of_integer_range(self):
        # m_alpha passes 2^62 below alpha ~ 0.018: a typed failure, not a
        # traceback.
        proc = run_cli("thresholds", "--alpha", "0.01", "--rho", "1", "--dim", "1")
        assert proc.returncode == 2
        assert "computation failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_thresholds_frozen_values(self):
        proc = run_cli("thresholds", "--alpha", "0.5", "--rho", "1", "--dim", "1")
        assert proc.returncode == 0
        assert "power_lower=1.732050808" in proc.stdout
        assert "power_upper=17.74823935" in proc.stdout
        assert "m_alpha=9" in proc.stdout


class TestSolution:
    def test_routes_agree(self):
        args = ["--alpha", "0.5", "--rho", "1", "--dim", "1", "--t", "1", "--r", "1"]
        out = {}
        for method in ("subordination", "fourier1d"):
            proc = run_cli("solution", *args, "--method", method)
            assert proc.returncode == 0
            out[method] = float(proc.stdout.split("log_abs=")[1].split()[0])
        assert out["subordination"] == approx(out["fourier1d"], abs=1e-3)

    def test_unsupported_route_is_computation_failure(self):
        proc = run_cli(
            "solution", "--alpha", "0.5", "--rho", "0.7", "--dim", "1",
            "--t", "1", "--r", "1", "--method", "subordination",
        )
        assert proc.returncode == 2
        assert "computation failed" in proc.stderr


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
        from fracfront.verify import SuiteReport
        import fracfront.cli as cli

        monkeypatch.setattr(
            cli, "run_suite", lambda name: SuiteReport(name, 3, 2, 1.0, "case")
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "all"]) == 3
