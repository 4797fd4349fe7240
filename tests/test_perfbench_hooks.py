"""The names the benchmark's child process looks up in the package.

perfbench/child.py rebinds module attributes of fracfront from outside to
trace calls between layers, reads the cache statistics of two
lru_cache'd build functions, maps the regime of each traced
Mittag-Leffler result, and computes the cross-route check through the
package's one-point calls; a deleted or renamed name, a changed signature,
or a regime it cannot map should fail here, not in a benchmark run.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import fracfront

ROOT = pathlib.Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import fracfront.cli
from fracfront import specfun
import child

for name in ("_bridge_rule", "_wright_tail_correction"):
    getattr(specfun, name).cache_info()
child.install_tracer(child.Tracer("t"))
print("ok")
"""

# One ``eval ml`` call per Mittag-Leffler regime, traced: z = 0, the alpha = 1
# closed form, the contour, and a value past double range.
_TRACED_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = ["src", "perfbench"]
import fracfront.cli
import child

tracer = child.Tracer("t")
child.install_tracer(tracer)
for alpha, z in (("0.5", "0"), ("1", "-2"), ("0.5", "-2"), ("0.5", "30")):
    with contextlib.redirect_stdout(io.StringIO()):
        assert fracfront.cli.main(["eval", "ml", "--alpha", alpha, "--beta", "1", "--z", z]) == 0
counts = child.summarize(tracer.spans)[0]
print(json.dumps({key: counts[key] for key in counts if key.startswith("ml.")}))
"""


def test_child_tracer_finds_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_child_tracer_maps_every_ml_regime():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SCRIPT], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["ml.calls"] == 4
    assert (counts["ml.regime.taylor"], counts["ml.regime.bridge"],
            counts["ml.regime.asym_pos"]) == (2, 1, 1)
    assert counts["ml.terms"] == 1  # the one term at z = 0


def test_child_cross_check_runs_both_routes():
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    point = {"alpha": 0.5, "rho": 2.0, "t": 2.0, "x": 1.0}
    values = child._run_cross(fracfront, [{**point, "route": "fourier1d"},
                                          {**point, "route": "subordination"}])["values"]
    # The two routes agree within the benchmark's cross-route tolerance.
    (fourier_sign, fourier_log), (sub_sign, sub_log) = values
    assert fourier_sign == sub_sign == 1
    assert abs(fourier_log - sub_log) <= 1e-3
