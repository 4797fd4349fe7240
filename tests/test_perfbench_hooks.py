"""The names the benchmark's child process looks up in the package.

perfbench/child.py rebinds module attributes of fracfront from outside to
trace calls between layers, and reads the cache statistics of two
lru_cache'd build functions; a deleted or renamed name should fail here, not in a
benchmark run.
"""

import pathlib
import subprocess
import sys

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


def test_child_tracer_finds_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
