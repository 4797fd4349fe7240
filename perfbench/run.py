"""The fracfront benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload invade-subordination --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A closed loop with one client: fracfront runs in one child process at a time,
each a fresh interpreter, with its thread pools capped at the CPU count.  A
round is one pass over the seed's inputs (one child for an invade workload,
one child per CLI call for cold-eval); rounds repeat while another one brings
the run's end nearer to ``--seconds`` (at least one runs).  Each timing is
built from every operation's slowest time over the rounds, and set-up time is
a median over the run's fresh interpreters.  Outputs are then checked against
independent references (workloads.py).  ``--trace 1`` alternates untraced and
traced rounds instead and reports the per-layer metrics, each a median over
the traced rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the environment.  The full record
(environment, inputs, per-round figures, check results) is written to
``.perfbench_runs/``.  The exit code is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_runs"
CHILD_TIMEOUT_S = 150.0
# Fresh-interpreter imports per invade run for the set-up time, besides the
# import of every round's child.
SETUP_PROBES = 3
# Every Wright call on invade-fourier comes from bridge builds, each a
# 64-panel and a 32-panel rule of 32 Gauss nodes.
WRIGHT_CALLS_PER_BUILD = 64 * 32 + 32 * 32


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(mode, job, env):
    """Run one child to completion; returns (parsed result, wall from spawn)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from exc
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_import"] - t_spawn
    return result, wall


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed, inputs):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": nproc(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_commit": git_commit(),
        "thread_caps": {k: v for k, v in child_env().items() if k.endswith("_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
        "inputs": inputs,
    }


# ---------------------------------------------------------------------------
# rounds


def invade_round(inputs, env, trace_path=None, run_id=""):
    job = {"cells": inputs, "trace": str(trace_path or ""), "run_id": run_id}
    result, _ = run_child("invade", job, env)
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall": result["t_end"] - result["t_import"],
        "cpu": result["cpu_s"],
        "ops": [c["wall"] for c in result["cells"]],
        "cpu_ops": [c["cpu"] for c in result["cells"]],
        "outputs": result["cells"],
        "setup": [result["setup_s"]],
        "rss_kb": ru.ru_maxrss,
        "trace": [result["trace"]] if trace_path else [],
    }


def cold_round(inputs, env, trace_path=None, run_id=""):
    cpu0, t0 = children_cpu(), time.monotonic()
    ops, cpu_ops, outputs, setup, traces = [], [], [], [], []
    for i, argv in enumerate(inputs):
        path = f"{trace_path}.{i}" if trace_path else ""
        cpu_start = children_cpu()
        try:
            result, wall = run_child("cli", {"argv": argv, "trace": path,
                                             "run_id": f"{run_id}.{i}"}, env)
        except ChildFailed as exc:
            ops.append(None)
            cpu_ops.append(None)
            outputs.append({"exit": None, "stdout": "", "error": str(exc)})
            continue
        ops.append(wall)
        cpu_ops.append(children_cpu() - cpu_start)
        setup.append(result["setup_s"])
        outputs.append({"exit": result["exit"], "stdout": result["stdout"]})
        if trace_path:
            traces.append(result["trace"])
    return {
        "wall": time.monotonic() - t0,
        "cpu": children_cpu() - cpu0,
        "ops": ops,
        "cpu_ops": cpu_ops,
        "outputs": outputs,
        "setup": setup,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": traces,
    }


def setup_probes(module, env, count=SETUP_PROBES):
    return [run_child("probe", {"module": module}, env)[0]["setup_s"]
            for _ in range(count)]


# ---------------------------------------------------------------------------
# checks


def check_outputs(workload, seed, inputs, rounds, env):
    """Failure flags per unit of every round, plus a list of problems."""
    problems, flags = [], []
    if workload == "cold-eval":
        notes = {}
        for rnd in rounds:
            for argv, out in zip(inputs, rnd["outputs"]):
                key = (tuple(argv), out["stdout"])
                if out["exit"] != 0:
                    bad = [f"{' '.join(argv)}: exit {out['exit']} {out.get('error', '')}"]
                else:
                    if key not in notes:
                        notes[key] = workloads.check_call(argv, out["stdout"])
                    bad = [f"{' '.join(argv)}: {p}" for p in notes[key]]
                flags.append(bool(bad))
                problems += bad
        return flags, problems

    first = rounds[0]["outputs"]
    offsets = []
    for rnd in rounds:
        for cell, out, ref in zip(inputs, rnd["outputs"], first):
            if len(offsets) < len(inputs):
                offsets.append(len(flags))
            bad, cell_probs = workloads.cell_problems(cell, out)
            if out.get("samples") != ref.get("samples"):
                cell_probs.append("samples differ between rounds of one seed")
                bad = [True] * len(bad)
            flags += bad
            problems += [f"cell {cell}: {p}" for p in cell_probs]
    points = workloads.cross_points(workload, seed, inputs, first)
    if points:
        try:
            values = run_child("cross", {"points": points}, env)[0]["values"]
        except ChildFailed as exc:
            return flags, problems + [f"cross-route check: {exc}"]
        for p, other in zip(points, values):
            mine = p["log_u"]
            if (mine is None or other is None or mine[0] != other[0]
                    or abs(mine[1] - other[1]) > workloads.CROSS_ROUTE_TOL):
                problems.append(f"cross-route {p}: other route gave {other}")
                flags[offsets[p["cell"]] + p["sample"]] = True
    return flags, problems


def structural_checks(workload, counts):
    problems = []
    if workload == "invade-subordination":
        if counts["ml.calls"] != 0 or counts["bridge.builds"] != 0:
            problems.append("Mittag-Leffler work on the subordination route: "
                            f"{counts['ml.calls']} calls, {counts['bridge.builds']} builds")
    if workload == "invade-fourier":
        if counts["kernels.calls"] != 0:
            problems.append(f"{counts['kernels.calls']} kernel calls on the Fourier route")
        if counts["wright.calls"] != WRIGHT_CALLS_PER_BUILD * counts["bridge.builds"]:
            problems.append(
                f"{counts['wright.calls']} Wright calls for {counts['bridge.builds']} "
                f"bridge builds (expected {WRIGHT_CALLS_PER_BUILD} each)")
    if counts["bridge.builds"] != counts["bridge.misses"]:
        problems.append("bridge spans disagree with _bridge_rule cache misses")
    return problems


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """(percentile, value) at the highest percentile with >= 10 values beyond it."""
    n = len(values)
    pct = max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0
    if pct == 0 or n < 2:
        return pct, max(values, default=0.0)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(traces, setup_cli, overhead):
    counts = {}
    for tr in traces:
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
    samples = [s for tr in traces for s in tr["samples"]]
    commands = [c for tr in traces for c in tr["commands"]]
    pct, tail = tail_percentile(samples)

    def per_call(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {
        "specfun.ml.calls": (counts["ml.calls"], "count"),
        "specfun.ml.self_s": (counts["ml.self_s"], "s"),
        "specfun.ml.terms": (counts["ml.terms"], "count"),
    }
    for regime in ("taylor", "asym_neg", "asym_pos", "bridge"):
        metrics[f"specfun.ml.regime.{regime}"] = (counts[f"ml.regime.{regime}"], "count")
    metrics.update({
        "specfun.wright.calls": (counts["wright.calls"], "count"),
        "specfun.wright.self_s": (counts["wright.self_s"], "s"),
        "specfun.bridge.builds": (counts["bridge.misses"], "count"),
        "specfun.bridge.build_s": (counts["bridge.build_s"], "s"),
        "specfun.tailfit.builds": (counts["tailfit.builds"], "count"),
        "kernels.calls": (counts["kernels.calls"], "count"),
        "kernels.self_s": (counts["kernels.self_s"], "s"),
        "subordination.calls": (counts["subordination.calls"], "count"),
        "subordination.self_s": (counts["subordination.self_s"], "s"),
        "subordination.integrand_per_call": (
            per_call("subordination.wright_calls", "subordination.calls"), "count/call"),
        "fourier1d.calls": (counts["fourier1d.calls"], "count"),
        "fourier1d.self_s": (counts["fourier1d.self_s"], "s"),
        "fourier1d.terms_per_call": (per_call("fourier1d.terms", "fourier1d.calls"),
                                     "count/call"),
        "fourier1d.ml_per_call": (per_call("fourier1d.ml_calls", "fourier1d.calls"),
                                  "count/call"),
        "invasion.cells": (counts["invasion.cells"], "count"),
        "invasion.samples": (counts["invasion.samples"], "count"),
        "invasion.self_s": (counts["invasion.self_s"], "s"),
        "invasion.sample_p50_s": (statistics.median(samples) if samples else 0.0, "s"),
        "invasion.sample_tail_s": (tail, "s"),
        "invasion.sample_tail_pct": (pct, "%"),
        "cli.import_s": (statistics.median(setup_cli), "s"),
        "cli.command_s": (statistics.median(commands) if commands else 0.0, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return metrics, counts


def e2e_metrics(rounds, setup):
    """End-to-end metrics of a run; every timing is built from each
    operation's slowest time over the run's rounds.

    On a shared host this code runs at a steady usual speed broken by bursts
    of extra speed, and a run catches more or fewer of them: an operation's
    faster times say how many bursts it caught, its slowest how long it takes
    at the usual speed (README.md, Steadiness).  ``wall_s`` and ``cpu_s`` are
    one round's time, the sum over its operations; ``op_p50_s`` is the median
    over operations.
    """
    def slowest(key):
        return [max(t for t in col if t is not None)
                for col in zip(*(r[key] for r in rounds))
                if any(t is not None for t in col)]

    walls = slowest("ops")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(slowest("cpu_ops")), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in rounds) / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload, seed, seconds, trace):
    env = child_env()
    inputs = workloads.generate(workload, seed)
    record = {"workload": workload, "trace": trace,
              "environment": environment(seed, inputs)}
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}{'-trace' if trace else ''}"
    one_round = cold_round if workload == "cold-eval" else invade_round
    invade = workload != "cold-eval"

    rounds, problems, setup, setup_cli = [], [], [], []
    try:
        if invade:
            setup = setup_probes("fracfront", env)
            if trace:
                setup_cli = setup_probes("fracfront.cli", env)
        span_dir = OUT / f"{tag}-spans"
        if trace:
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir()
        # Another round (a traced run: another untraced and traced pair, so a
        # slow spell of the machine falls on both kinds) while it should bring
        # the run's end nearer to its seconds: the rounds fill the run on
        # average, and each operation's slowest time is taken over as many of
        # them as fit.
        step = 2 if trace else 1
        t0 = time.monotonic()
        while True:
            n = len(rounds)
            path = span_dir / f"spans{n}.tsv" if trace and n % 2 else None
            rounds.append(one_round(inputs, env, path, f"{tag}.{n}"))
            elapsed = time.monotonic() - t0
            if (n + 1) % step == 0 and elapsed + 0.5 * step * elapsed / (n + 1) >= seconds:
                break
    except ChildFailed as exc:
        problems.append(str(exc))
    # Every round child is a fresh interpreter too, so its import is a sample.
    setup += [s for rnd in rounds for s in rnd["setup"]]
    if not invade:
        setup_cli = setup

    flags, check_problems = check_outputs(workload, seed, inputs, rounds, env) \
        if rounds else ([], [])
    problems += check_problems
    attempted = max(len(flags), 1)
    failed = sum(flags) if rounds else attempted

    metrics = {}
    if trace and len(rounds) >= 2:
        plain, traced = rounds[0::2], rounds[1::2]
        overhead = (statistics.median(r["wall"] for r in traced)
                    - statistics.median(r["wall"] for r in plain))
        per_round = [layer_metrics(r["trace"], setup_cli, overhead) for r in traced]
        counts = per_round[0][1]
        metrics = {k: (statistics.median(m[k][0] for m, _ in per_round), unit)
                   for k, (_, unit) in per_round[0][0].items()}
        if any(c[k] != counts[k] for _, c in per_round for k in counts
               if not k.endswith("_s")):
            problems.append("traced rounds of one seed gave different counts")
        problems += structural_checks(workload, counts)
        record["trace_counts"] = counts
        record["spans"] = str(span_dir.relative_to(ROOT))
    elif not trace and rounds and setup:
        metrics = e2e_metrics(rounds, setup)

    record.update(
        rounds=[{k: r[k] for k in ("wall", "cpu", "ops", "cpu_ops", "setup", "rss_kb",
                                   "outputs")}
                for r in rounds],
        setup_s=setup,
        problems=problems,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    record["environment"]["loadavg_end"] = os.getloadavg()
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={workload} seed={seed} rounds={len(rounds)} "
          f"ops={sum(t is not None for r in rounds for t in r['ops'])} units={attempted} "
          f"trace={int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ({failed}/{attempted} units)")
    env_line = {k: record["environment"][k] for k in (
        "nproc", "loadavg_start", "loadavg_end", "python", "numpy", "scipy",
        "mpmath", "git_commit", "thread_caps", "seed")}
    print("  env " + json.dumps(env_line))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracfront" / "__init__.py").is_file():
        print(f"no fracfront sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{k}": v for w, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
