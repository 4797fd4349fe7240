"""One fresh interpreter of the fracfront benchmark.

run.py starts this script once per timed unit of work, so the per-alpha
caches of ``fracfront.specfun`` (``_bridge_rule``, ``_wright_tail_correction``)
start cold, as they do for every ``fracfront`` invocation and every new sweep
script.  Usage:

    python3 perfbench/child.py probe  '{"module": "fracfront"}'
    python3 perfbench/child.py invade '{"cells": [...], "trace": "spans.tsv"}'
    python3 perfbench/child.py cli    '{"argv": [...], "trace": ""}'
    python3 perfbench/child.py cross  '{"points": [...]}'

The last line of standard output is one JSON object.  ``t_import`` is the
``time.monotonic()`` reading (a system-wide clock on Linux) at which the import
of the package finished, so the parent can time set-up from its own spawn.
A non-empty ``trace`` path installs the boundary tracer before the work and
writes the spans there afterwards.
"""

import time

_T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


# ---------------------------------------------------------------------------
# boundary tracer


class Tracer:
    """Spans around calls between fracfront modules, recorded from outside.

    Each boundary name is rebound in the module that calls through it, so the
    package itself is unchanged.  A span is ``[name, start, end, parent,
    info]``; spans stay in memory until ``write``.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = [-1]

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, module, attr, name, info=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.spans[idx][4] = info(result)
            return result

        setattr(module, attr, traced)

    def wrap_build(self, module, attr, name):
        """Span only the calls of an lru_cache'd build function that miss the cache."""
        fn = getattr(module, attr)

        def traced(*args):
            misses = fn.cache_info().misses
            idx = self.open(name)
            try:
                return fn(*args)
            finally:
                self.close(idx)
                if fn.cache_info().misses == misses:
                    # A hit calls nothing, so its span is still the last one.
                    del self.spans[idx]

        setattr(module, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart\tend\tinfo\n")
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(
                    f"{self.run_id}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t"
                    f"{'' if info is None else json.dumps(info)}\n"
                )


_REGIMES = {
    "taylor-series": "taylor",
    "asymptotic-neg": "asym_neg",
    "asymptotic-pos": "asym_pos",
    "quadrature": "bridge",
}


def install_tracer(tracer):
    """Wrap the boundary names the benchmark attributes to each layer."""
    from fracfront import fourier1d, invasion, specfun, subordination

    def ml_info(result):
        if isinstance(result, specfun.EvalResult):
            return [_REGIMES[result.regime.value], result.terms_used]
        return None

    boundaries = [
        (invasion, "_point_log_u", "invasion.sample", None),
        (invasion, "subordinate", "subordination.subordinate", None),
        (invasion, "subordinate_envelope", "subordination.envelope", None),
        (invasion, "_solution_series_log", "fourier1d.series", lambda r: r[2]),
        (invasion, "log_mittag_leffler", "specfun.ml", None),
        (invasion, "classical_solution", "kernels.classical", None),
        (subordination, "_log_wright", "specfun.wright", lambda r: "subordination"),
        (subordination, "classical_solution", "kernels.classical", None),
        (subordination, "stable_envelope", "kernels.stable_envelope", None),
        (fourier1d, "mittag_leffler", "specfun.ml", ml_info),
        (fourier1d, "log_mittag_leffler", "specfun.ml", None),
        # Reached from log_mittag_leffler, so a log-domain call's regime is
        # that of the evaluation it delegates to.
        (specfun, "mittag_leffler", "specfun.ml", ml_info),
        # Reached from the bridge build, which is where it is attributed.
        (specfun, "_log_wright", "specfun.wright", None),
    ]
    cli = sys.modules.get("fracfront.cli")
    if cli is not None:
        boundaries += [
            (cli, "main", "cli.main", None),
            (cli, "mittag_leffler", "specfun.ml", ml_info),
            (cli, "wright_neg", "specfun.wright", None),
        ]
    for module, attr, name, info in boundaries:
        tracer.wrap(module, attr, name, info)
    tracer.wrap_build(specfun, "_bridge_rule", "specfun.bridge")


def summarize(spans):
    """Additive per-layer counts and self times of one child's spans.

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    ml_child_regime = {}
    for name, _, _, parent, info in spans:
        if name == "specfun.ml" and info and parent >= 0:
            ml_child_regime.setdefault(parent, info[0])
    out = {key: 0 for key in (
        "ml.calls", "ml.terms", "ml.regime.taylor", "ml.regime.asym_neg",
        "ml.regime.asym_pos", "ml.regime.bridge", "wright.calls",
        "bridge.builds", "kernels.calls", "subordination.calls",
        "subordination.wright_calls", "fourier1d.calls", "fourier1d.terms",
        "fourier1d.ml_calls", "invasion.cells", "invasion.samples",
    )}
    for key in ("ml.self_s", "wright.self_s", "bridge.build_s", "kernels.self_s",
                "subordination.self_s", "fourier1d.self_s", "invasion.self_s"):
        out[key] = 0.0
    samples, commands = [], []
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        own = dur - covered[i]
        layer = name.split(".")[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "specfun.ml":
            out["ml.self_s"] += own
            if info:
                out["ml.terms"] += info[1]
            if parent_name != "specfun.ml":
                out["ml.calls"] += 1
                regime = info[0] if info else ml_child_regime.get(i, "asym_pos")
                out["ml.regime." + regime] += 1
                if parent_name == "fourier1d.series":
                    out["fourier1d.ml_calls"] += 1
        elif name == "specfun.wright":
            out["wright.calls"] += 1
            out["wright.self_s"] += own
            if info == "subordination":
                out["subordination.wright_calls"] += 1
        elif name == "specfun.bridge":
            out["bridge.builds"] += 1
            out["bridge.build_s"] += dur
        elif layer == "kernels":
            out["kernels.calls"] += 1
            out["kernels.self_s"] += own
        elif layer == "subordination":
            out["subordination.calls"] += 1
            out["subordination.self_s"] += own
        elif layer == "fourier1d":
            out["fourier1d.calls"] += 1
            out["fourier1d.self_s"] += own
            out["fourier1d.terms"] += info
        elif layer == "invasion":
            out["invasion.self_s"] += own
            if name == "invasion.cell":
                out["invasion.cells"] += 1
            else:
                out["invasion.samples"] += 1
                samples.append(dur)
        elif name == "cli.main":
            commands.append(dur)
    out["spans"] = len(spans)
    return out, samples, commands


# ---------------------------------------------------------------------------
# jobs


def _lv(lv):
    return None if lv is None else [lv.sign, lv.log_abs]


def _run_cells(ff, cells, tracer):
    from fracfront import invasion

    results = []
    for cell in cells:
        config = ff.ExperimentConfig(
            params=ff.FracParams(cell["alpha"], cell["rho"], cell["dim"]),
            profile=ff.SpeedProfile(ff.ProfileKind(cell["kind"]), cell["m"], cell["beta"]),
            t_start=cell["t_start"],
            t_end=cell["t_end"],
            n_samples=cell["n_samples"],
            method=cell["method"],
        )
        t0, cpu0 = time.monotonic(), time.process_time()
        idx = tracer.open("invasion.cell") if tracer else None
        try:
            report = invasion.run_experiment(config)
        except ff.FracFrontError as exc:
            report, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(idx)
        wall, cpu = time.monotonic() - t0, time.process_time() - cpu0
        if report is None:
            results.append({"wall": wall, "cpu": cpu, "error": error})
            continue
        results.append({
            "wall": wall,
            "cpu": cpu,
            "verdict": report.classification.verdict.value,
            "predicted": report.predicted,
            "agreement": report.agreement,
            "samples": [
                [s.t, s.theta, _lv(s.log_u), s.failure] for s in report.samples
            ],
        })
    return {"cells": results}


def _run_cli(argv):
    from fracfront import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _run_cross(ff, points):
    """The other route's log u at sampled points, for the agreement check."""
    from fracfront import fourier1d

    values = []
    for p in points:
        params = ff.FracParams(p["alpha"], p["rho"], 1)
        if p["route"] == "subordination":
            lv = ff.subordinate(params, p["t"], p["x"])
        else:
            # The tolerance rule of the fourier1d trajectory route.
            scale = ff.log_mittag_leffler(p["alpha"], p["t"] ** p["alpha"]).log_abs
            tol = math.exp(min(scale - 22.0, 700.0))
            lv = fourier1d._solution_series_log(p["alpha"], p["rho"], p["t"], p["x"], tol)[0]
        values.append(_lv(lv))
    return {"values": values}


def main():
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    if mode == "probe":
        __import__(job["module"])
        print(json.dumps({"t_start": _T_START, "t_import": time.monotonic()}))
        return 0
    if mode == "cli":
        import fracfront.cli  # noqa: F401
    import fracfront as ff

    t_import = time.monotonic()
    cpu_import = time.process_time()
    from fracfront import specfun

    bridge_rule, tail_fit = specfun._bridge_rule, specfun._wright_tail_correction
    bridge_misses = bridge_rule.cache_info().misses
    tail_misses = tail_fit.cache_info().misses
    tracer = None
    if job.get("trace"):
        tracer = Tracer(job["run_id"])
        install_tracer(tracer)
    if mode == "invade":
        result = _run_cells(ff, job["cells"], tracer)
    elif mode == "cli":
        result = _run_cli(job["argv"])
    else:
        result = _run_cross(ff, job["points"])
    result.update(
        t_start=_T_START,
        t_import=t_import,
        t_end=time.monotonic(),
        cpu_s=time.process_time() - cpu_import,
    )
    if tracer:
        counts, samples, commands = summarize(tracer.spans)
        counts["tailfit.builds"] = tail_fit.cache_info().misses - tail_misses
        counts["bridge.misses"] = bridge_rule.cache_info().misses - bridge_misses
        result["trace"] = {"counts": counts, "samples": samples, "commands": commands}
        tracer.write(job["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
