"""Benchmark of the ranksinr command line: curves, sweeps and oracle workloads.

    python3 benchmarks/run.py --workload curves --seed 0 --seconds 20 --trace 0

One run is one fresh process that measures one workload:

1. set-up: ``import ranksinr`` plus cold weight tables for every antenna
   pair the workload uses, the tables built three times; ``setup_s`` is
   the import plus the median build;
2. the high-precision reference for every op, outside any timing;
3. the timed phase: whole passes over the workload's op list, as many
   as fill ``--seconds`` at a nominal pace (``workloads.passes_for``;
   the count depends on the arguments, not the clock, so the same seed
   always attempts, and fails, the same ops).  Each op is one
   ``ranksinr`` CLI command, called in process through
   ``ranksinr.cli.main(argv)`` on a generated config file and writing
   its output to a scratch file.  The load is a closed loop of one
   caller in one process with one BLAS thread.  Timings are scaled to a reference machine speed
   (``speed.py``); the unscaled percentiles are printed beside them.
   The latency percentiles are taken over ops, each op at its best time
   over the passes; the throughput counts every pass;
4. every output is checked against the reference (``checks.py`` has the
   failure rule);
5. with ``--trace 1``, the same number of passes again with spans
   recorded around the library's public functions, then the fixed
   baseline probe; the per-layer metrics come from those spans.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` the
per-layer ones).  The run exits 2 without a result when the checkout has
no ``src/ranksinr``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# work units per workload, as named in the human-readable output
WORK_NAMES = {
    "curves": ("curve_points_per_s", "points/s"),
    "sweeps": ("thresholds_per_s", "1/s"),
    "oracle": ("mc_samples_per_s", "samples/s"),
}


def one_blas_thread() -> int:
    """Pin BLAS to one thread and return the CPU count.

    Must run before numpy is imported.  No op here is large enough to
    gain from a second BLAS thread (oracle measured no slower with one),
    while OpenBLAS gives a second thread its own ~50 MB buffer when it
    first runs, which made the peak RSS of one seed differ between runs.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, seed: int, n_ops: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "git_commit": git_commit(),
        "seed": seed,
        "ops_per_pass": n_ops,
        "load": "closed loop, 1 caller, 1 process",
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs ops through the CLI in process and keeps their results."""

    def __init__(self, ops, workdir: Path, speed):
        from ranksinr import cli

        self.cli = cli
        self.ops = ops
        self.speed = speed
        self.workdir = workdir
        self.cfg_paths = []
        for i, op in enumerate(ops):
            path = workdir / f"config_{i:03d}.json"
            path.write_text(json.dumps(op.config))
            self.cfg_paths.append(str(path))
        self.out_path = workdir / "out.txt"
        self.tracer = None  # when set, spans are tagged with the running op

    def run_op(self, i: int) -> dict:
        op, out = self.ops[i], self.out_path
        if out.exists():
            out.unlink()
        argv = op.argv(self.cfg_paths[i], str(out))
        if self.tracer is not None:
            self.tracer.op = op.id
        err = io.StringIO()
        self.speed.tick()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            error = err.getvalue()
        except SystemExit as exc:  # argparse refusals
            code, error = exc.code, err.getvalue()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.speed.tick()
        text = out.read_text() if out.exists() else None
        last = next((ln for ln in reversed(error.splitlines()) if ln.strip()), "")
        return {"op": i, "start": t0, "end": t1, "code": code, "text": text, "error": last}

    def passes(self, count: int) -> list[dict]:
        """`count` whole passes over the ops.

        Each result's latency is scaled to the reference machine speed.
        """
        results = [self.run_op(i) for _ in range(count) for i in range(len(self.ops))]
        self.speed.sample()
        for r in results:
            r["latency"] = (r["end"] - r["start"]) * self.speed.factor(r["start"], r["end"])
        return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("curves", "sweeps", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ranksinr" / "__init__.py").is_file():
        print(f"no ranksinr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = one_blas_thread()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import ranksinr  # noqa: F401  (timed: part of set-up)
    from ranksinr import wishart

    t_import = time.perf_counter()
    import checks
    import speed
    import workloads

    ops = workloads.build_ops(args.workload, args.seed)
    pairs = workloads.antenna_pairs(ops)
    clock = speed.SpeedLog()
    clock.sample()
    spans = []
    for _ in range(SETUP_REPEATS):
        wishart.compute_weights.cache_clear()
        t0 = time.perf_counter()
        for n_r, n_t in pairs:
            wishart.compute_weights(n_r, n_t)
        spans.append((t0, time.perf_counter()))
        clock.sample()
    import_s = (t_import - T_START) * clock.factor(T_START, t_import)
    weights_s = [(b - a) * clock.factor(a, b) for a, b in spans]
    setup_s = import_s + statistics.median(weights_s)

    env = environment(nproc, args.seed, len(ops))
    print(f"ranksinr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    t0 = time.perf_counter()
    book = checks.ReferenceBook(lambda n_r, n_t: wishart.compute_weights(n_r, n_t).weights)
    expected = [checks.classify(op, book) for op in ops]
    print(f"reference: {time.perf_counter() - t0:.2f} s before timing; "
          f"tolerances {json.dumps(checks.TOLERANCES)}")

    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(ops, workdir, clock)
        n_passes = workloads.passes_for(args.workload, args.seconds)
        results = runner.passes(n_passes)
        traced = traced_phase(runner, n_passes, clock) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = results + (traced[1] if traced else [])
    verdicts = [checks.check(ops[r["op"]], r["code"], r["text"], r["error"], book)
                for r in all_results]
    for r, v in zip(all_results, verdicts):
        r["verdict"] = v
    failed = [r for r in all_results if not r["verdict"].ok]
    unexpected = [r for r in failed if not expected[r["op"]]]
    report_failures(ops, failed, expected)
    print(f"passes={n_passes} ops_per_pass={len(ops)} attempted={len(all_results)} "
          f"failed={len(failed)} (ill-conditioned class: {len(failed) - len(unexpected)}, "
          f"other: {len(unexpected)})")

    if args.trace:
        spans, traced_results, probe_spans = traced
        overhead = (sum(r["latency"] for r in traced_results)
                    / sum(r["latency"] for r in results) - 1.0)
        metrics = per_layer(spans, probe_spans, overhead, clock)
    else:
        metrics = end_to_end(args.workload, ops, results, setup_s, weights_s, import_s)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_phase(runner: Runner, n_passes: int, clock):
    """The same passes with spans recorded, then the baseline probe."""
    import tracing

    tracer, probe = tracing.Tracer(), tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        results = runner.passes(n_passes)
    finally:
        runner.tracer = None
        tracer.uninstall()
    probe.install()
    try:
        tracing.run_probe(probe, clock.sample)
    finally:
        probe.uninstall()
    return tracer.spans, results, probe.spans


def report_failures(ops, failed, expected) -> None:
    seen: dict[int, list] = {}
    for r in failed:
        seen.setdefault(r["op"], []).append(r)
    for i, rs in seen.items():
        op = ops[i]
        tag = "ill-conditioned class" if expected[i] else "UNEXPECTED"
        print(f"failed {op.id} {op.command} {op.size} {op.config['own_mode']} "
              f"x{len(rs)} [{tag}]: {rs[0]['verdict'].reason}")


def end_to_end(workload, ops, results, setup_s, weights_s, import_s) -> dict:
    import checks

    # an op's latency is its best over the passes: a slow moment on the
    # shared host then has to hit the same op in every pass to show
    best: dict[int, dict] = {}
    for r in results:
        if r["op"] not in best or r["latency"] < best[r["op"]]["latency"]:
            best[r["op"]] = r
    lat_ms = [r["latency"] * 1e3 for r in best.values()]
    raw_ms = [(r["end"] - r["start"]) * 1e3 for r in best.values()]
    work = sum(checks.work_units(ops[r["op"]]) for r in results)
    passed = sum(r["verdict"].ok for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(r["latency"] for r in results)
    wall = sum(r["end"] - r["start"] for r in results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (quantile(lat_ms, 90), "ms"),
        "pass_share": (passed / len(results), "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
        "work_per_s": (work / busy, "1/s"),
    }
    name, unit = WORK_NAMES[workload]
    n, n_ops = len(results), len(best)
    beyond = n_ops - int(0.9 * n_ops)
    print(f"setup_s            {setup_s:.4f} s  (import {import_s:.3f} s + median of "
          f"{len(weights_s)} cold weight builds {statistics.median(weights_s):.3f} s)")
    print(f"op_p50_ms          {metrics['op_p50_ms'][0]:.4f} ms  (n={n_ops} ops, each the best "
          f"of {n // n_ops} passes, failed included; unscaled {statistics.median(raw_ms):.4f} ms)")
    print(f"op_p90_ms          {metrics['op_p90_ms'][0]:.4f} ms  (n={n_ops}, {beyond} beyond p90; "
          f"unscaled {quantile(raw_ms, 90):.4f} ms"
          + ("; fewer than 10, read as a tail bound" if beyond < 10 else "") + ")")
    print(f"fail_share         {1 - passed / n:.4f}  ({n - passed}/{n} ops failed)")
    print(f"pass_share         {passed / n:.4f}")
    print(f"peak_rss_mb        {rss_mb:.1f} MB")
    print(f"{name:<18} {work / busy:.6g} {unit}  ({work} requested by {n} ops in "
          f"{busy:.3f} s of op time; {wall:.3f} s unscaled; reported as work_per_s)")
    return metrics


def per_layer(spans, probe_spans, overhead: float, clock) -> dict:
    import tracing

    for s in spans + probe_spans:
        s.scale = clock.factor(s.start, s.end)
    values = tracing.layer_metrics(spans, probe_spans)
    out = {}
    for name, (value, source) in sorted(values.items()):
        unit = tracing.unit_of(name)
        out[name] = (value, unit)
        print(f"{name:<44} {value:.6g} {unit}  ({source})")
    out["trace.overhead_share"] = (overhead, "fraction")
    print(f"{'trace.overhead_share':<44} {overhead:.4f} fraction  "
          "(traced / untraced op time of the same passes - 1)")
    print("baseline table (ROADMAP), rebuilt from the per-layer metrics above; "
          f"tracing overhead {overhead:+.1%}:")
    print(tracing.baseline_table({k: v for k, (v, _) in out.items()}))
    return out


if __name__ == "__main__":
    sys.exit(main())
