#!/usr/bin/env python3
"""plantsim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-loop --seed 0 --seconds 15 --trace 0

Workloads: sim-loop, sim-decide, oracle (see workloads.py and README.md).
The program is imported from ``src/`` next to this directory.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
the workload untraced and then traced, prints the per-layer metrics and
the tracing overhead, and writes the traced spans to
``perfbench/_run/spans-<workload>-s<seed>.json``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every correctness gate
passed, 1 when one failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 3
# Per workload, the report names of stages a and b, and for the simulation
# stages the name of their slot rate.
STAGE_NAMES = {
    "sim-loop": (("episode", "slots_per_s"), ("playback_episode", "playback_slots_per_s")),
    "sim-decide": (("episode", "slots_per_s"), ("playback_episode", "playback_slots_per_s")),
    "oracle": (("frame", None), ("brute", None)),
}


def _parse(argv):
    p = argparse.ArgumentParser(description="plantsim benchmark")
    p.add_argument("--workload", required=True, choices=sorted(STAGE_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny",
        action="store_true",
        help="shrink episodes and the wide-fail pivot guard (self-test only)",
    )
    return p.parse_args(argv)


def _machine(np) -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"machine: nproc={usable} cpu_count={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} numpy={np.__version__}"
    )


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def _import_fresh(src: str) -> None:
    """Import the program in a fresh interpreter, as a command line run does."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import plantsim.cli"], env=env, timeout=120, check=True
    )


def _measure(workloads, args, workdir, tracer, setup_repeats):
    """Set up setup_repeats times, then run the workload once.

    Returns the median set-up time (import in a fresh interpreter plus
    instance generation, scenario writing, loading and validation), the
    workload's wall time, both at the reference speed, and its Run record.
    """
    import numpy as np

    setup, work = workloads.WORKLOADS[args.workload]
    scale = args.seconds / workloads.BASE_SECONDS
    setup_times = []
    for _ in range(setup_repeats):
        before = workloads.calibrate()
        t0 = perf_counter()
        if tracer is None:
            _import_fresh(os.path.join(ROOT, "src"))
        data = setup(np.random.default_rng(args.seed), workdir, ROOT, scale, args.tiny)
        dt = perf_counter() - t0
        slowdown = (before + workloads.calibrate()) / (2 * workloads.CALIBRATION_REF_S)
        setup_times.append(dt / slowdown)
    run = workloads.Run(tracer=tracer)
    t0 = perf_counter()
    work(data, run, args.seed, scale, args.tiny)
    wall = perf_counter() - t0
    run.notes.append(
        f"raw wall {wall:.3f} s; machine slowdown against the reference speed "
        f"{run.busy_raw / run.busy_scaled:.3f} (time-weighted)"
    )
    return statistics.median(setup_times), wall - run.busy_raw + run.busy_scaled, run


def _report(args, run, wall):
    """Human-readable lines: every metric under its README name, gates, notes."""
    lines = [f"  wall_s = {wall:.3f} s"]
    for kind, (label, rate_name) in zip(("lp", "a", "b"), (("lp", None), *STAGE_NAMES[args.workload])):
        xs = run.scaled.get(kind)
        if not xs:
            continue
        p50 = _pct(xs, 50)
        line = (
            f"  {label}_p50_ms = {1e3 * p50:.4f} ms   "
            f"{label}_p90_ms = {1e3 * _pct(xs, 90):.4f} ms   (n={len(xs)}; "
            f"raw p50 {1e3 * _pct(run.times[kind], 50):.4f} ms)"
        )
        if rate_name:
            slots = run.work[kind] / len(xs)
            line += f"   {rate_name} = {slots / p50:.1f} 1/s ({slots:.0f} slots per episode)"
        lines.append(line)
    for t in run.scaled.get("wide", []):
        lines.append(f"  wide_lp_s = {t:.4f} s")
    failed = len(run.failures)
    lines.append(f"  fail_frac = {failed / max(1, run.attempted):.6f}   ({failed} of {run.attempted} operations)")
    for kind, exc, msg, secs in run.failures:
        lines.append(f"  failure: {kind}: {exc}: {msg} ({secs:.3f} s)")
    lines += [f"  {n}" for n in run.notes]
    bad = [g for g in run.gates if not g[1]]
    lines.append(f"  gates: {len(run.gates) - len(bad)} passed, {len(bad)} failed")
    lines += [f"  GATE FAILED: {name} {detail}" for name, _, detail in bad]
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import numpy as np
        import plantsim
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import the program from {src}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(plantsim.__file__).startswith(src + os.sep):
        print(f"perfbench: plantsim was imported from {plantsim.__file__}, not {src}", file=sys.stderr)
        return 2

    print(_machine(np))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    run_dir = os.path.join(HERE, "_run")
    workdir = os.path.join(run_dir, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s, wall, run = _measure(
            workloads, args, workdir, None, 1 if args.trace else SETUP_REPEATS
        )
        runs = [run]
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                _, traced_wall, run = _measure(workloads, args, workdir, tracer, 1)
            finally:
                tracer.uninstall()
            runs.append(run)
            spans_path = os.path.join(run_dir, f"spans-{args.workload}-s{args.seed}.json")
            tracer.write_spans(spans_path)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = (traced_wall - wall, "s")
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
            if tracer.count["knapsack_unclassified"]:
                print(f"decide_purchase calls not classified: {tracer.count['knapsack_unclassified']:.0f}")
            print(f"tracing overhead: traced wall {traced_wall:.3f} s - untraced wall {wall:.3f} s")
            print("traced pass:")
            wall = traced_wall
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall, "s"),
                "lp_p50_ms": (1e3 * _pct(run.scaled.get("lp", []), 50), "ms"),
                "lp_p90_ms": (1e3 * _pct(run.scaled.get("lp", []), 90), "ms"),
                "a_p50_ms": (1e3 * _pct(run.scaled.get("a", []), 50), "ms"),
                "b_p50_ms": (1e3 * _pct(run.scaled.get("b", []), 50), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in _report(args, run, wall):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = all(
        r.gates
        and all(ok for _, ok, _ in r.gates)
        and all(workloads.known_defect(exc, msg) for _, exc, msg, _ in r.failures)
        for r in runs
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
