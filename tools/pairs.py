"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python tools/pairs.py BASE HEAD --workload W [--pairs N] [--seed S] [--out FILE]
    python tools/pairs.py BASE HEAD --workload W --trace [--seed S] [--out FILE]

BASE and HEAD are directories that each hold a checkout of the repository
(a `git worktree` is enough).  Pair i runs

    perfbench/run.py --workload W --seed S+i --seconds R --trace 0

in each tree, with this Python and PYTHONDONTWRITEBYTECODE=1, where R is
the run_seconds of the trees' BENCHMARK.json; trees that disagree on it
end the tool with a usage error (exit 2).  The side that runs first
alternates from pair to pair, BASE first in pair 0.  The last line of each
run's standard output is read as JSON.  A run that exits non-zero or reads
"correct": false ends the runs with a message naming the side, the seed
and the exit code, and the tool exits 1.

Per metric it prints the BASE and HEAD medians with their quartiles, the
change of the median in percent and the number of pairs in which HEAD read
lower.  --trace instead runs one pair at seed S with --trace 1 (--pairs is
not read) and compares every metric whose unit is count, slots, cells or
ratio for equality: it prints each one that differs with both values and
exits 1 if any does.

--out FILE writes the machine (nproc, CPU, Python, numpy), and under the
workload's name every run's JSON object, the failed run (side, seed, exit
code and its JSON, or null) and the summary (the count comparison with
--trace), which is null when a run failed; the other workloads of an
existing FILE are kept, so one file can hold them all.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("base", "head")
# the units of the metrics that count work, which a traced pair compares
COUNT_UNITS = ("count", "slots", "cells", "ratio")


def run_seconds(tree: Path):
    """The run_seconds of tree's BENCHMARK.json, or None if it declares none."""
    try:
        return json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run_once(tree: Path, args, seed: int) -> tuple[int, dict | None]:
    """The exit code of one benchmark run in tree and its last stdout line, read as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload]
    cmd += ["--seed", str(seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(int(args.trace))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change, HEAD's wins."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [by_pair[i] for i in sorted(by_pair)]
    summary = {}
    for name, entry in pairs[0]["base"].items():
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        row = {"unit": entry["unit"]}
        for side, xs in values.items():
            q1, _, q3 = xs * 3 if len(xs) == 1 else statistics.quantiles(xs, method="inclusive")
            row[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
        base = row["base"]["median"]
        row["change_pct"] = 100 * (row["head"]["median"] - base) / base if base else None
        row["head_lower"] = sum(h < b for b, h in zip(values["base"], values["head"]))
        summary[name] = row
    return summary


def compare_counts(runs: list[dict]) -> dict:
    """Per count metric of a traced pair: its unit, both values, whether they are equal."""
    sides = {r["side"]: r["result"]["metrics"] for r in runs}
    summary = {}
    for name, entry in {**sides["base"], **sides["head"]}.items():
        if entry["unit"] in COUNT_UNITS:
            base, head = (sides[side].get(name, {}).get("value") for side in SIDES)
            summary[name] = {
                "unit": entry["unit"], "base": base, "head": head, "equal": base == head
            }
    return summary


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line for line in fh if line.startswith("model name"))
            cpu = next(names).split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(), "numpy": numpy}


def _side(x: dict) -> str:
    return f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}]"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="paired benchmark runs of two checkouts")
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="compare one traced pair's counts")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"{side} {getattr(args, side)} holds no perfbench/run.py")
    seconds = [run_seconds(getattr(args, side)) for side in SIDES]
    for side, s in zip(SIDES, seconds):
        if s is None:
            p.error(f"{side} {getattr(args, side)} holds no BENCHMARK.json with run_seconds")
    if seconds[0] != seconds[1]:
        p.error(f"base and head disagree on run_seconds: {seconds[0]} and {seconds[1]}")
    args.seconds = seconds[0]
    if args.trace:
        args.pairs = 1  # traced counts do not vary from run to run
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    runs, failed = run_pairs(args)
    summary = None
    if failed is None:
        summary = compare_counts(runs) if args.trace else summarize(runs)
        (print_counts if args.trace else print_summary)(summary, args)
    if args.out:
        out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
        out["machine"] = machine()
        out["workloads"][args.workload] = {
            "base": str(args.base),
            "head": str(args.head),
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "trace": args.trace,
            "runs": runs,
            "failed": failed,
            "summary": summary,
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if failed is not None:
        return 1
    return int(args.trace and not all(row["equal"] for row in summary.values()))


def run_pairs(args) -> tuple[list[dict], dict | None]:
    """Every run made, in order, and the run that failed, if one did."""
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES[:: 1 if i % 2 == 0 else -1]:
            code, result = run_once(getattr(args, side), args, seed)
            if code or result is None or result.get("correct") is not True:
                print(
                    f"pairs: the {side} run of seed {seed} failed "
                    f"(exit code {code}, correct: {result and result.get('correct')})",
                    file=sys.stderr,
                )
                failed = {"pair": i, "side": side, "seed": seed, "exit_code": code}
                return runs, dict(failed, result=result)
            runs.append({"pair": i, "side": side, "seed": seed, "result": result})
            print(f"pair {i} seed {seed}: {side} done", file=sys.stderr)
    return runs, None


def print_summary(summary: dict, args) -> None:
    last = args.seed + args.pairs - 1
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{last}")
    header = f"{'metric':<14} {'base median [q1, q3]':<30} {'head median [q1, q3]':<30}"
    print(f"{header} change  head lower")
    for name, row in summary.items():
        change = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        print(
            f"{name:<14} {_side(row['base']):<30} {_side(row['head']):<30} "
            f"{change:>6}  {row['head_lower']} of {args.pairs}"
        )


def print_counts(summary: dict, args) -> None:
    differ = {name: row for name, row in summary.items() if not row["equal"]}
    equal = len(summary) - len(differ)
    print(
        f"{args.workload}: traced pair, seed {args.seed}: "
        f"{equal} of {len(summary)} count metrics equal"
    )
    for name, row in differ.items():
        print(f"{name}: base {row['base']!r}, head {row['head']!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
