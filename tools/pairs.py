"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python tools/pairs.py BASE HEAD --workload W [--pairs N] [--seed S] [--out FILE]

BASE and HEAD are directories that each hold a checkout of the repository
(a `git worktree` is enough).  Pair i runs

    perfbench/run.py --workload W --seed S+i --seconds 15 --trace 0

in each tree, with this Python and PYTHONDONTWRITEBYTECODE=1; the side that
runs first alternates from pair to pair, BASE first in pair 0.  The last
line of each run's standard output is read as JSON.  A run that exits
non-zero or reads "correct": false ends the runs with a message naming the
side, the seed and the exit code, and the tool exits 1.

Per metric it prints the BASE and HEAD medians with their quartiles, the
change of the median in percent and the number of pairs in which HEAD read
lower.  --out FILE writes the machine (nproc, CPU, Python, numpy), and
under the workload's name every run's JSON object, the failed run (side,
seed, exit code and its JSON, or null) and the summary, which is null when
a run failed; the other workloads of an existing FILE are kept, so one
file can hold them all.  Standard library only.
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


def run_once(tree: Path, workload: str, seed: int) -> tuple[int, dict | None]:
    """The exit code of one benchmark run in tree and its last stdout line, read as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "15", "--trace", "0"]
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
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"{side} {getattr(args, side)} holds no perfbench/run.py")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    runs, failed = run_pairs(args)
    summary = None
    if failed is None:
        summary = summarize(runs)
        print_summary(summary, args)
    if args.out:
        out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
        out["machine"] = machine()
        out["workloads"][args.workload] = {
            "base": str(args.base),
            "head": str(args.head),
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "runs": runs,
            "failed": failed,
            "summary": summary,
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if failed is None else 1


def run_pairs(args) -> tuple[list[dict], dict | None]:
    """Every run made, in order, and the run that failed, if one did."""
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES[:: 1 if i % 2 == 0 else -1]:
            code, result = run_once(getattr(args, side), args.workload, seed)
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
