#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Runs every workload at tiny size, untraced and traced, and checks that
each run exits 0 with a final JSON line whose metrics are exactly the ones
BENCHMARK.json names, each with its declared unit; that ``oracle`` counts
its wide-fail failure; and that the benchmark refuses to run without the
program next to it.  Takes about half a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout.splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            if workload == "oracle" and result["failed"] < 1:
                problems.append(f"{where}: the wide-fail failure was not counted")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} operations, {result['failed']} failed")

    # Without the program beside it the benchmark must fail and print no result.
    bare = os.path.join(HERE, "_run", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_run", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    else:
        print(f"ok  bare directory: exit {code}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
