"""The command-line behaviour of tools/codelines.py and tools/pairs.py, and the
layout of tests/ itself."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

CODELINES = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def _codelines(*args, cwd):
    return subprocess.run(
        [sys.executable, str(CODELINES), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_codelines_default_is_the_package_from_any_directory(tmp_path):
    # the default used to be read relative to the current directory
    run = _codelines(cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].endswith("src/plantsim/__init__.py")
    assert lines[-1].endswith("  total")


def test_codelines_missing_path_exits_two(tmp_path):
    # used to end in a FileNotFoundError traceback
    for arg in ("--help", "nowhere.py"):
        run = _codelines(arg, cwd=tmp_path)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"codelines: no such file or directory: {arg}\n"


PAIRS = CODELINES.parent / "pairs.py"

# A stand-in for perfbench/run.py: it logs its side, arguments and
# PYTHONDONTWRITEBYTECODE to order.log beside the two trees, then prints a
# line of noise and the JSON line of a run, with b_p50_ms read from VALUES by
# seed and correct false for the seeds in BAD.
_STUB = """\
import json, os, sys
from pathlib import Path
SIDE, VALUES, BAD = {side!r}, {values!r}, {bad!r}
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as fh:
    flag = os.environ["PYTHONDONTWRITEBYTECODE"]
    fh.write(" ".join([SIDE, *sys.argv[1:], flag]) + "\\n")
print("workload: stub")
metrics = {{"b_p50_ms": {{"value": VALUES[seed], "unit": "ms"}}}}
print(json.dumps({{"correct": seed not in BAD, "attempted": 1, "failed": 0, "metrics": metrics}}))
sys.exit(1 if seed in BAD else 0)
"""


def _stub_trees(root, base, head, bad=(), stub=_STUB, run_seconds=(15, 15), e2e=()):
    for side, values, seconds in zip(("base", "head"), (base, head), run_seconds):
        (root / side / "perfbench").mkdir(parents=True)
        text = stub.format(side=side, values=values, bad=list(bad))
        (root / side / "perfbench" / "run.py").write_text(text)
        spec = {"run_seconds": seconds, "end_to_end": list(e2e)}
        (root / side / "BENCHMARK.json").write_text(json.dumps(spec))


def _pairs(*args, cwd, monkeypatch, values=None):
    """tools/pairs.py run in this process.

    Its runs are subprocesses of the trees' perfbench/run.py, unless values
    holds the base and head trees' _STUB values: then each run returns, in
    this process, the result that _STUB prints for its seed.
    """
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    if values is not None:
        by_side = dict(zip(("base", "head"), values))

        def run_once(tree, args, seed):
            metrics = {"b_p50_ms": {"value": by_side[tree.name][seed], "unit": "ms"}}
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            return 0, result, [], []  # exit code, result, stderr tail, failure lines

        monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.chdir(cwd)
    return pairs.main(["base", "head", "--workload", "oracle", *args])


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch, capsys):
    base = {5: 1.0, 6: 2.0, 7: 3.0}
    head = {5: 0.5, 6: 2.5, 7: 1.5}
    _stub_trees(tmp_path, base, head)
    args = ("--pairs", "3", "--seed", "5", "--out", "bench.json")
    code = _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch)
    assert code == 0
    log = (tmp_path / "order.log").read_text().splitlines()
    orders = [("base", "head"), ("head", "base"), ("base", "head")]
    assert log == [
        f"{side} --workload oracle --seed {seed} --seconds 15 --trace 0 1"
        for seed, order in zip(range(5, 8), orders)
        for side in order
    ]
    row = capsys.readouterr().out.splitlines()[-1].split()
    # medians 2.0 and 1.5 with inclusive quartiles; head lower in 2 of 3
    assert row[:4] == ["b_p50_ms", "2", "[1.5,", "2.5]"]
    assert row[4:7] == ["1.5", "[1,", "2]"]
    assert row[-4:] == ["-25.0%", "2", "of", "3"]
    out = json.loads((tmp_path / "bench.json").read_text())
    oracle = out["workloads"]["oracle"]
    assert [(r["side"], r["seed"]) for r in oracle["runs"]] == [
        (side, seed) for seed, order in zip(range(5, 8), orders) for side in order
    ]
    summary = oracle["summary"]["b_p50_ms"]
    assert summary["base"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert summary["head"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
    assert summary["change_pct"] == -25.0 and summary["head_lower"] == 2
    assert oracle["failed"] is None
    assert set(out["machine"]) == {"nproc", "cpu", "python", "numpy"}


def test_pairs_stop_at_a_failed_run(tmp_path, monkeypatch, capsys):
    _stub_trees(tmp_path, {0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0}, bad=[1])
    args = ("--pairs", "2", "--out", "bench.json")
    code = _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert "the head run of seed 1 failed (exit code 1, correct: False)" in err
    # pair 1 runs head first, so its base run never starts
    assert len((tmp_path / "order.log").read_text().splitlines()) == 3
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert [(r["side"], r["seed"]) for r in oracle["runs"]] == [("base", 0), ("head", 0)]
    failed = {k: oracle["failed"][k] for k in ("pair", "side", "seed", "exit_code")}
    assert failed == {"pair": 1, "side": "head", "seed": 1, "exit_code": 1}
    assert oracle["failed"]["result"]["correct"] is False
    assert oracle["summary"] is None


def _test_module_imports(source):
    """The test modules that source imports, as `import test_x` or `from test_x import`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
            found.append(node.module)
    return found


def test_no_test_module_imports_another():
    # Shared plants live in plants.py and reference implementations in
    # reference.py, so no test module needs another's helpers.
    tests = Path(__file__).resolve().parent
    found = {p.name: _test_module_imports(p.read_text()) for p in tests.glob("*.py")}
    assert {name: mods for name, mods in found.items() if mods} == {}
    # the four imports the suite once had, and the plain import form
    for line, module in [
        ("from test_episode_digest import make_mid", "test_episode_digest"),
        ("from test_episode_digest import CASES, run_case", "test_episode_digest"),
        ("from test_oracles import _m3_k4_plant, _t8_frame_programs", "test_oracles"),
        ("from test_oracles import _m3_k4_plant", "test_oracles"),
        ("def f():\n    import test_oracles", "test_oracles"),
    ]:
        assert _test_module_imports(line) == [module], line


PACKAGE = CODELINES.parent.parent / "src" / "plantsim"

# Top-level names of the package that no package path loads, each kept on
# purpose: a reference the tests hold the package to.
UNLOADED_KEPT = {
    "brute_force_opt": "criterion 1's check of the stationary LP, independent of it",
    "lookahead_value": "the public one-frame lookahead, which perfbench's oracle "
    "workload times; frame_values solves on the histograms it has already checked",
    "realize_demand": "the draw reference test_loop_demand_is_realize_demand "
    "pins the slot loop to",
}


def _module_aliases(tree, modules):
    """The names that tree's imports bind to a module of modules."""
    aliases = set()
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.Import):
            pairs = [
                (a.name.removeprefix("plantsim."), a.asname or a.name) for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module in ("plantsim", None):
            pairs = [(a.name, a.asname or a.name) for a in node.names]
        aliases.update(bound for module, bound in pairs if module in modules)
    return aliases


def _unloaded(sources):
    """The top-level functions and classes that no module of sources loads.

    sources maps a module's name to its text.  A name counts as loaded
    where it is read, anywhere but inside its own definition: as an
    ast.Name, or as the attribute of a name that the reading module's
    imports bind to a module of sources (m.f after import m).  An
    attribute of anything else (self.step, x.decode) is another object's
    and does not count; nor do docstrings, comments, imports and stores.
    """
    defined, loaders = [], {}
    for module, text in sources.items():
        tree = ast.parse(text)
        aliases = _module_aliases(tree, sources)
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                defined.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loaders.setdefault(sub.id, set()).add(owner)
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Load)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in aliases
                ):
                    loaders.setdefault(sub.attr, set()).add(owner)
    # a name is unloaded when nothing but its own definition reads it
    unread = [owner for owner in defined if loaders.get(owner[1], set()) <= {owner}]
    return sorted(name for _, name in unread)


def test_package_loads_every_top_level_name():
    # A function or class that only tests reach belongs in plants.py or
    # reference.py, unless UNLOADED_KEPT names it with its reason.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unloaded(sources) == sorted(UNLOADED_KEPT)
    # recursion, a docstring, a comment, an import, a store and another
    # object's attribute load nothing; a call from another function or
    # module, a module's attribute or a class does
    stubs = {
        "a": '"""f and g are documented here."""\n'
        "import b\n"
        "from b import i\n"
        "def f(n):\n"
        "    return f(n - 1)  # g(n)\n"
        "def g():\n"
        '    """Calls h."""\n'
        "    k = 1\n"
        "    return k\n"
        "def h(x):\n"
        "    return b.j, x.e\n"
        "class C:\n"
        "    pass\n",
        "b": "from plantsim import a as m\n"
        "def i():\n"
        "    return m.h(), m.C\n"
        "def j():\n"
        "    pass\n"
        "def e():\n"
        "    pass\n"
        "g = None\n",
    }
    assert _unloaded(stubs) == ["e", "f", "g", "i"]


# A stand-in for perfbench/run.py --trace 1: it logs its side and arguments
# to order.log beside the two trees and prints VALUES as its metrics.
_TRACE_STUB = """\
import json, sys
from pathlib import Path
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as fh:
    fh.write(" ".join([{side!r}, *sys.argv[1:]]) + "\\n")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {values!r}}}))
"""

_COUNTS = {
    "simulator.slots": {"value": 111000, "unit": "slots"},
    "simulator.memo_hit_ratio": {"value": 0.022, "unit": "ratio"},
    "simplex.pivots": {"value": 7133, "unit": "count"},
    "simplex.pivot_cells": {"value": 37269544, "unit": "cells"},
}


def _timed(busy_s):
    return dict(_COUNTS, **{"simplex.solve_lp.busy_s": {"value": busy_s, "unit": "s"}})


def test_pairs_trace_finds_equal_counts(tmp_path, monkeypatch, capsys):
    # times may differ; every count is equal
    trees = (_timed(0.1), _timed(0.2))
    _stub_trees(tmp_path, *trees, stub=_TRACE_STUB, run_seconds=(20, 20))
    args = ("--trace", "--seed", "5", "--out", "bench.json")
    assert _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch) == 0
    log = (tmp_path / "order.log").read_text().splitlines()
    run = "--workload oracle --seed 5 --seconds 20 --trace 1"
    assert log == [f"base {run}", f"head {run}"]
    out = capsys.readouterr().out
    assert out == "oracle: traced pair, seed 5: 4 of 4 count metrics equal\n"
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert [r["result"]["metrics"] for r in oracle["runs"]] == [_timed(0.1), _timed(0.2)]
    assert oracle["trace"] is True and oracle["seeds"] == [5, 5]
    assert oracle["summary"]["simplex.pivots"] == {
        "unit": "count", "base": 7133, "head": 7133, "equal": True
    }
    assert "simplex.solve_lp.busy_s" not in oracle["summary"]


def test_pairs_trace_reports_a_differing_count(tmp_path, monkeypatch, capsys):
    head = dict(_COUNTS, **{"simplex.pivots": {"value": 7134, "unit": "count"}})
    _stub_trees(tmp_path, _COUNTS, head, stub=_TRACE_STUB)
    assert _pairs("--trace", cwd=tmp_path, monkeypatch=monkeypatch) == 1
    assert capsys.readouterr().out.splitlines() == [
        "oracle: traced pair, seed 0: 3 of 4 count metrics equal",
        "simplex.pivots: base 7133, head 7134",
    ]


def test_pairs_refuse_trees_that_disagree_on_run_seconds(tmp_path, monkeypatch, capsys):
    _stub_trees(tmp_path, {0: 1.0}, {0: 1.0}, run_seconds=(15, 20))
    with pytest.raises(SystemExit) as end:
        _pairs("--pairs", "1", cwd=tmp_path, monkeypatch=monkeypatch)
    assert end.value.code == 2
    assert "base and head disagree on run_seconds: 15 and 20" in capsys.readouterr().err
    assert not (tmp_path / "order.log").exists()


# A stand-in for perfbench/run.py that fails: 30 lines on standard error,
# no JSON line, exit code 1.
_FAILING_STUB = """\
import sys
for i in range(30):
    print(f"{side} error line {{i}}", file=sys.stderr)
sys.exit(1)
"""


def test_pairs_show_why_a_run_failed(tmp_path, monkeypatch, capsys):
    # used to report only "exit code 1, correct: None"
    _stub_trees(tmp_path, {}, {}, stub=_FAILING_STUB)
    args = ("--pairs", "1", "--out", "bench.json")
    assert _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch) == 1
    tail = [f"base error line {i}" for i in range(10, 30)]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "pairs: the base run of seed 0 failed (exit code 1, correct: None); "
        "the last 20 lines of its standard error:",
        *tail,
    ]
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert oracle["failed"]["stderr"] == tail and oracle["failed"]["result"] is None


# A stand-in for perfbench/run.py whose gate and operation fail: its report
# names them on standard output, then its JSON line reads correct false.
_GATE_STUB = """\
import json
print("  fail_frac = 0.500000   (1 of 2 operations)")
print("  failure: b: ValueError: boom (0.001 s)")
print("  gates: 1 passed, 1 failed")
print("  GATE FAILED: mid: rerun is bit-identical ")
print(json.dumps({{"correct": False, "attempted": 2, "failed": 1, "metrics": {{}}}}))
"""


def test_pairs_name_a_failed_gate(tmp_path, monkeypatch, capsys):
    # used to show only the standard error's tail, here empty
    _stub_trees(tmp_path, {}, {}, stub=_GATE_STUB)
    args = ("--pairs", "1", "--out", "bench.json")
    assert _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch) == 1
    failures = [
        "failure: b: ValueError: boom (0.001 s)",
        "GATE FAILED: mid: rerun is bit-identical",
    ]
    assert capsys.readouterr().err.splitlines() == [
        "pairs: the base run of seed 0 failed (exit code 0, correct: False); "
        "the last 0 lines of its standard error:",
        "its 2 failure lines of standard output:",
        *failures,
    ]
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert oracle["failed"]["failures"] == failures and oracle["failed"]["stderr"] == []


def test_pairs_out_keeps_every_batch(tmp_path, monkeypatch, capsys):
    # a second batch of a workload used to replace the first
    _stub_trees(tmp_path, {0: 1.0, 1: 2.0, 2: 3.0}, {0: 1.0, 1: 2.0, 2: 3.0})
    for seed in ("0", "1", "2"):
        args = ("--pairs", "1", "--seed", seed, "--out", "bench.json")
        assert _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch) == 0
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert oracle["seeds"] == [2, 2]
    assert [b["seeds"] for b in oracle["earlier"]] == [[0, 0], [1, 1]]
    metrics = [b["runs"][0]["result"]["metrics"] for b in oracle["earlier"]]
    assert [m["b_p50_ms"]["value"] for m in metrics] == [1.0, 2.0]
    assert all("earlier" not in b for b in oracle["earlier"])


@pytest.mark.parametrize(
    "head, met, lower, gap",
    [
        # lower by 5 in every pair, more than the base IQR 4.5
        ({s: 5.0 + s for s in range(10)}, True, 10, 5.0),
        # lower by 8, but a tie and a higher pair leave 8 of 10
        ({**{s: 2.0 + s for s in range(10)}, 0: 10.0, 1: 12.0}, False, 8, 6.0),
        # lower in every pair, by less than the base IQR
        ({s: 9.0 + s for s in range(10)}, False, 10, 1.0),
    ],
    ids=["met", "ties and a loss", "within the spread"],
)
def test_pairs_claim_follows_the_nine_tenths_rule(
    tmp_path, monkeypatch, capsys, head, met, lower, gap
):
    # base reads 10..19: median 14.5, inclusive quartiles 12.25 and 16.75
    base = {s: 10.0 + s for s in range(10)}
    _stub_trees(tmp_path, base, head)
    args = ("--pairs", "10", "--claim", "b_p50_ms", "--out", "bench.json")
    code = _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch, values=(base, head))
    assert code == (0 if met else 1)
    verdict = "met" if met else "not met"
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"claim b_p50_ms: {verdict} (HEAD lower in {lower} of 10 pairs, nine tenths "
        f"needed; median gap {gap:.4g} against base IQR 4.5)"
    )
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert oracle["claim"] == {
        "metric": "b_p50_ms",
        "met": met,
        "head_lower": lower,
        "pairs": 10,
        "median_gap": gap,
        "base_iqr": 4.5,
    }


_NARROW = {s: 100.0 + s for s in range(10)}  # median 104.5, IQR 4.5 (4.3%)
_WIDE = {s: 10.0 * (s + 1) for s in range(10)}  # median 55, IQR 45 (82%)


@pytest.mark.parametrize(
    "base, head, verdict",
    [
        # every head run lower than every base run, however wide the spread
        (_WIDE, {s: 5.0 for s in range(10)}, "better"),
        # base's IQR is 82% of its median, wider than the bound
        (_WIDE, {s: 11.0 * (s + 1) for s in range(10)}, "unresolved"),
        # the head median 144.5 is 38% above 104.5
        (_NARROW, {s: 140.0 + s for s in range(10)}, "worse"),
        # the head median 114.5 is 9.6% above 104.5
        (_NARROW, {s: 110.0 + s for s in range(10)}, "within"),
    ],
    ids=["better", "unresolved", "worse", "within"],
)
def test_pairs_judge_each_bounded_metric(tmp_path, monkeypatch, capsys, base, head, verdict):
    # BASE's BENCHMARK.json lists no end_to_end metric: only HEAD's is read
    entry = {"name": "b_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
    _stub_trees(tmp_path, base, head, e2e=[entry])
    (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 15}))
    args = ("--pairs", "10", "--out", "bench.json")
    assert _pairs(*args, cwd=tmp_path, monkeypatch=monkeypatch, values=(base, head)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].split()[-1] == "verdict"
    assert out[-1].split()[-1] == verdict
    oracle = json.loads((tmp_path / "bench.json").read_text())["workloads"]["oracle"]
    assert oracle["summary"]["b_p50_ms"]["verdict"] == verdict


def test_pairs_claim_needs_a_known_timed_metric(tmp_path, monkeypatch, capsys):
    _stub_trees(tmp_path, {0: 1.0}, {0: 1.0})
    for args, error in [
        (("--claim", "a_p50_ms"), "--claim a_p50_ms: the runs report no such metric"),
        (("--claim", "b_p50_ms", "--trace"), "--claim judges timed pairs, not a --trace"),
    ]:
        with pytest.raises(SystemExit) as end:
            _pairs("--pairs", "1", *args, cwd=tmp_path, monkeypatch=monkeypatch)
        assert end.value.code == 2
        assert error in capsys.readouterr().err


def _git(*args, cwd):
    user = ["-c", "user.name=pairs test", "-c", "user.email=pairs@example.invalid"]
    return subprocess.run(
        ["git", *user, *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


# A stand-in for perfbench/run.py that needs the tracked file
# scenarios/stub.scenario of its tree and prints VALUES as its metrics.
_TREE_STUB = """\
import json
open("scenarios/stub.scenario").close()
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {values!r}}}))
"""


def test_pairs_take_git_revisions(tmp_path, monkeypatch, capsys):
    # Two commits of one stub tree, whose run.py reads b_p50_ms 2.0 and then
    # 1.0; BASE and HEAD name them as revisions of the current directory's
    # repository, extracted whole, and a name that is neither a directory
    # nor a revision is refused.
    repo = tmp_path / "repo"
    for sub in ("perfbench", "scenarios"):
        (repo / sub).mkdir(parents=True)
    (repo / "scenarios" / "stub.scenario").write_text("{}")
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 15}))
    _git("init", "-q", cwd=repo)
    commits = []
    for value in (2.0, 1.0):
        metrics = {"b_p50_ms": {"value": value, "unit": "ms"}}
        (repo / "perfbench" / "run.py").write_text(_TREE_STUB.format(values=metrics))
        _git("add", "-A", cwd=repo)
        _git("commit", "-q", "-m", f"b_p50_ms {value}", cwd=repo)
        commits.append(_git("rev-parse", "HEAD", cwd=repo))
    out = tmp_path / "bench.json"
    args = ("HEAD~1", "HEAD", "--workload", "oracle", "--pairs", "2", "--out", str(out))
    monkeypatch.chdir(repo)
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert pairs.main(list(args)) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[0] == "b_p50_ms" and row[1] == "2" and row[4] == "1"
    oracle = json.loads(out.read_text())["workloads"]["oracle"]
    assert oracle["commits"] == {"base": commits[0], "head": commits[1]}
    assert (oracle["base"], oracle["head"]) == ("HEAD~1", "HEAD")
    with pytest.raises(SystemExit) as end:
        pairs.main(["HEAD~1", "nowhere", "--workload", "oracle"])
    assert end.value.code == 2
    err = capsys.readouterr().err
    assert "head nowhere is neither a directory nor a git revision" in err
