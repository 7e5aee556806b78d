import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plantsim
from plantsim import cli
from plantsim.cli import main
from plantsim.scenario import (
    _RUN_KEYS,
    ParseError,
    ValidationError,
    load_scenario,
    parse_scenario,
)

from plants import make_i1

REPO = Path(__file__).resolve().parents[1]
I1_PATH = str(REPO / "scenarios" / "i1.scenario")


def i1_data():
    with open(I1_PATH) as fh:
        return json.load(fh)


def test_bundled_scenario_matches_reference():
    sc = load_scenario(I1_PATH)
    ref = make_i1()
    assert sc.model.cfg == ref.cfg
    assert sc.model.supply_states == ref.supply_states
    assert sc.model.demand_states == ref.demand_states
    assert sc.process_x.mode == "IID" and sc.process_x.probs == [1.0]
    assert sc.V == 10.0 and sc.horizon == 10000 and sc.seed == 0
    assert sc.name == "i1"


def test_unknown_key_rejected_by_name():
    data = i1_data()
    data["foo"] = 1
    with pytest.raises(ParseError, match="foo"):
        parse_scenario(data)


def test_unknown_nested_key_rejected():
    data = i1_data()
    data["supply_states"][0]["surplus"] = 3
    with pytest.raises(ParseError, match="surplus"):
        parse_scenario(data)


def test_demand_above_cap_is_validation_error():
    data = i1_data()
    data["demand_states"][0]["F"] = [[3.0, 1.0]]
    del data["demand_states"][0]["h"]
    del data["demand_states"][0]["F_hat"]
    with pytest.raises(ValidationError):
        parse_scenario(data)


def test_wrong_types_rejected():
    data = i1_data()
    data["c_max"] = "two"
    with pytest.raises(ParseError, match="c_max"):
        parse_scenario(data)
    data = i1_data()
    data["c_max"] = True  # bools are not integers here
    with pytest.raises(ParseError, match="c_max"):
        parse_scenario(data)
    data = i1_data()
    data["D_max"] = [2.5]
    with pytest.raises(ParseError, match="D_max"):
        parse_scenario(data)


def test_probs_must_cover_all_states():
    data = i1_data()
    data["process_x"]["probs"] = {}
    with pytest.raises(ParseError, match="s0"):
        parse_scenario(data)
    data = i1_data()
    data["process_x"]["probs"] = {"s0": 1.0, "ghost": 0.0}
    with pytest.raises(ParseError, match="ghost"):
        parse_scenario(data)


def test_theta_length_checked():
    data = i1_data()
    data["theta"] = [30.0, 30.0]
    with pytest.raises(ParseError, match="theta"):
        parse_scenario(data)


def test_markov_and_trace_processes_parse():
    data = i1_data()
    data["process_y"] = {
        "mode": "MARKOV",
        "transition": [[1.0]],
        "initial": "d0",
    }
    sc = parse_scenario(data)
    assert sc.process_y.mode == "MARKOV"
    data = i1_data()
    data["process_y"] = {"mode": "TRACE", "sequence": ["d0", "d0", "d0"]}
    sc = parse_scenario(data)
    assert sc.process_y.trace == [0, 0, 0]
    data = i1_data()
    data["process_y"] = {"mode": "TRACE", "sequence": ["nope"]}
    with pytest.raises(ParseError, match="nope"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "bad, shown",
    [(float("nan"), "nan"), (float("inf"), "inf"), ("a", "'a'"), (True, "True")],
)
def test_number_message_is_pinned(bad, shown):
    data = i1_data()
    data["alpha"] = [bad]
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert str(err.value) == f"alpha[0]: expected a finite number, got {shown}"


def test_trace_file_loading(tmp_path):
    data = i1_data()
    del data["process_x"]
    del data["process_y"]
    data["trace_file"] = "run.trace"
    (tmp_path / "run.trace").write_text("s0 d0\ns0 d0\n# comment\ns0 d0\n")
    path = tmp_path / "sc.scenario"
    path.write_text(json.dumps(data))
    sc = load_scenario(str(path))
    assert sc.process_x.trace == [0, 0, 0]
    assert sc.process_y.trace == [0, 0, 0]


def test_trace_file_conflicts_with_processes(tmp_path):
    data = i1_data()
    data["trace_file"] = "run.trace"
    path = tmp_path / "sc.scenario"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="trace_file"):
        load_scenario(str(path))


def test_run_keys_fill_their_fields():
    run = {
        "name": "every-key",
        "V": 7.5,
        "horizon": 123,
        "seed": 9,
        "replications": 3,
        "placeholder": True,
        "assembly_delay": True,
        "demand_blind": True,
        "theta": [30.0],
        "unsafe_theta": True,
        "T": 4,
        "J": 5,
        "epsilon": 0.05,
    }
    assert set(run) == set(_RUN_KEYS)
    sc = parse_scenario({**i1_data(), **run})
    for key, value in run.items():
        assert getattr(sc, key) == value, key
    for key in run:
        bad = 5 if key == "name" else "five"
        with pytest.raises(ParseError, match=f"^{key}:"):
            parse_scenario({**i1_data(), key: bad})


# --- CLI ------------------------------------------------------------------


def test_readme_outputs_reproduce(monkeypatch, capsys):
    text = (REPO / "README.md").read_text()
    examples = re.findall(r"^\$ plantsim ([^\n]*)\n(.*?)^```", text, re.M | re.S)
    assert [cmd.split()[0] for cmd, _ in examples] == ["simulate", "oracle"]
    monkeypatch.chdir(REPO)
    for cmd, expected in examples:
        assert main(cmd.split()) == 0, cmd
        assert capsys.readouterr().out.splitlines() == expected.splitlines(), cmd


def test_readme_python_example_runs(capsys):
    # the one documented library entry, run as a fresh interpreter would
    text = (REPO / "README.md").read_text()
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    run = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    names: dict = {}
    exec(block, names)
    assert names["phi_opt"] == 1.0
    assert run.stdout == f"{names['reps'].mean} 1.0\n" == capsys.readouterr().out


def test_readme_names_resolve():
    # each backticked package name, such as `model.fulfillment_order` or
    # `plantsim.model.InputError`, is an attribute of its module
    text = (REPO / "README.md").read_text()
    modules = "|".join(m.name for m in pkgutil.iter_modules(plantsim.__path__))
    names = re.findall(rf"`(?:plantsim\.)?({modules})\.(\w+)`", text)
    assert len(names) >= 10
    missing = [
        f"{m}.{a}"
        for m, a in names
        if not hasattr(importlib.import_module(f"plantsim.{m}"), a)
    ]
    assert missing == []


def test_cli_simulate(capsys):
    code = main(
        [
            "simulate",
            "--scenario",
            I1_PATH,
            "--slots",
            "2000",
            "--replications",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "mean avg profit" in out
    assert "band [2, 26]" in out
    assert "bound violations: 0" in out


def test_cli_simulate_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            I1_PATH,
            "--slots",
            "50",
            "--replications",
            "1",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("t,x_id,y_id,Q_1")
    assert len(lines) == 51


def test_cli_simulate_out_runs_each_replication_once(tmp_path, monkeypatch):
    # the log used to come from a second run of replication 0
    from plantsim import simulator

    calls = []
    run = simulator.run_episode

    def counted(ec, model):
        calls.append((ec.stream, ec.record_log))
        return run(ec, model)

    monkeypatch.setattr(simulator, "run_episode", counted)
    monkeypatch.setattr(cli, "run_episode", counted, raising=False)
    out_csv = tmp_path / "run.csv"
    argv = ["simulate", "--scenario", I1_PATH, "--slots", "50", "--replications", "3"]
    assert _run(argv + ["--out", str(out_csv)])[0] == 0
    assert calls == [(0, True), (1, False), (2, False)]
    assert len(out_csv.read_text().splitlines()) == 51


def test_cli_oracle(capsys):
    code = main(["oracle", "--scenario", I1_PATH])
    out = capsys.readouterr().out
    assert code == 0
    assert "stationary optimum: 1" in out
    assert "two-price form" in out


def test_cli_oracle_slowly_mixing_chain(tmp_path, capsys):
    data = i1_data()
    data["supply_states"].append({"id": "s1", "unit_cost": [2], "available": [2]})
    data["process_x"] = {
        "mode": "MARKOV",
        "transition": [[1e-5, 1 - 1e-5], [1.0, 0.0]],
        "initial": "s0",
    }
    path = tmp_path / "slow.scenario"
    path.write_text(json.dumps(data))
    code = main(["oracle", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "stationary optimum" in captured.out


def test_cli_oracle_playback(capsys):
    code = main(
        [
            "oracle",
            "--scenario",
            I1_PATH,
            "--slots",
            "2000",
            "--replications",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "playback" in out


def _trace_scenario(tmp_path):
    data = i1_data()
    data["name"] = "i1-trace"
    data["process_x"] = {"mode": "TRACE", "sequence": ["s0"] * 16}
    data["process_y"] = {"mode": "TRACE", "sequence": ["d0"] * 16}
    path = tmp_path / "trace.scenario"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_lookahead_and_compare_frames(tmp_path, capsys):
    path = _trace_scenario(tmp_path)
    code = main(["lookahead", "--scenario", path, "--T", "4", "--J", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "frame 1" in out and "frame 4" in out
    code = main(
        [
            "compare",
            "--scenario",
            path,
            "--T",
            "4",
            "--J",
            "4",
            "--replications",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_bad_frame_split_exits_one(tmp_path, capsys):
    path = _trace_scenario(tmp_path)
    for argv in (
        ["lookahead", "--scenario", path, "--T", "0"],
        ["lookahead", "--scenario", path, "--T", "4", "--J", "5"],
        ["compare", "--scenario", path, "--T", "-4", "--J", "-4"],
        ["compare", "--scenario", path, "--T", "0", "--J", "4"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "frame split" in captured.err
        assert "PASS" not in captured.out


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_cli_nonpositive_replications_exit_one(reps, capsys):
    for argv in (
        ["simulate", "--scenario", I1_PATH, "--slots", "50"],
        ["compare", "--scenario", I1_PATH, "--slots", "50"],
        ["oracle", "--scenario", I1_PATH, "--slots", "50"],
    ):
        code = main(argv + ["--replications", reps])
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "replication" in err and "internal error" not in err


def test_cli_compare_one_replication_exits_one(tmp_path, capsys):
    for argv in (
        ["compare", "--scenario", I1_PATH, "--slots", "2000"],
        ["compare", "--scenario", _trace_scenario(tmp_path), "--T", "4", "--J", "4"],
    ):
        code = main(argv + ["--replications", "1"])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "needs at least 2 replications" in captured.err
        assert "FAIL" not in captured.out


def test_cli_compare_default_bound(capsys):
    code = main(
        [
            "compare",
            "--scenario",
            I1_PATH,
            "--slots",
            "20000",
            "--replications",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "allowed gap B/V: 0.2" in out


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"theta": [10.0], "unsafe_theta": True}, "theta"),
        ({"theta": [30.0]}, "theta"),
        ({"unsafe_theta": True}, "unsafe_theta"),
        ({"placeholder": True}, "placeholder"),
        ({"assembly_delay": True}, "assembly_delay"),
        ({"demand_blind": True}, "demand_blind"),
    ],
)
def test_cli_compare_rejects_custom_thresholds(tmp_path, capsys, extra, key):
    # the bound checks run the controller at its safe thresholds, so a
    # custom theta would go unchecked behind a PASS
    path = tmp_path / "theta.scenario"
    path.write_text(json.dumps({**i1_data(), **extra}))
    code = main(["compare", "--scenario", str(path), "--slots", "2000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {key}:")
    assert "PASS" not in captured.out


def _markov_data():
    """i1 with a second, weaker demand state and a two-state demand chain."""
    data = i1_data()
    data["name"] = "i1-markov"
    data["demand_states"].append(
        {"id": "d1", "F": [[1.0, 0.5]], "h": 0.5, "F_hat": [[2.0, 1.0]]}
    )
    data["process_y"] = {
        "mode": "MARKOV",
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "initial": "d0",
    }
    return data


def _two_phase_trace_data():
    """_markov_data's plant plus a dear supply state, on a 40-slot trace."""
    data = _markov_data()
    data["name"] = "i1-trace"
    data["supply_states"].append({"id": "s1", "unit_cost": [2], "available": [2]})
    data["process_x"] = {"mode": "TRACE", "sequence": ["s0"] * 20 + ["s1"] * 20}
    data["process_y"] = {"mode": "TRACE", "sequence": ["d1"] * 20 + ["d0"] * 20}
    return data


def _write(tmp_path, data):
    path = tmp_path / f"{data['name']}.scenario"
    path.write_text(json.dumps(data))
    return str(path)


# stdout of each compare form, recorded before the B/V and Markov checks
# were folded into one check_profit_bound
COMPARE_OUTPUTS = [
    (
        None,
        [],
        "stationary optimum: 1\n"
        "allowed gap B/V: 0.2\n"
        "controller: 1.0022 (se 0.00537)\n"
        "PASS\n",
    ),
    (
        _markov_data,
        [],
        "stationary optimum: 0.833333\n"
        "allowed gap B/V: 0.2\n"
        "controller: 0.8395 (se 0.00445)\n"
        "PASS\n",
    ),
    (
        _markov_data,
        ["--epsilon", "0.05", "--T", "8"],
        "stationary optimum: 0.833333\n"
        "bound: -0.936667 (epsilon=0.05, T=8)\n"
        "controller: 0.8395 (se 0.00445)\n"
        "PASS\n",
    ),
    (
        _two_phase_trace_data,
        ["--T", "4", "--J", "10"],
        "frame values: 2 2 2 2 2 0 0 0 0 0\n"
        "mean frame value/slot: 0.25  drift term: 0.8  init term: 0.605\n"
        "bound: -1.155\n"
        "controller: 0.4125 (se 0.0375)\n"
        "PASS\n",
    ),
]


@pytest.mark.parametrize(
    "make, flags, expected",
    COMPARE_OUTPUTS,
    ids=["i1", "markov-bv", "markov-epsilon", "trace-frames"],
)
def test_cli_compare_outputs_reproduce(tmp_path, capsys, make, flags, expected):
    path = I1_PATH if make is None else _write(tmp_path, make())
    assert main(["compare", "--scenario", path, *flags]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "make, keys, flags, named",
    [
        (i1_data, {}, ["--T", "4"], "--T"),
        (i1_data, {}, ["--J", "4"], "--J"),
        (i1_data, {"T": 4}, [], "--T"),
        (_markov_data, {}, ["--J", "4", "--epsilon", "0.05"], "--J --epsilon"),
        (_markov_data, {"J": 4}, ["--epsilon", "0.05"], "--J --epsilon"),
        (
            _two_phase_trace_data,
            {},
            ["--T", "4", "--J", "10", "--epsilon", "0.05"],
            "--T --J --epsilon",
        ),
        (
            _two_phase_trace_data,
            {"epsilon": 0.05},
            ["--T", "4", "--J", "10"],
            "--T --J --epsilon",
        ),
    ],
    ids=[
        "i1-T",
        "i1-J",
        "i1-T-key",
        "markov-J-epsilon",
        "markov-J-key",
        "trace-T-J-epsilon",
        "trace-epsilon-key",
    ],
)
def test_cli_compare_rejects_unused_bound_settings(
    tmp_path, capsys, make, keys, flags, named
):
    # each of these used to run a check that ignores some of the settings
    path = _write(tmp_path, {**make(), **keys})
    code = main(["compare", "--scenario", path, "--slots", "2000", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: compare got {named};")
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [["--slots", "0"], ["--slots", "-3"], ["--replications", "0", "--slots", "100"]],
)
def test_cli_oracle_checks_playback_before_solving(capsys, flags):
    assert main(["oracle", "--scenario", I1_PATH, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: playback needs")


def test_cli_prints_model_warnings(tmp_path, capsys):
    data = i1_data()
    data["beta"] = [[1], [0]]
    data["A_max"] = [2, 2]
    data["supply_states"][0].update(unit_cost=[1, 1], available=[2, 2])
    path = tmp_path / "unused.scenario"
    path.write_text(json.dumps(data))
    warning = "warning: material 2 is used by no product; it will never be purchased\n"
    for argv in (
        ["oracle"],
        ["simulate", "--slots", "50", "--replications", "1"],
        ["compare", "--slots", "50", "--replications", "2"],
    ):
        code = main(argv + ["--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 0, argv
        assert captured.err == warning, argv
    assert main(["oracle", "--scenario", I1_PATH]) == 0
    assert capsys.readouterr().err == ""


def test_cli_compare_epsilon_needs_t(tmp_path, capsys):
    data = i1_data()
    data["process_y"] = {
        "mode": "MARKOV",
        "transition": [[1.0]],
        "initial": "d0",
    }
    path = tmp_path / "m.scenario"
    path.write_text(json.dumps(data))
    code = main(
        ["compare", "--scenario", str(path), "--epsilon", "0.05", "--slots", "2000"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "--T" in err
    code = main(
        [
            "compare",
            "--scenario",
            str(path),
            "--epsilon",
            "0.05",
            "--T",
            "8",
            "--slots",
            "2000",
            "--replications",
            "2",
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--epsilon", "0.05", "--T", "-8"],
        ["--epsilon", "0.05", "--T", "0"],
        ["--epsilon", "-5", "--T", "8"],
        ["--epsilon", "nan", "--T", "8"],
    ],
)
def test_cli_compare_rejects_bad_mixing_settings(tmp_path, capsys, flags):
    # these used to print FAIL (exit 2), or PASS without the drift allowance
    data = i1_data()
    data["process_y"] = {"mode": "MARKOV", "transition": [[1.0]], "initial": "d0"}
    path = tmp_path / "m.scenario"
    path.write_text(json.dumps(data))
    code = main(["compare", "--scenario", str(path), "--slots", "2000", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_cli_parse_errors_exit_one(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "missing.scenario")])
    assert code == 1
    data = i1_data()
    data["junk"] = 1
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "junk" in err


def _nan_probs(data):
    data["supply_states"].append({"id": "s1", "unit_cost": [1], "available": [2]})
    data["process_x"]["probs"] = {"s0": float("nan"), "s1": 1.0}


@pytest.mark.parametrize(
    "edit, argv",
    [
        (_nan_probs, ["oracle"]),
        (lambda d: d["demand_states"][0].update(F=[[float("nan"), 1.0]]), ["oracle"]),
        (lambda d: d.update(V=float("inf")), ["simulate", "--slots", "50"]),
        (lambda d: d.update(V=10**400), ["simulate", "--slots", "50"]),
        (lambda d: None, ["simulate", "--slots", "50", "--V", "nan"]),
    ],
    ids=["nan-prob", "nan-F", "infinite-V", "huge-V", "nan-V-flag"],
)
def test_cli_non_finite_numbers_exit_one(tmp_path, capsys, edit, argv):
    # json.load accepts NaN and Infinity, so they must be refused as bad input
    data = i1_data()
    edit(data)
    path = tmp_path / "nonfinite.scenario"
    path.write_text(json.dumps(data))
    assert main(argv + ["--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_unknown_flag_exits_one(capsys):
    code = main(["simulate", "--scenario", I1_PATH, "--bogus"])
    assert code == 1


def test_cli_unsafe_scenario_exits_two(tmp_path, capsys):
    data = i1_data()
    data["theta"] = [10.0]
    data["unsafe_theta"] = True
    data["horizon"] = 500
    data["replications"] = 1
    path = tmp_path / "unsafe.scenario"
    path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "bound violations" in out


# --- one input contract ---------------------------------------------------


def _run(argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, keys, flags, named",
    [
        ("lookahead", {}, ["--T", "4", "--J", "10", "--V", "99"], "--V"),
        ("lookahead", {}, ["--T", "4", "--J", "10", "--slots", "7"], "--slots"),
        ("lookahead", {}, ["--T", "4", "--J", "10", "--seed", "5"], "--seed"),
        (
            "lookahead",
            {},
            ["--T", "4", "--J", "10", "--replications", "9"],
            "--replications",
        ),
        ("oracle", {}, ["--slots", "100", "--V", "1"], "--V"),
        ("oracle", {}, ["--seed", "5"], "--seed"),
        ("oracle", {}, ["--replications", "9"], "--replications"),
        ("compare", {}, ["--T", "4", "--J", "10", "--slots", "7"], "--slots"),
        ("compare", {"T": 4, "J": 10}, ["--slots", "7"], "--slots"),
    ],
    ids=[
        "lookahead-V",
        "lookahead-slots",
        "lookahead-seed",
        "lookahead-replications",
        "oracle-V",
        "oracle-seed-without-slots",
        "oracle-replications-without-slots",
        "compare-slots-with-J",
        "compare-slots-with-J-key",
    ],
)
def test_cli_rejects_flags_it_would_not_read(tmp_path, command, keys, flags, named):
    # each of these used to run and ignore the flag
    path = _write(tmp_path, {**_two_phase_trace_data(), **keys})
    code, out, err = _run([command, "--scenario", path, *flags])
    assert code == 1
    assert out == ""
    assert named in err and "internal error" not in err


def test_cli_help_lists_only_the_flags_read():
    def options(command):
        code, out, _ = _run([command, "--help"])
        assert code == 0
        return re.findall(r"^  (--\w+)", out, re.M)

    assert options("lookahead") == ["--scenario", "--T", "--J"]
    assert options("oracle") == ["--scenario", "--slots", "--seed", "--replications"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--slots", "50", "--seed", "-3"],
        ["simulate", "--slots", "50", "--seed", "-1"],
    ],
)
def test_cli_negative_seed_exits_one_before_printing(argv):
    # oracle used to print its report before numpy refused the seed
    code, out, err = _run([*argv, "--scenario", I1_PATH])
    assert (code, out) == (1, "")
    assert "seed" in err and argv[-1] in err


def test_cli_unwritable_out_exits_one_before_printing(tmp_path):
    target = str(tmp_path / "missing" / "log.csv")
    code, out, err = _run(
        ["simulate", "--scenario", I1_PATH, "--slots", "50", "--out", target]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --out:") and target in err


@pytest.mark.parametrize(
    "edit, argv",
    [
        (lambda d: d.update(D_max=[10**6 + 1]), ["oracle", "--slots", "30"]),
        (lambda d: d.update(beta=[[10**400]]), ["simulate", "--slots", "30"]),
        (lambda d: d.update(A_max=[10**400]), ["compare", "--slots", "30"]),
        (lambda d: d.update(V=0), ["compare", "--slots", "30"]),
    ],
    ids=["huge-D_max-playback", "beta-beyond-float", "A_max-beyond-float", "zero-V"],
)
def test_cli_out_of_range_scenarios_exit_one(tmp_path, edit, argv):
    # these used to exit 3 (MemoryError, OverflowError, ZeroDivisionError)
    data = {**i1_data(), "name": "edited"}
    edit(data)
    code, out, err = _run([*argv, "--scenario", _write(tmp_path, data)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_cli_plain_value_error_is_internal(monkeypatch):
    def broken(*args):
        raise ValueError("stray library error")

    monkeypatch.setattr(cli, "optimal_profit", broken)
    code, out, err = _run(["oracle", "--scenario", I1_PATH])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ValueError")


def test_bad_input_types_share_one_base():
    from plantsim.controller import InitOutOfRange, ThetaTooSmall
    from plantsim.model import ConfigError, InputError
    from plantsim.oracles import ActionSpaceTooLarge, InstanceTooLarge
    from plantsim.processes import NotErgodic, TraceExhausted

    for kind in (
        ConfigError,
        ParseError,
        ValidationError,
        InitOutOfRange,
        ThetaTooSmall,
        NotErgodic,
        TraceExhausted,
        ActionSpaceTooLarge,
        InstanceTooLarge,
    ):
        assert issubclass(kind, InputError), kind
    assert issubclass(InputError, ValueError)


def _leaf_paths(obj, path=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


_I1_LEAVES = sorted(_leaf_paths(i1_data()), key=str)
_BAD_VALUES = [-1, -3, 0, float("nan"), 10**9, 10**400, "x", None, [], True, 1.5]
_FUZZ_FLAGS = {
    "simulate": ["--slots", "30", "--replications", "2"],
    "oracle": ["--slots", "30", "--replications", "2"],
    "compare": ["--slots", "30", "--replications", "2"],
    "lookahead": [],
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_I1_LEAVES), st.sampled_from(_BAD_VALUES)),
        min_size=1,
        max_size=2,
    ),
    command=st.sampled_from(sorted(_FUZZ_FLAGS)),
)
def test_cli_fuzzed_i1_keeps_the_exit_contract(tmp_path_factory, edits, command):
    data = i1_data()
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    scenario = tmp_path_factory.mktemp("fuzz") / "i1.scenario"
    scenario.write_text(json.dumps(data))
    code, out, err = _run([command, "--scenario", str(scenario), *_FUZZ_FLAGS[command]])
    assert code in (0, 1, 2), err
    if code == 1:
        assert out == "", err


# --- paths no other test runs ---------------------------------------------


def test_cli_simulate_assembly_delay_output(tmp_path):
    # i1's alpha is 0, which would print a startup cost of 0
    path = _write(tmp_path, {**i1_data(), "name": "i1-alpha", "alpha": [0.5]})
    argv = ["simulate", "--scenario", path, "--slots", "2000", "--replications", "2"]
    code, out, err = _run([*argv, "--assembly-delay"])
    assert (code, err) == (0, "")
    assert out == (
        "scenario: i1-alpha\n"
        "V=10 slots=2000 seed=0 replications=2\n"
        "mean avg profit: 0.4845  (se 0.00075)\n"
        "material 1: queue range [2, 10], band [2, 21]\n"
        "max slot drift: 2  (bound 2)\n"
        "bound violations: 0\n"
        "startup cost: 1\n"
        "mean avg profit net of startup: 0.484\n"
    )


def test_cli_compare_epsilon_on_iid_scenario_exits_one():
    code, out, err = _run(
        ["compare", "--scenario", I1_PATH, "--epsilon", "0.05", "--T", "8"]
    )
    assert (code, out) == (1, "")
    assert err == "error: --epsilon applies to Markov-modulated scenarios\n"


def test_cli_module_exits_with_mains_code(monkeypatch, capsys):
    # `python -m plantsim.cli` ends in sys.exit(main()); runpy warns (an
    # error under this suite's filterwarnings) when the module is already
    # imported, so it runs from a fresh copy
    argv = ["compare", "--scenario", I1_PATH, "--epsilon", "0.05", "--T", "8"]
    monkeypatch.setattr(sys, "argv", ["plantsim", *argv])
    monkeypatch.delitem(sys.modules, "plantsim.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("plantsim.cli", run_name="__main__")
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --epsilon applies to Markov-modulated scenarios\n"


def test_cli_invariant_violation_exits_two(monkeypatch):
    from plantsim import simulator

    # buy every slot and never sell, so the queue leaves its band
    monkeypatch.setattr(simulator, "decide_purchase", lambda Q, x, params, cfg: [2])
    monkeypatch.setattr(
        simulator, "decide_pricing", lambda Q, y, params, cfg: ([0], [1.0])
    )
    code, out, err = _run(["simulate", "--scenario", I1_PATH, "--slots", "50"])
    assert (code, out) == (2, "")
    assert err.startswith("invariant violated: slot ")
    assert "left its band" in err
    # a bound run keeps the band, so compare raises before its report and
    # never prints a breach count
    code, out, err = _run(["compare", "--scenario", I1_PATH, "--slots", "50"])
    assert (code, out) == (2, "")
    assert err == (
        "invariant violated: slot 12: queue 0 left its band: 28 not in [2, 26.0]\n"
    )
