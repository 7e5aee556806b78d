import json
from pathlib import Path

import pytest

from plantsim.cli import main
from plantsim.scenario import (
    ParseError,
    ValidationError,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)

from conftest import make_i1

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


def test_round_trip_idempotent(tmp_path):
    sc = load_scenario(I1_PATH)
    data = scenario_to_dict(sc)
    sc2 = parse_scenario(data)
    assert scenario_to_dict(sc2) == data
    out = tmp_path / "copy.scenario"
    save_scenario(sc, str(out))
    sc3 = load_scenario(str(out))
    assert scenario_to_dict(sc3) == data


# --- CLI ------------------------------------------------------------------


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
