"""Every bad-input check raises its type with its message.

Table-driven: each case builds one bad input and names the exception type
and the exact message it must raise.  The scenario cases pin the messages
of the parser's own checks; the library cases pin each argument check of
model, processes, controller, simulator and oracles, including the
refusal of non-finite numbers.
"""

import copy
import json
import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantsim.controller import (
    InitOutOfRange,
    compute_theta,
    init_placeholder,
    init_state,
    make_params,
    queue_band,
)
from plantsim.model import (
    ConfigError,
    DemandState,
    InputError,
    NegativeEntry,
    PlantConfig,
    SupplyState,
    validate_config,
)
from plantsim.oracles import (
    InstanceTooLarge,
    brute_force_opt,
    build_profit_lp,
    extract_xy_policy,
    frame_values,
    lookahead_value,
    optimal_profit,
    two_price_reduce,
)
from plantsim.processes import (
    IID,
    MARKOV,
    TRACE,
    RngStream,
    StateProcessSpec,
    constant_process,
    generate_states,
    realize_demand,
    stationary_distribution,
)
from plantsim.scenario import ParseError, load_scenario, parse_scenario
from plantsim.simulator import (
    EpisodeConfig,
    check_frame_bound,
    check_profit_bound,
    process_distribution,
    run_episode,
    run_replications,
    summarize,
    write_slot_log,
)

from plants import _iid, make_i1, make_i1_cfg, make_two_phase

NAN = math.nan

I1 = {
    "name": "i1",
    "beta": [[1]],
    "alpha": [0],
    "price_set": [[1, 2]],
    "D_max": [2],
    "A_max": [2],
    "c_max": 2,
    "supply_states": [{"id": "s0", "unit_cost": [1], "available": [2]}],
    "demand_states": [
        {"id": "d0", "F": [[2.0, 1.0]], "h": 1.0, "F_hat": [[2.0, 1.0]]}
    ],
    "process_x": {"mode": "IID", "probs": {"s0": 1.0}},
    "process_y": {"mode": "IID", "probs": {"d0": 1.0}},
}


def _i1(**changes):
    data = copy.deepcopy(I1)
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return data


def _raises(kind, message, call, *args, **kwargs):
    with pytest.raises(kind) as err:
        call(*args, **kwargs)
    assert type(err.value) is kind
    assert str(err.value) == message


# --- scenario files -----------------------------------------------------


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "top level: expected an object"),
        (_i1(beta=None), "top level: missing required key 'beta'"),
        (_i1(beta=1), "beta: expected a list of rows"),
        (_i1(price_set=1), "price_set: expected a list of rows"),
        (_i1(D_max=2), "D_max: expected a list of integers"),
        (_i1(alpha={}), "alpha: expected a list of numbers"),
        (
            _i1(supply_states=[]),
            "supply_states: expected a non-empty list of supply states",
        ),
        (_i1(supply_states=[1]), "supply_states[0]: expected an object"),
        (
            _i1(demand_states={}),
            "demand_states: expected a non-empty list of demand states",
        ),
        (_i1(demand_states=["d0"]), "demand_states[0]: expected an object"),
        (
            _i1(demand_states=[{"id": "d0"}]),
            "demand_states[0]: missing required key 'F'",
        ),
        (_i1(process_x="IID"), "process_x: expected an object"),
        (
            _i1(process_x={"probs": {"s0": 1.0}, "extra": 1}),
            "process_x: missing required key 'mode'",
        ),
        (
            _i1(process_x={"mode": "IID", "probs": [1.0]}),
            "process_x.probs: expected an object mapping state id to weight",
        ),
        (
            _i1(process_y={"mode": "TRACE", "sequence": []}),
            "process_y.sequence: expected a non-empty list of state ids",
        ),
        (
            _i1(process_y={"mode": "MARKOV", "transition": [[1.0]], "extra": 1}),
            "process_y: unknown key 'extra'",
        ),
        (
            _i1(process_y={"mode": "MARKOV", "transition": [[1.0]], "initial": 0}),
            "process_y.initial: expected a string, got 0",
        ),
        (_i1(process_y={"mode": "EVERY"}), "process_y.mode: unknown mode 'EVERY'"),
        (_i1(process_y=None), "top level: missing required key 'process_y'"),
    ],
)
def test_scenario_object_errors(data, message):
    _raises(ParseError, message, parse_scenario, data)


def test_scenario_null_h_and_f_hat_mean_absent():
    data = _i1()
    data["demand_states"][0].update(h=None, F_hat=None)
    y = parse_scenario(data).model.demand_states[0]
    assert (y.h, y.F_hat) == (None, None)


def _trace_scenario(tmp_path, trace_text):
    data = _i1(process_x=None, process_y=None, trace_file="run.trace")
    if trace_text is not None:
        (tmp_path / "run.trace").write_text(trace_text)
    path = tmp_path / "sc.scenario"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "trace_text, message",
    [
        ("s0 d0\ns0\n", "trace_file: line 2: expected 'x_id y_id', got 's0'"),
        ("s0 d0 d0\n", "trace_file: line 1: expected 'x_id y_id', got 's0 d0 d0'"),
        ("s0 d9\n", "trace_file line 1: unknown state id 'd9'"),
        ("# nothing\n\n", "trace_file: {trace!r} contains no state pairs"),
        (None, "trace_file: cannot read {trace!r}: [Errno 2] No such file or "
         "directory: {trace!r}"),
    ],
)
def test_scenario_trace_file_errors(tmp_path, trace_text, message):
    path = _trace_scenario(tmp_path, trace_text)
    trace = str(tmp_path / "run.trace")
    _raises(ParseError, message.format(trace=trace), load_scenario, path)


def test_scenario_file_that_is_not_json(tmp_path):
    path = tmp_path / "broken.scenario"
    path.write_text("{")
    message = (
        f"{str(path)!r} is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"
    )
    _raises(ParseError, message, load_scenario, str(path))


def test_scenario_path_of_the_wrong_class(tmp_path):
    # refused before open, which would take an int for a file descriptor;
    # a pathlib.Path loads as its str does
    for path in (None, 0):
        message = f"path must be a str or os.PathLike, got {type(path).__name__}"
        _raises(ParseError, message, load_scenario, path)
    path = tmp_path / "i1.scenario"
    path.write_text(json.dumps(_i1()))
    assert load_scenario(path).model == load_scenario(str(path)).model


# --- processes ----------------------------------------------------------


@pytest.mark.parametrize(
    "mode, ids, fields, message",
    [
        ("EVERY", ["a"], {}, "unknown process mode 'EVERY'"),
        (IID, [], {"probs": []}, "process needs at least one state"),
        (IID, ["a"], {}, "IID probabilities must have length 1"),
        (IID, ["a"], {"probs": [0.5, 0.5]}, "IID probabilities must have length 1"),
        (IID, ["a"], {"probs": [NAN]}, "IID probabilities must be finite"),
        (IID, ["a", "b"], {"probs": [math.inf, 0]}, "IID probabilities must be finite"),
        (
            IID,
            ["a", "b"],
            {"probs": [1.5, -0.5]},
            "IID probabilities must be non-negative",
        ),
        (IID, ["a", "b"], {"probs": [0.5, 0.4]}, "IID probabilities must sum to 1"),
        (
            MARKOV,
            ["a", "b"],
            {"transition": [[1.0]]},
            "MARKOV process needs an n-by-n transition matrix",
        ),
        (
            MARKOV,
            ["a", "b"],
            {"transition": [[NAN, 1.0], [0.5, 0.5]]},
            "transition row 0 must be finite",
        ),
        (
            MARKOV,
            ["a", "b"],
            {"transition": [[1.5, -0.5], [0.5, 0.5]]},
            "transition row 0 must be non-negative",
        ),
        (
            MARKOV,
            ["a", "b"],
            {"transition": [[0.5, 0.5], [0.5, 0.4]]},
            "transition row 1 must sum to 1",
        ),
        (
            MARKOV,
            ["a"],
            {"transition": [[1.0]], "initial": 1},
            "MARKOV initial state out of range",
        ),
        (TRACE, ["a"], {"trace": []}, "TRACE process needs a non-empty trace"),
        (TRACE, ["a"], {"trace": [0, 1]}, "trace contains an out-of-range state index"),
    ],
)
def test_state_process_spec_errors(mode, ids, fields, message):
    _raises(InputError, message, StateProcessSpec, mode=mode, state_ids=ids, **fields)


def test_process_function_errors():
    model = make_i1()
    assert stationary_distribution(constant_process("s0")).tolist() == [1.0]
    rng = np.random.default_rng(0)
    y = model.demand_states[0]
    message = "price 3.0 is not in price_set[0]"
    _raises(InputError, message, realize_demand, 0, 3.0, y, model.cfg, rng)


# --- model --------------------------------------------------------------

_S0 = SupplyState(id="s0", unit_cost=[1], available=[2])


def _d0(**changes):
    fields = {"id": "d0", "F": [[2.0, 1.0]], "h": 1.0, "F_hat": [[2.0, 1.0]]}
    return DemandState(**{**fields, **changes})


@pytest.mark.parametrize(
    "cfg_changes, supply, demand, kind, message",
    [
        (
            {"A_max": [2, 2]},
            [_S0],
            [_d0()],
            ConfigError,
            "A_max must have length 1, got 2",
        ),
        (
            {"A_max": [2.0]},
            [_S0],
            [_d0()],
            ConfigError,
            "A_max entry must be an integer, got 2.0",
        ),
        (
            {"beta": []},
            [_S0],
            [_d0()],
            ConfigError,
            "need at least one material and one product",
        ),
        (
            {"alpha": [0.0, 0.0]},
            [_S0],
            [_d0()],
            ConfigError,
            "alpha, price_set and D_max must all have length K",
        ),
        (
            {"c_max": 2.0},
            [_S0],
            [_d0()],
            ConfigError,
            "c_max must be an integer, got 2.0",
        ),
        ({"c_max": -1}, [_S0], [_d0()], NegativeEntry, "c_max -1 is negative"),
        ({"alpha": [NAN]}, [_S0], [_d0()], ConfigError, "alpha[0] is not finite"),
        (
            {"price_set": [[NAN, 2.0]]},
            [_S0],
            [_d0()],
            ConfigError,
            "price nan of product 0 is not finite",
        ),
        (
            {"price_set": [[1.0, math.inf]]},
            [_S0],
            [_d0()],
            ConfigError,
            "price inf of product 0 is not finite",
        ),
        ({}, [], [_d0()], ConfigError, "need at least one supply state"),
        ({}, [_S0], [], ConfigError, "need at least one demand state"),
        (
            {},
            [_S0],
            [_d0(), _d0()],
            ConfigError,
            "duplicate demand state id 'd0'",
        ),
        (
            {},
            [_S0],
            [_d0(F=[[2.0, 1.0], [1.0, 1.0]], h=None, F_hat=None)],
            ConfigError,
            "demand state 'd0': F must have one row per product",
        ),
        (
            {},
            [_S0],
            [_d0(F=[[2.0]], h=None, F_hat=None)],
            ConfigError,
            "demand state 'd0': F[0] must align with price_set[0]",
        ),
        (
            {},
            [_S0],
            [_d0(F=[[NAN, 1.0]], h=None, F_hat=None)],
            ConfigError,
            "demand state 'd0': F[0][0] is not finite",
        ),
        (
            {},
            [_S0],
            [_d0(F_hat=None)],
            ConfigError,
            "demand state 'd0': factorization needs both h and F_hat",
        ),
        (
            {},
            [_S0],
            [_d0(h=NAN)],
            ConfigError,
            "demand state 'd0': scale h is not finite",
        ),
        (
            {},
            [_S0],
            [_d0(F_hat=[[2.0, 1.0], [1.0, 1.0]])],
            ConfigError,
            "demand state 'd0': F_hat must have one row per product",
        ),
        (
            {},
            [_S0],
            [_d0(F_hat=[[2.0]])],
            ConfigError,
            "demand state 'd0': F_hat[0] must align with price_set[0]",
        ),
        (
            {},
            [_S0],
            [_d0(F_hat=[[2.0, NAN]])],
            ConfigError,
            "demand state 'd0': F_hat[0][1] is not finite",
        ),
        # a number where a list belongs used to raise TypeError from len()
        ({"alpha": 5}, [_S0], [_d0()], ConfigError, "alpha must be a sequence, got 5"),
        (
            {"price_set": [5]},
            [_S0],
            [_d0()],
            ConfigError,
            "price_set[0] must be a sequence, got 5",
        ),
        (
            {"beta": [5]},
            [_S0],
            [_d0()],
            ConfigError,
            "beta[0] must be a sequence, got 5",
        ),
        (
            {},
            [_S0],
            [_d0(F=[5], h=None, F_hat=None)],
            ConfigError,
            "demand state 'd0': F[0] must be a sequence, got 5",
        ),
    ],
)
def test_validate_config_errors(cfg_changes, supply, demand, kind, message):
    cfg = make_i1_cfg()
    for key, value in cfg_changes.items():
        setattr(cfg, key, value)
    _raises(kind, message, validate_config, cfg, supply, demand)


@pytest.mark.parametrize("bad_id", [["a"], None], ids=["list", "None"])
def test_state_id_must_be_a_str(bad_id):
    # a list id used to raise TypeError at the duplicate-id check
    message = f"state id must be of class str, got {type(bad_id).__name__}"
    x = SupplyState(id=bad_id, unit_cost=[1], available=[2])
    for states in ([x], [_d0()]), ([_S0], [_d0(id=bad_id)]):
        _raises(InputError, message, validate_config, make_i1_cfg(), *states)


# --- controller ---------------------------------------------------------


@pytest.mark.parametrize(
    "theta, unsafe",
    [([30.0, 30.0], False), ([NAN], False), ([NAN], True), ([math.inf], False)],
)
def test_make_params_theta_errors(theta, unsafe):
    _raises(
        InputError,
        "theta must have one finite entry per material",
        make_params,
        make_i1_cfg(),
        10.0,
        theta=theta,
        allow_unsafe_theta=unsafe,
    )


@pytest.mark.parametrize("V", [True, None, "10", NAN, 0, -1.0, math.inf])
def test_make_params_v_errors(V):
    # True used to run as V = 1, and None or a string raised TypeError
    message = f"V must be a positive finite number, got {V!r}"
    _raises(InputError, message, make_params, make_i1_cfg(), V)


def test_init_placeholder_refuses_negative_stock():
    cfg = make_i1_cfg()
    params = make_params(cfg, 10.0)
    message = "Q_actual_0[0] -1 is below the minimum 0"
    _raises(InitOutOfRange, message, init_placeholder, cfg, params, [-1])


# --- simulator ----------------------------------------------------------


def _ec(**changes):
    fields = dict(
        horizon=20,
        seed=0,
        V=10.0,
        process_x=constant_process("s0"),
        process_y=constant_process("d0"),
    )
    return EpisodeConfig(**{**fields, **changes})


def _two_base_tables():
    demand = [
        DemandState(id="lo", F=[[1.0, 0.5]], h=0.5, F_hat=[[2.0, 1.0]]),
        DemandState(id="hi", F=[[2.0, 1.0]], h=0.5, F_hat=[[4.0, 2.0]]),
    ]
    return validate_config(make_i1_cfg(), [_S0], demand)


def _trace(ids):
    return StateProcessSpec(mode=TRACE, state_ids=ids, trace=[0] * 20)


@pytest.mark.parametrize(
    "make_model, changes, message",
    [
        (make_i1, {"horizon": 0}, "horizon 0 is below the minimum 1"),
        (make_i1, {"controller": "greedy"}, "unknown controller 'greedy'"),
        (make_i1, {"controller": "oracle"}, "oracle controller needs oracle_policy"),
        (
            make_two_phase,
            {
                "demand_blind": True,
                "process_x": _trace(["cheap", "dear"]),
                "process_y": _trace(["hot", "cold"]),
            },
            "demand state 'hot' lacks the factorization needed for demand-blind "
            "pricing",
        ),
        (
            _two_base_tables,
            {"demand_blind": True, "process_y": _trace(["lo", "hi"])},
            "demand-blind pricing needs one shared base table across states",
        ),
    ],
    ids=[
        "horizon",
        "controller",
        "oracle-without-policy",
        "blind-without-factorization",
        "blind-with-two-base-tables",
    ],
)
def test_run_episode_errors(make_model, changes, message):
    _raises(InputError, message, run_episode, _ec(**changes), make_model())


def test_online_run_refuses_oracle_policy():
    # it used to run the online controller and ignore the policy
    model = make_i1()
    _, plp, sol = optimal_profit(model, [1.0], [1.0])
    ec = _ec(horizon=100, oracle_policy=extract_xy_policy(plp, sol))
    message = "the online controller does not use oracle_policy"
    _raises(InputError, message, run_episode, ec, model)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: optimal_profit(make_i1(), "a", [1.0]), "pi_x must have length 1"),
        (
            lambda: optimal_profit(make_i1(), [1.0], ["a"]),
            "pi_y must be numbers, got 'a'",
        ),
        (lambda: _iid(["a"], ["x"]), "IID probabilities must be numbers, got 'x'"),
        (lambda: _iid(["a"], [True]), "IID probabilities must be numbers, got True"),
        (
            lambda: _iid(["a"], ["1.0"]),
            "IID probabilities must be numbers, got '1.0'",
        ),
        (
            lambda: _iid(["a"], np.array([True])),
            "IID probabilities must be numbers, got np.True_",
        ),
        (
            lambda: _iid(["a", "b"], [[0.5], [0.5, 0.0]]),
            "IID probabilities must have length 2",
        ),
        (lambda: _iid(["a"], [10**400]), "IID probabilities must be finite"),
        (
            lambda: StateProcessSpec(
                mode=MARKOV, state_ids=["a", "b"], transition=[[1, 0], [True, 0]]
            ),
            "transition row 1 must be numbers, got True",
        ),
        (
            lambda: run_episode(_playback_ec(price_dist=[[[(1, 0, "a")]]]), make_i1()),
            "price_dist[0][0] probabilities must be numbers, got 'a'",
        ),
        (
            lambda: run_episode(_playback_ec(purchase_dist=[[((1,), "a")]]), make_i1()),
            "purchase_dist[0] probabilities must be numbers, got 'a'",
        ),
        (
            lambda: two_price_reduce(
                _i1_policy(price_dist=[[[(1, 0, "a")]]]), make_i1()
            ),
            "price_dist[0][0] probabilities must be numbers, got 'a'",
        ),
    ],
    ids=[
        "pi-string",
        "pi-entry-string",
        "iid-string",
        "iid-bool",
        "iid-numeral",
        "iid-bool-array",
        "iid-ragged",
        "iid-huge-int",
        "markov-bool",
        "playback-offer-string",
        "playback-purchase-string",
        "two-price-string",
    ],
)
def test_probabilities_must_be_numbers(call, message):
    # each used to raise numpy's ValueError or OverflowError (two-price: a
    # TypeError), or, for the bools and the numeral, to run
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def _playback_ec(**changes):
    return _ec(controller="oracle", oracle_policy=_i1_policy(**changes))


_STATE_ID_CASES = [
    (
        # the same process as ["cheap", "dear"] at [0.9, 0.1], which used
        # to be played with the two supply states swapped
        _iid(["dear", "cheap"], [0.1, 0.9]),
        "process_x lists states ['dear', 'cheap'], not the model's "
        "['cheap', 'dear']",
    ),
    (
        # run_episode used to raise IndexError
        _iid(["cheap", "dear", "spot"], [0.4, 0.3, 0.3]),
        "process_x lists states ['cheap', 'dear', 'spot'], not the model's "
        "['cheap', 'dear']",
    ),
]


@pytest.mark.parametrize(
    "process_x, message", _STATE_ID_CASES, ids=["reordered", "third-state"]
)
def test_run_episode_needs_the_model_states(process_x, message):
    ec = _ec(process_x=process_x, process_y=_iid(["hot", "cold"], [0.5, 0.5]))
    _raises(InputError, message, run_episode, ec, make_two_phase())


@pytest.mark.parametrize(
    "process_x, message", _STATE_ID_CASES, ids=["reordered", "third-state"]
)
def test_profit_bound_needs_the_model_states(process_x, message):
    # checked before the LP is solved: the reordered process used to
    # report the optimum of the swapped plant
    process_y = _iid(["hot", "cold"], [0.5, 0.5])
    call = check_profit_bound
    _raises(InputError, message, call, make_two_phase(), process_x, process_y, 10.0, 50)


def test_summarize_needs_an_episode():
    # used to raise ZeroDivisionError
    message = "summarize needs the metrics of at least 1 episode"
    _raises(InputError, message, summarize, [])


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: run_episode(_ec(process_x=None), make_i1()),
            "process_x must be of class StateProcessSpec, got NoneType",
        ),
        (
            lambda: run_episode(_ec(process_y="d0"), make_i1()),
            "process_y must be of class StateProcessSpec, got str",
        ),
        (
            lambda: run_episode(_ec(controller="oracle", oracle_policy="x"), make_i1()),
            "oracle_policy must be of class OraclePolicy, got str",
        ),
        (
            lambda: run_episode(None, make_i1()),
            "ec must be of class EpisodeConfig, got NoneType",
        ),
        (
            lambda: run_episode(_ec(), None),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: check_profit_bound(make_i1().cfg, None, None, 10.0, 50),
            "model must be of class Model, got PlantConfig",
        ),
        # the model where its cfg belongs used to raise TypeError: 'list'
        # object is not callable (Model.mu_max is a list, PlantConfig's a method)
        (
            lambda: make_params(make_i1(), 10.0),
            "cfg must be of class PlantConfig, got Model",
        ),
        (
            lambda: make_params(None, 10.0),
            "cfg must be of class PlantConfig, got NoneType",
        ),
        (
            lambda: compute_theta(make_i1(), 10.0),
            "cfg must be of class PlantConfig, got Model",
        ),
        (
            lambda: queue_band(make_params(make_i1_cfg(), 10.0), make_i1()),
            "cfg must be of class PlantConfig, got Model",
        ),
        (
            lambda: init_state(make_i1(), make_params(make_i1_cfg(), 10.0)),
            "cfg must be of class PlantConfig, got Model",
        ),
        (
            lambda: init_placeholder(
                make_i1(), make_params(make_i1_cfg(), 10.0), [0]
            ),
            "cfg must be of class PlantConfig, got Model",
        ),
        (
            lambda: summarize([1, 2]),
            "metrics entry must be of class Metrics, got int",
        ),
        (
            lambda: run_replications(None, make_i1(), 2),
            "ec must be of class EpisodeConfig, got NoneType",
        ),
        (
            lambda: optimal_profit(None, [1.0], [1.0]),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: build_profit_lp(None, [1.0], [1.0]),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: brute_force_opt(None, [1.0], [1.0]),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: lookahead_value(None, [0], [0]),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: frame_values(None, [0, 0], [0, 0], 1, 2),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: check_frame_bound(None, [0, 0], [0, 0], 10.0, 1, 2),
            "model must be of class Model, got NoneType",
        ),
        (
            lambda: extract_xy_policy(None, None),
            "plp must be of class ProfitLp, got NoneType",
        ),
        (
            lambda: two_price_reduce("x", make_i1()),
            "policy must be of class OraclePolicy, got str",
        ),
        (
            lambda: process_distribution(None),
            "spec must be of class StateProcessSpec, got NoneType",
        ),
        (
            lambda: generate_states(None, 5, np.random.default_rng(0)),
            "spec must be of class StateProcessSpec, got NoneType",
        ),
        (
            lambda: stationary_distribution(None),
            "spec must be of class StateProcessSpec, got NoneType",
        ),
        (
            lambda: summarize(5),
            "metrics must be a sequence, got 5",
        ),
        (
            # raises before the file is opened
            lambda: write_slot_log("slot-log.csv", make_i1(), None),
            "metrics must be of class Metrics, got NoneType",
        ),
        (
            lambda: write_slot_log(
                None, make_i1(), run_episode(_ec(record_log=True), make_i1())
            ),
            "path must be a str or os.PathLike, got NoneType",
        ),
        (
            lambda: generate_states(constant_process("s0"), 5, None),
            "rng must be of class Generator, got NoneType",
        ),
        (
            lambda: generate_states(constant_process("s0"), 5, "a"),
            "rng must be of class Generator, got str",
        ),
        # each flag used to be read by its truth value: "no" ran a
        # place-holder episode, logged every slot or let an unsafe theta run
        (
            lambda: run_episode(_ec(placeholder="no"), make_i1()),
            "placeholder must be of class bool, got str",
        ),
        (
            lambda: run_episode(_ec(assembly_delay=1), make_i1()),
            "assembly_delay must be of class bool, got int",
        ),
        (
            lambda: run_episode(_ec(demand_blind="no"), make_i1()),
            "demand_blind must be of class bool, got str",
        ),
        (
            lambda: run_episode(
                _ec(theta=[5.0], allow_unsafe_theta="no"), make_i1()
            ),
            "allow_unsafe_theta must be of class bool, got str",
        ),
        (
            lambda: run_episode(_ec(record_log="no"), make_i1()),
            "record_log must be of class bool, got str",
        ),
        (
            # the class message comes before playback's "does not use"
            lambda: _playback(placeholder="no"),
            "placeholder must be of class bool, got str",
        ),
        (
            lambda: make_params(make_i1_cfg(), 10.0, demand_blind="no"),
            "demand_blind must be of class bool, got str",
        ),
        (
            lambda: make_params(
                make_i1_cfg(), 10.0, theta=[5.0], allow_unsafe_theta="no"
            ),
            "allow_unsafe_theta must be of class bool, got str",
        ),
        (
            lambda: summarize([run_episode(_ec(), make_i1())], net="no"),
            "net must be of class bool, got str",
        ),
        (
            lambda: validate_config(None, [_S0], [_d0()]),
            "cfg must be of class PlantConfig, got NoneType",
        ),
        (
            lambda: validate_config(make_i1_cfg(), [None], [_d0()]),
            "supply state must be of class SupplyState, got NoneType",
        ),
    ],
    ids=[
        "process-none",
        "process-string",
        "policy-string",
        "ec-none",
        "model-none",
        "bound-check-config",
        "make-params-model",
        "make-params-none",
        "compute-theta-model",
        "queue-band-model",
        "init-state-model",
        "init-placeholder-model",
        "summarize-ints",
        "replications-ec-none",
        "optimal-profit-none",
        "profit-lp-none",
        "brute-force-none",
        "lookahead-none",
        "frame-values-none",
        "frame-bound-none",
        "extract-none",
        "two-price-string",
        "process-distribution-none",
        "generate-states-none",
        "stationary-none",
        "summarize-number",
        "slot-log-none",
        "slot-log-path-none",
        "generate-states-rng-none",
        "generate-states-rng-string",
        "placeholder-string",
        "assembly-delay-int",
        "demand-blind-string",
        "unsafe-theta-string",
        "record-log-string",
        "playback-placeholder-string",
        "make-params-demand-blind-string",
        "make-params-unsafe-theta-string",
        "summarize-net-string",
        "validate-config-none",
        "supply-state-none",
    ],
)
def test_arguments_of_the_wrong_class(call, message):
    # each used to raise AttributeError, which the command line reports as
    # an internal fault (exit 3)
    _raises(InputError, message, call)


def _dear_i1():
    # unit cost 2 against c_max 2: buying both units that A_max and
    # available allow would spend 4
    return _with_supply("unit_cost", [2])


@pytest.mark.parametrize(
    "make_model, changes, message",
    [
        (make_i1, {"purchase_dist": []}, "purchase_dist must have 1 entries, got 0"),
        (
            make_i1,
            {"purchase_dist": [[]]},
            "purchase_dist[0] probabilities must sum to 1",
        ),
        (
            make_i1,
            {"purchase_dist": [[((1,), 0.3)]]},
            "purchase_dist[0] probabilities must sum to 1",
        ),
        (
            make_i1,
            {"purchase_dist": [[((0,), -0.5), ((1,), 1.5)]]},
            "purchase_dist[0] probabilities must be non-negative",
        ),
        (
            make_i1,
            {"purchase_dist": [[((1,),)]]},
            "purchase_dist[0] entry must have 2 entries, got 1",
        ),
        (
            make_i1,
            {"purchase_dist": [[((1, 1), 1.0)]]},
            "purchase_dist[0] purchase must have 1 entries, got 2",
        ),
        (
            make_i1,
            {"purchase_dist": [[((5,), 1.0)]]},
            "purchase_dist[0] purchase 5 is above the maximum 2",
        ),
        (
            make_i1,
            {"purchase_dist": [[((-3,), 1.0)]]},
            "purchase_dist[0] purchase -3 is below the minimum 0",
        ),
        (
            make_i1,
            {"purchase_dist": [[((2.5,), 1.0)]]},
            "purchase_dist[0] purchase must be an integer, got 2.5",
        ),
        (
            _dear_i1,
            {"purchase_dist": [[((2,), 1.0)]]},
            "purchase_dist[0] purchase [2] spends 4, above c_max 2",
        ),
        (make_i1, {"price_dist": []}, "price_dist must have 1 entries, got 0"),
        (
            make_i1,
            {"price_dist": [[[(1, 7, 1.0)]]]},
            "price_dist[0][0] price index 7 is above the maximum 1",
        ),
        (
            make_i1,
            {"price_dist": [[[(1, -1, 1.0)]]]},
            "price_dist[0][0] price index -1 is below the minimum 0",
        ),
        (
            make_i1,
            {"price_dist": [[[(0, 0, 1.0)]]]},
            "price_dist[0][0]: a withheld product has price index -1, got 0",
        ),
        (
            make_i1,
            {"price_dist": [[[(2, 1, 1.0)]]]},
            "price_dist[0][0] z 2 is above the maximum 1",
        ),
        (
            make_i1,
            {"price_dist": [[[(0, -1, 0.5), (1, 1, 0.25)]]]},
            "price_dist[0][0] probabilities must sum to 1",
        ),
    ],
    ids=[
        "no-supply-state",
        "empty-distribution",
        "sum-0.3",
        "negative-probability",
        "short-entry",
        "purchase-length",
        "purchase-above-cap",
        "purchase-negative",
        "purchase-fractional",
        "purchase-over-budget",
        "no-product",
        "offer-index-7",
        "offered-index--1",
        "withheld-index-0",
        "z-2",
        "offer-sum-0.75",
    ],
)
def test_playback_checks_its_policy(make_model, changes, message):
    """Playback refuses a malformed policy before its first slot.

    Each case used to raise an IndexError or a ValueError, or to run: a
    distribution not summing to 1, a purchase beyond A_max, available or
    c_max, a negative or fractional one, and an offer at price index -1,
    which Python reads as the top price.
    """
    _, plp, sol = optimal_profit(make_i1(), [1.0], [1.0])
    policy = replace(extract_xy_policy(plp, sol), **changes)
    ec = _ec(controller="oracle", oracle_policy=policy)
    _raises(InputError, message, run_episode, ec, make_model())


def test_trace_process_has_no_stationary_distribution():
    _raises(
        InputError,
        "trace processes have no stationary distribution",
        process_distribution,
        _trace(["s0"]),
    )


# --- oracles ------------------------------------------------------------


@pytest.mark.parametrize(
    "solve", [optimal_profit, brute_force_opt], ids=["lp", "brute-force"]
)
@pytest.mark.parametrize(
    "pi_x, pi_y, message",
    [
        ([1.0, 0.0], [1.0], "pi_x must have length 1"),
        ([[1.0]], [1.0], "pi_x must have length 1"),
        ([NAN], [1.0], "pi_x must be finite"),
        ([1.0], [-1.0], "pi_y must be non-negative"),
        ([0.5], [1.0], "pi_x must sum to 1"),
    ],
)
def test_state_distribution_errors(solve, pi_x, pi_y, message):
    _raises(InputError, message, solve, make_i1(), pi_x, pi_y)


def _plant(beta, prices, A_max, c_max, supply, demand):
    K = len(prices)
    cfg = PlantConfig(
        beta=beta,
        alpha=[0.0] * K,
        price_set=prices,
        D_max=[1] * K,
        A_max=A_max,
        c_max=c_max,
    )
    return validate_config(cfg, supply, demand)


def _grid_plant(n):
    """Two materials bought at unit cost 1, n + 1 units each: (n+1)^2 buys."""
    x = SupplyState(id="x", unit_cost=[1, 1], available=[n, n])
    y = DemandState(id="y", F=[[1.0]])
    return _plant([[1], [1]], [[1.0]], [n, n], 2 * n, [x], [y]), [1.0], [1.0]


def _free_buys_plant():
    """Two supply states of 31 free buys each, two products of three prices."""
    xs = [SupplyState(id=f"x{i}", unit_cost=[0], available=[30]) for i in range(2)]
    ys = [DemandState(id=f"y{i}", F=[[1.0, 1.0, 1.0]] * 2) for i in range(2)]
    model = _plant([[1, 1]], [[1.0, 2.0, 3.0]] * 2, [30], 0, xs, ys)
    return model, [0.5, 0.5], [0.5, 0.5]


def _free_grid_plant():
    x = SupplyState(id="x", unit_cost=[0, 0], available=[50, 50])
    y = DemandState(id="y", F=[[1.0]])
    return _plant([[1], [1]], [[1.0]], [50, 50], 0, [x], [y]), [1.0], [1.0]


@pytest.mark.parametrize(
    "make, message",
    [
        # 51^2 purchase vectors in one state: past the 2,000 per-side cap
        (_free_grid_plant, "too many pure policies to enumerate"),
        # 31^2 purchase combinations times 4^4 offer combinations
        (_free_buys_plant, "too many pure policies to enumerate"),
        # every purchase vector is undominated at positive unit costs
        (lambda: _grid_plant(25), "too many undominated policies to mix exactly"),
        (lambda: _grid_plant(16), "too many policy triples to mix exactly"),
    ],
    ids=["per-side-cap", "pure-pairs", "undominated", "triples"],
)
def test_brute_force_size_limits(make, message):
    _raises(InstanceTooLarge, message, brute_force_opt, *make())


def _two_phase_policy():
    model = make_two_phase()
    _, plp, sol = optimal_profit(model, [0.5, 0.5], [0.5, 0.5])
    return extract_xy_policy(plp, sol)


@pytest.mark.parametrize(
    "policy, message",
    [
        (_two_phase_policy, "price_dist[0] must have 1 entries, got 2"),
        (
            lambda: _i1_policy(price_dist=[[[(1, 7, 1.0)]]]),
            "price_dist[0][0] price index 7 is above the maximum 1",
        ),
        (
            lambda: _i1_policy(price_dist=[[[(1, -1, 1.0)]]]),
            "price_dist[0][0] price index -1 is below the minimum 0",
        ),
        (
            lambda: _i1_policy(price_dist=[[[(1, 1)]]]),
            "price_dist[0][0] entry must have 3 entries, got 2",
        ),
        (
            lambda: _i1_policy(price_dist=[[]]),
            "price_dist[0] must have 1 entries, got 0",
        ),
    ],
    ids=["other-plant", "index-7", "offered-index--1", "short-entry", "no-state"],
)
def test_two_price_reduce_checks_its_offers(policy, message):
    # another plant's policy and an offer at index -1, read as the top
    # price, used to run; the others raised IndexError or ValueError
    _raises(InputError, message, two_price_reduce, policy(), make_i1())


def _i1_policy(**changes):
    _, plp, sol = optimal_profit(make_i1(), [1.0], [1.0])
    return replace(extract_xy_policy(plp, sol), **changes)


@pytest.mark.parametrize(
    "offers, message",
    [
        ([(1, 0, 2.0)], "price_dist[0][0] probabilities must sum to 1"),
        (
            [(0, -1, 1.5), (1, 0, -0.5)],
            "price_dist[0][0] probabilities must be non-negative",
        ),
        ([(0, -1, 0.5), (1, 0, NAN)], "price_dist[0][0] probabilities must be finite"),
        ([(1, 0, "a")], "price_dist[0][0] probabilities must be numbers, got 'a'"),
        ([(1, 0, 0.3)], "price_dist[0][0] probabilities must sum to 1"),
        # finite weights whose sum overflows
        (
            [(0, -1, 1e308), (1, 0, 1e308)],
            "price_dist[0][0] probabilities must sum to 1",
        ),
    ],
    ids=[
        "weight-2",
        "weight--0.5",
        "weight-nan",
        "weight-string",
        "sum-0.3",
        "sum-overflows",
    ],
)
def test_two_price_reduce_checks_its_probabilities(offers, message):
    # weights of 2.0 and -0.5 and the overflowing pair used to raise
    # TargetOutsideHull, an internal fault; NaN and a sum of 0.3 returned an
    # entry, and "a" raised TypeError
    policy = _i1_policy(price_dist=[[offers]])
    _raises(InputError, message, two_price_reduce, policy, make_i1())


# One verdict: playback and two_price_reduce read a policy's offers with one
# reader, so a malformed price_dist gets the same InputError from both, and
# a malformed purchase_dist an InputError from playback.

_POLICY_MUTATIONS = [NAN, math.inf, -math.inf, -1, 2.0, "a", None, []]


@cache
def _lp_policy(name):
    """(model, LP policy, playback processes) of i1 or the two-phase plant."""
    if name == "i1":
        model, pi = make_i1(), [1.0]
        processes = (constant_process("s0"), constant_process("d0"))
    else:
        model, pi = make_two_phase(), [0.5, 0.5]
        processes = (_iid(["cheap", "dear"], pi), _iid(["hot", "cold"], pi))
    _, plp, sol = optimal_profit(model, pi, pi)
    return model, extract_xy_policy(plp, sol), processes


def _containers(obj, path=()):
    """The paths to obj and to every list or tuple nested in it."""
    yield path
    for i, v in enumerate(obj):
        if isinstance(v, (list, tuple)):
            yield from _containers(v, path + (i,))


def _mutated(obj, path, edit):
    """A copy of obj with the container at path edited: one entry set to a
    value, or one entry more (a copy of the last) or fewer (the last)."""
    items = list(obj)
    if path:
        items[path[0]] = _mutated(obj[path[0]], path[1:], edit)
    elif edit == "more":
        items.append(items[-1])
    elif edit == "fewer":
        items.pop()
    else:
        items[edit[0]] = edit[1]
    return type(obj)(items)


def _draw_mutation(data, tree):
    path = data.draw(st.sampled_from(list(_containers(tree))))
    node = tree
    for i in path:
        node = node[i]
    leaf = st.tuples(st.integers(0, len(node) - 1), st.sampled_from(_POLICY_MUTATIONS))
    edit = data.draw(st.one_of(st.sampled_from(["more", "fewer"]), leaf))
    return _mutated(tree, path, edit)


def _verdict(call, *args):
    """The message of the InputError call raises, or None if it returns."""
    try:
        call(*args)
    except InputError as err:
        return str(err)
    return None


def _play(model, policy, processes):
    x, y = processes
    ec = _ec(controller="oracle", oracle_policy=policy, process_x=x, process_y=y)
    return run_episode(replace(ec, horizon=5), model)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(name=st.sampled_from(["i1", "two-phase"]), data=st.data())
def test_playback_and_two_price_give_one_verdict(name, data):
    model, policy, processes = _lp_policy(name)
    policy = replace(policy, price_dist=_draw_mutation(data, policy.price_dist))
    played = _verdict(_play, model, policy, processes)
    assert played == _verdict(two_price_reduce, policy, model)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(name=st.sampled_from(["i1", "two-phase"]), data=st.data())
def test_playback_refuses_mutated_purchases(name, data):
    model, policy, processes = _lp_policy(name)
    policy = replace(policy, purchase_dist=_draw_mutation(data, policy.purchase_dist))
    assert _verdict(_play, model, policy, processes) is not None


# --- integers -----------------------------------------------------------
#
# Every count, index, seed and starting queue goes through model.check_int:
# a Python or numpy integer in range passes, anything else raises the
# site's InputError subclass, never TypeError, IndexError or numpy's
# ValueError.


def _with_cfg(field, value):
    cfg = make_i1_cfg()
    setattr(cfg, field, value)
    return validate_config(cfg, [_S0], [_d0()])


def _with_supply(field, value):
    x = SupplyState(id="s0", unit_cost=[1], available=[2])
    setattr(x, field, value)
    return validate_config(make_i1_cfg(), [x], [_d0()])


def _playback(**changes):
    model = make_i1()
    _, plp, sol = optimal_profit(model, [1.0], [1.0])
    ec = _ec(controller="oracle", oracle_policy=extract_xy_policy(plp, sol))
    return run_episode(replace(ec, **changes), model)


def _placeholder_state(Q_actual_0):
    cfg = make_i1_cfg()
    return init_placeholder(cfg, make_params(cfg, 10.0), Q_actual_0)


def _draw(k=0, size=None):
    model = make_i1()
    rng = np.random.default_rng(0)
    return realize_demand(k, 1.0, model.demand_states[0], model.cfg, rng, size)


def _profit_bound(**changes):
    args = dict(V=10.0, horizon=50, replications=2, seed=0, epsilon=0.0, T=1)
    s0, d0 = constant_process("s0"), constant_process("d0")
    return check_profit_bound(make_i1(), s0, d0, **{**args, **changes})


def _frame_bound(replications):
    xs, ys = [0] * 8, [0] * 8
    return check_frame_bound(make_two_phase(), xs, ys, 20.0, 4, 2, replications)


# site -> (call with the integer v, a valid value, the value just out of
# range, the type every refusal raises)
INTEGER_SITES = {
    "beta": (lambda v: _with_cfg("beta", [[v]]), 1, -1, ConfigError),
    "D_max": (lambda v: _with_cfg("D_max", [v]), 2, 10**6 + 1, ConfigError),
    "A_max": (lambda v: _with_cfg("A_max", [v]), 2, 0, ConfigError),
    "c_max": (lambda v: _with_cfg("c_max", v), 2, -1, ConfigError),
    "unit_cost": (lambda v: _with_supply("unit_cost", [v]), 1, 2**53 + 1, ConfigError),
    "available": (lambda v: _with_supply("available", [v]), 2, -1, ConfigError),
    "seed": (lambda v: RngStream(v, 0), 0, -1, InputError),
    "stream": (lambda v: RngStream(0, v), 0, -1, InputError),
    "MARKOV initial": (
        lambda v: StateProcessSpec(
            mode=MARKOV, state_ids=["a"], transition=[[1.0]], initial=v
        ),
        0,
        1,
        InputError,
    ),
    "TRACE entry": (
        lambda v: StateProcessSpec(mode=TRACE, state_ids=["a", "b"], trace=[0, v]),
        1,
        2,
        InputError,
    ),
    "realize_demand k": (lambda v: _draw(k=v), 0, 1, InputError),
    "realize_demand size": (lambda v: _draw(size=v), 3, -1, InputError),
    "generate_states horizon": (
        lambda v: generate_states(_trace(["s0"]), v, np.random.default_rng(0)),
        20,
        21,
        InputError,
    ),
    "run_episode horizon": (
        lambda v: run_episode(_ec(horizon=v), make_i1()),
        20,
        0,
        InputError,
    ),
    "run_replications n": (
        lambda v: run_replications(_ec(), make_i1(), v),
        2,
        0,
        InputError,
    ),
    "check_profit_bound replications": (
        lambda v: _profit_bound(replications=v),
        2,
        1,
        InputError,
    ),
    "check_frame_bound replications": (_frame_bound, 2, 1, InputError),
    "check_profit_bound T": (lambda v: _profit_bound(T=v), 2, 0, InputError),
    "frame_values T": (
        lambda v: frame_values(make_two_phase(), [0] * 8, [0] * 8, v, 1),
        8,
        9,
        InputError,
    ),
    "frame_values J": (
        lambda v: frame_values(make_two_phase(), [0] * 8, [0] * 8, 4, v),
        2,
        3,
        InputError,
    ),
    "lookahead_value index": (
        lambda v: lookahead_value(make_two_phase(), [0, v], [0, 0]),
        1,
        2,
        InputError,
    ),
    "online Q0": (
        lambda v: run_episode(_ec(Q0=[v]), make_i1()),
        2,
        1,
        InitOutOfRange,
    ),
    "placeholder Q_actual_0": (
        lambda v: run_episode(_ec(placeholder=True, Q0=[v]), make_i1()),
        0,
        -1,
        InitOutOfRange,
    ),
    "playback Q0": (lambda v: _playback(Q0=[v]), 0, -1, InitOutOfRange),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_integer_site_takes_one_rule(site):
    call, ok, out_of_range, kind = INTEGER_SITES[site]
    call(np.int64(ok))  # numpy integers are integers
    for bad in (2.5, NAN, True, out_of_range, float(ok)):
        with pytest.raises(InputError) as err:
            call(bad)
        assert isinstance(err.value, kind), (site, bad, err.value)


def _demand_table(F=(2.0, 1.0), h=None, F_hat=None):
    F_hat = F_hat if F_hat is None else [list(F_hat)]
    return validate_config(make_i1_cfg(), [_S0], [_d0(F=[list(F)], h=h, F_hat=F_hat)])


# site: (the call with value v, a valid v, a v out of range, the error type)
REAL_SITES = {
    "alpha": (lambda v: _with_cfg("alpha", [v]), 0, -1, ConfigError),
    "price": (lambda v: _with_cfg("price_set", [[v, 2.0]]), 1, -1, ConfigError),
    "F": (lambda v: _demand_table(F=(v, 1.0)), 2, -1, ConfigError),
    "F_hat": (
        lambda v: _demand_table(h=1.0, F_hat=(v, 1.0)),
        2,
        -1,
        ConfigError,
    ),
    "h": (lambda v: _demand_table(h=v, F_hat=(2.0, 1.0)), 1, 0, ConfigError),
    "make_params V": (lambda v: make_params(make_i1_cfg(), v), 10, 0, InputError),
    "make_params theta": (
        lambda v: make_params(make_i1_cfg(), 10.0, theta=[v]),
        30,
        5.0,
        InputError,
    ),
    "compute_theta V": (lambda v: compute_theta(make_i1_cfg(), v), 0, -1, InputError),
    "check_profit_bound epsilon": (
        lambda v: _profit_bound(epsilon=v),
        0,
        -0.5,
        InputError,
    ),
    # the parser's own range is the finite numbers
    "scenario V": (lambda v: parse_scenario({**I1, "V": v}), 10, -math.inf, ParseError),
}


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_every_real_site_takes_one_rule(site):
    call, ok, out_of_range, kind = REAL_SITES[site]
    # numpy numbers are numbers, and pass without a RuntimeWarning (an error here)
    for form in (int, np.float64, np.float32, np.int64):
        call(form(ok))
    for bad in ("a", None, True, [1.0], NAN, math.inf, 10**400, out_of_range):
        with pytest.raises(InputError) as err:
            call(bad)
        assert isinstance(err.value, kind), (site, bad, err.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_episode(_ec(Q0=[2.5]), make_i1()),
        lambda: _placeholder_state([0.5]),
        lambda: _playback(Q0=[1.5]),
    ],
    ids=["online", "placeholder", "playback"],
)
def test_fractional_start_queues_are_refused(call):
    # they used to run, ending at final_Q [12.5], starting at Q [2.5] and
    # ending at [5.5]
    with pytest.raises(InitOutOfRange, match=r"\[0\] must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        # used to sample as [0, 1]
        lambda: StateProcessSpec(mode=TRACE, state_ids=["a", "b"], trace=[0.5, 1.7]),
        # used to equal the value of [0, 1]
        lambda: lookahead_value(make_two_phase(), [0.5, 1.5], [0, 1]),
        # used to draw the last product's demand
        lambda: _draw(k=-1),
        # used to raise IndexError
        lambda: _draw(k=5),
        # used to return a report with passed=False
        lambda: _profit_bound(T=NAN),
        # these four used to raise TypeError
        lambda: frame_values(make_two_phase(), [0] * 8, [0] * 8, 1.5, 2),
        lambda: run_episode(_ec(horizon=2.5), make_i1()),
        lambda: run_episode(_ec(horizon=True), make_i1()),
        lambda: run_replications(_ec(), make_i1(), NAN),
    ],
    ids=[
        "trace",
        "lookahead",
        "k=-1",
        "k=5",
        "bound-T-nan",
        "frame-T",
        "horizon-2.5",
        "horizon-True",
        "replications-nan",
    ],
)
def test_integer_inputs_that_ran_or_crashed(call):
    with pytest.raises(InputError):
        call()


def test_trace_may_be_a_numpy_array():
    # it used to raise numpy's ValueError (the truth value of an array)
    ids = ["hot", "cold"]
    trace = [0, 1, 1, 0] * 5
    as_list = StateProcessSpec(mode=TRACE, state_ids=ids, trace=trace)
    as_array = StateProcessSpec(mode=TRACE, state_ids=ids, trace=np.array(trace))
    model = make_two_phase()
    xs = StateProcessSpec(mode=TRACE, state_ids=["cheap", "dear"], trace=trace)
    runs = [
        run_episode(_ec(process_x=xs, process_y=spec), model)
        for spec in (as_list, as_array)
    ]
    assert runs[0] == runs[1]


def test_online_runs_leave_array_traces_unchanged():
    """An online run neither changes nor reads back a caller's int64 trace.

    The slot loop builds its state index in place of the supply path, so
    that path must be a copy even when the trace is an int64 array, alone
    or shared by both processes.  Reruns on the same config are equal to
    the run on list traces.
    """
    trace = [0, 1, 1, 0, 1] * 8
    model = make_two_phase()

    def ec(tx, ty):
        px = StateProcessSpec(mode=TRACE, state_ids=["cheap", "dear"], trace=tx)
        py = StateProcessSpec(mode=TRACE, state_ids=["hot", "cold"], trace=ty)
        return _ec(horizon=len(trace), process_x=px, process_y=py)

    want = run_episode(ec(trace, trace), model)
    alone = np.array(trace, dtype=np.int64)
    shared = np.array(trace, dtype=np.int64)
    for config in (ec(alone, trace), ec(shared, shared)):
        assert [run_episode(config, model) for _ in range(2)] == [want, want]
    assert alone.tolist() == trace and shared.tolist() == trace


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: run_episode(_ec(Q0=5), make_i1()), InitOutOfRange, "Q0 must have"),
        (lambda: _playback(Q0=5), InitOutOfRange, "Q0 must have"),
        (lambda: _placeholder_state(5), InitOutOfRange, "Q_actual_0 must have"),
        (lambda: run_episode(_ec(theta=12.0), make_i1()), InputError, "theta must"),
        (
            lambda: StateProcessSpec(mode=TRACE, state_ids=["a"], trace=5),
            InputError,
            "TRACE process needs a non-empty trace",
        ),
        (
            lambda: StateProcessSpec(mode=MARKOV, state_ids=["a"], transition=5),
            InputError,
            "MARKOV process needs an n-by-n transition matrix",
        ),
        (
            lambda: StateProcessSpec(mode=MARKOV, state_ids=["a"], transition=[1.0]),
            InputError,
            "MARKOV process needs an n-by-n transition matrix",
        ),
        (
            lambda: StateProcessSpec(mode=IID, state_ids="a", probs=[1.0]),
            InputError,
            "state_ids must be a sequence",
        ),
        (
            lambda: lookahead_value(make_two_phase(), 0, 0),
            InputError,
            "xs and ys must be equally long and non-empty",
        ),
        (
            lambda: frame_values(make_two_phase(), 0, [0] * 8, 4, 2),
            InputError,
            "xs must be a sequence, got 0",
        ),
    ],
    ids=[
        "online-Q0",
        "playback-Q0",
        "placeholder-Q0",
        "theta",
        "trace",
        "transition",
        "transition-row",
        "state-ids",
        "lookahead",
        "frame-values",
    ],
)
def test_sequence_arguments_take_one_rule(call, kind, message):
    # each used to raise TypeError from len(), which exits 3 as an internal fault
    with pytest.raises(kind, match=message):
        call()


def test_sequence_rule_accepts_tuples_ranges_and_arrays():
    model = make_two_phase()
    want = lookahead_value(model, [0, 1, 1], [1, 0, 1]).phi_T
    assert lookahead_value(model, (0, 1, 1), np.array([1, 0, 1])).phi_T == want
    spec = StateProcessSpec(mode=TRACE, state_ids=("a", "b"), trace=range(2))
    assert generate_states(spec, 2, np.random.default_rng(0)).tolist() == [0, 1]
