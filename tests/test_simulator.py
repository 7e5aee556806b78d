import math
from dataclasses import replace

import numpy as np
import pytest

from plantsim.controller import (
    InitOutOfRange,
    compute_theta,
    make_params,
    queue_band,
)
from plantsim.model import DemandState, PlantConfig, SupplyState, validate_config
from plantsim.oracles import extract_xy_policy, optimal_profit
from plantsim.processes import (
    IID,
    MARKOV,
    RngStream,
    StateProcessSpec,
    TraceExhausted,
    constant_process,
    realize_demand,
)
from plantsim.simulator import (
    _CH_DEMAND,
    EpisodeConfig,
    check_frame_bound,
    check_profit_bound,
    drift_constant,
    log_header,
    run_episode,
    run_replications,
    summarize,
    write_slot_log,
)

from conftest import make_i1, make_i1_cfg, make_blind, make_two_phase
from test_episode_digest import CASES, run_case


def _i1_ec(**kw):
    base = dict(
        horizon=5000,
        seed=0,
        V=10.0,
        process_x=constant_process("s0"),
        process_y=constant_process("d0"),
    )
    base.update(kw)
    return EpisodeConfig(**base)


def test_episode_reproducible():
    model = make_i1()
    a = run_episode(_i1_ec(record_log=True), model)
    b = run_episode(_i1_ec(record_log=True), model)
    assert a.total_phi == b.total_phi
    assert a.final_Q == b.final_Q
    assert a.log == b.log


def test_streams_differ():
    model = make_i1()
    a = run_episode(_i1_ec(), model)
    b = run_episode(_i1_ec(stream=1), model)
    assert a.total_phi != b.total_phi


def test_queue_band_and_drift():
    model = make_i1()
    m = run_episode(_i1_ec(horizon=20_000), model)
    assert m.q_lower_bound == [2]
    assert m.q_upper_bound == [26.0]
    assert m.q_min[0] >= 2 and m.q_max[0] <= 26
    assert m.bound_violations == 0
    assert m.drift_bound == 2.0
    assert m.max_slot_drift <= m.drift_bound
    assert m.phi_mismatch_slots == 0
    assert m.total_phi == m.total_phi_actual


def test_profit_near_optimum():
    model = make_i1()
    runs = run_replications(_i1_ec(horizon=50_000), model, 4)
    s = summarize(runs)
    assert s.mean >= 0.8 - 3 * s.se
    assert s.mean <= 1.0 + 3 * s.se


def test_single_slot_zero_demand():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[0.0, 0.0]])]
    model = validate_config(cfg, supply, demand)
    m = run_episode(_i1_ec(horizon=1), model)
    # the controller still buys (queue far below theta); no revenue exists
    assert m.total_phi == -2.0
    assert m.bound_violations == 0


def test_trace_process_and_exhaustion():
    model = make_two_phase()
    spec_x = StateProcessSpec(
        mode="TRACE", state_ids=["cheap", "dear"], trace=[0, 1] * 10
    )
    spec_y = StateProcessSpec(
        mode="TRACE", state_ids=["hot", "cold"], trace=[1, 0] * 10
    )
    ec = EpisodeConfig(
        horizon=20, seed=0, V=10.0, process_x=spec_x, process_y=spec_y
    )
    m = run_episode(ec, model)
    assert m.horizon == 20
    with pytest.raises(TraceExhausted):
        run_episode(
            EpisodeConfig(
                horizon=21, seed=0, V=10.0, process_x=spec_x, process_y=spec_y
            ),
            model,
        )


def test_unsafe_theta_counts_violations():
    model = make_i1()
    ec = _i1_ec(
        horizon=500,
        theta=[10.0],
        allow_unsafe_theta=True,
    )
    m = run_episode(ec, model)
    assert m.bound_violations > 0


def test_placeholder_equivalence():
    model = make_i1()
    ph = run_episode(
        _i1_ec(placeholder=True, Q0=[0], record_log=True), model
    )
    shifted = run_episode(_i1_ec(Q0=[2], record_log=True), model)
    assert ph.log == shifted.log
    assert ph.total_phi == shifted.total_phi
    assert ph.fake == [2] and shifted.fake == [0]
    # actual inventory = control queue minus the fake units, every slot
    assert ph.final_Q[0] - ph.fake[0] == shifted.final_Q[0] - 2


@pytest.mark.parametrize("placeholder", [False, True])
def test_empty_Q0_rejected(placeholder):
    with pytest.raises(InitOutOfRange):
        run_episode(_i1_ec(horizon=10, placeholder=placeholder, Q0=[]), make_i1())


def test_playback_checks_Q0():
    model = make_i1()
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    pol = extract_xy_policy(plp, sol)
    for Q0 in ([5, 7, 9], [-3], []):
        with pytest.raises(InitOutOfRange):
            run_episode(
                _i1_ec(horizon=10, controller="oracle", oracle_policy=pol, Q0=Q0),
                model,
            )
    # playback has no band: any non-negative start of the right length runs
    ec = _i1_ec(horizon=10, controller="oracle", oracle_policy=pol, Q0=[0])
    assert len(run_episode(ec, model).final_Q) == 1


@pytest.mark.parametrize(
    "name, value",
    [
        ("placeholder", True),
        ("demand_blind", True),
        ("theta", [1.0]),
        ("allow_unsafe_theta", True),
    ],
)
def test_playback_rejects_online_settings(name, value):
    model = make_i1()
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    pol = extract_xy_policy(plp, sol)
    ec = _i1_ec(horizon=10, controller="oracle", oracle_policy=pol)
    with pytest.raises(ValueError, match=name):
        run_episode(replace(ec, **{name: value}), model)


@pytest.mark.parametrize("name", sorted(CASES))
def test_loop_demand_is_realize_demand(name):
    """The slot loop draws demand exactly as realize_demand does.

    Replaying channel _CH_DEMAND of the episode's stream through
    realize_demand, one call per offered product in ascending k, gives
    every logged D; withheld products log 0.  So the tests of
    realize_demand cover the sampler that the runs use.
    """
    model, ec, m = run_case(name)
    states = {y.id: y for y in model.demand_states}
    rng = RngStream(ec.seed, ec.stream).generator(_CH_DEMAND)
    offers = sold = 0
    for _, _, y_id, _, _, Z, P, D, *_ in m.log:
        for k, (z, p, d) in enumerate(zip(Z, P, D)):
            if z:
                assert d == realize_demand(k, p, states[y_id], model.cfg, rng)
                offers += 1
                sold += d
            else:
                assert d == 0
    assert offers > 1000 and sold > 0


def test_demand_blind_equivalence():
    model = make_blind()
    spec_y = StateProcessSpec(
        mode=IID, state_ids=["lo", "hi"], probs=[0.5, 0.5]
    )
    blind = run_episode(
        _i1_ec(process_y=spec_y, demand_blind=True, record_log=True), model
    )
    seen = run_episode(_i1_ec(process_y=spec_y, record_log=True), model)
    assert blind.log == seen.log
    assert blind.total_phi == seen.total_phi


def test_assembly_delay_matches_base():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.5],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[2.0, 1.0]])]
    model = validate_config(cfg, supply, demand)
    ec = _i1_ec(record_log=True)
    base = run_episode(ec, model)
    delayed = run_episode(replace(ec, assembly_delay=True), model)
    assert delayed.log == base.log
    assert delayed.total_phi == base.total_phi
    assert base.startup_cost == 0.0
    assert delayed.startup_cost == 1.0  # D_max * alpha
    assert delayed.net_total_phi_actual == base.total_phi_actual - 1.0


def test_oracle_playback_upper_bound():
    model = make_i1()
    value, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    pol = extract_xy_policy(plp, sol)
    ec = _i1_ec(horizon=20_000, controller="oracle", oracle_policy=pol)
    runs = run_replications(ec, model, 4)
    s = summarize(runs)
    assert s.mean <= value + 3 * s.se
    # the raw policy has no low-stock guard, so some slots fall short
    assert sum(r.phi_mismatch_slots for r in runs) > 0
    for r in runs:
        assert r.total_phi_actual <= r.total_phi


def test_summarize_matches_hand_computation():
    model = make_i1()
    runs = run_replications(_i1_ec(horizon=2000), model, 3)
    s = summarize(runs)
    vals = [r.avg_phi_actual for r in runs]
    mean = sum(vals) / 3
    sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / 2)
    assert s.mean == pytest.approx(mean)
    assert s.se == pytest.approx(sd / math.sqrt(3))


def test_drift_constant_formula():
    model = make_i1()
    assert drift_constant(model) == 2.0
    cfg = PlantConfig(
        beta=[[1], [2]],
        alpha=[0.0],
        price_set=[[3.0]],
        D_max=[2],
        A_max=[2, 2],
        c_max=100,
    )
    supply = [SupplyState(id="s0", unit_cost=[1, 1], available=[2, 2])]
    demand = [DemandState(id="d0", F=[[1.0]])]
    m2 = validate_config(cfg, supply, demand)
    # mu_max = [2, 4]: B = 0.5 * (max(4,4) + max(4,16))
    assert drift_constant(m2) == 10.0


def test_slot_log_csv(tmp_path):
    model = make_i1()
    m = run_episode(_i1_ec(horizon=40, record_log=True), model)
    path = tmp_path / "run.csv"
    write_slot_log(str(path), model, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_id,y_id,Q_1,A_1,Z_1,P_1,D_1,phi,phi_actual,avg_phi"
    assert lines[0] == ",".join(log_header(model))
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "s0" and first[2] == "d0"
    assert first[3] == "2"  # starting queue
    # profit columns carry 9 significant digits at most
    for cell in (first[-3], first[-2], first[-1]):
        float(cell)


def test_log_requires_recording(tmp_path):
    model = make_i1()
    m = run_episode(_i1_ec(horizon=5), model)
    with pytest.raises(ValueError):
        write_slot_log(str(tmp_path / "x.csv"), model, m)


def test_check_profit_bound_i1():
    model = make_i1()
    rep = check_profit_bound(
        model,
        constant_process("s0"),
        constant_process("d0"),
        V=10.0,
        horizon=20_000,
        replications=4,
        seed=3,
    )
    assert rep.phi_opt == pytest.approx(1.0, abs=1e-9)
    assert rep.slack == pytest.approx(0.2)
    assert rep.violations == 0
    assert rep.passed


def test_check_profit_bound_defaults_are_the_iid_bound():
    model = make_i1()
    s0, d0 = constant_process("s0"), constant_process("d0")
    B = drift_constant(model)
    rep = check_profit_bound(model, s0, d0, 10.0, 2000)
    assert (rep.epsilon, rep.T, rep.n) == (0.0, 1, 8)
    assert rep.rhs == rep.phi_opt - B / 10.0
    assert rep.slack == B / 10.0
    rep = check_profit_bound(model, s0, d0, 10.0, 2000, epsilon=0.05, T=32)
    theta = compute_theta(model.cfg, 10.0)
    spill = sum(max(th, float(a)) for th, a in zip(theta, model.cfg.A_max))
    assert rep.rhs == rep.phi_opt - 32 * B / 10.0 - 0.05 * (1.0 + spill / 10.0)
    assert rep.passed


@pytest.mark.parametrize(
    "name", ["i1-online", "i1-placeholder", "mid-online", "mid-placeholder"]
)
def test_metrics_report_queue_band(name):
    model, ec, m = run_case(name)
    lo, hi = queue_band(make_params(model.cfg, ec.V), model.cfg)
    assert m.q_lower_bound == lo and m.q_upper_bound == hi
    assert all(a <= q for a, q in zip(lo, m.q_min))
    assert all(q <= b for q, b in zip(m.q_max, hi))


def test_check_frame_bound_two_phase():
    model = make_two_phase()
    xs = [0] * 20 + [1] * 20
    ys = [1] * 20 + [0] * 20
    rep = check_frame_bound(model, xs, ys, V=20.0, T=4, J=10, replications=8, seed=1)
    assert len(rep.frame_values) == 10
    assert all(v >= -1e-9 for v in rep.frame_values)
    assert rep.passed


def test_run_replications_rejects_nonpositive_count():
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1 replication"):
            run_replications(_i1_ec(horizon=10), make_i1(), n)


def test_check_frame_bound_rejects_nonpositive_split():
    model = make_two_phase()
    xs = [0] * 16
    ys = [1] * 16
    for T, J in ((0, 4), (4, 0), (-4, -4)):
        with pytest.raises(ValueError, match="T, J >= 1"):
            check_frame_bound(model, xs, ys, V=20.0, T=T, J=J, replications=4)
    with pytest.raises(ValueError):
        check_frame_bound(model, xs, ys, V=20.0, T=4, J=5, replications=4)


def test_bound_checks_need_two_replications():
    model = make_i1()
    s0, d0 = constant_process("s0"), constant_process("d0")
    msg = "needs at least 2 replications"
    with pytest.raises(ValueError, match=msg):
        check_profit_bound(model, s0, d0, V=10.0, horizon=100, replications=1, seed=0)
    with pytest.raises(ValueError, match=msg):
        check_frame_bound(model, [0] * 8, [0] * 8, V=10.0, T=4, J=2, replications=1)
    with pytest.raises(ValueError, match=msg):
        check_profit_bound(
            model, s0, d0, V=10.0, epsilon=0.05, T=4, horizon=100, replications=1
        )


def test_check_markov_bound_rejects_bad_window_and_epsilon():
    model = make_i1()
    s0, d0 = constant_process("s0"), constant_process("d0")
    for T, epsilon, msg in (
        (0, 0.05, "T >= 1"),
        (-8, 0.05, "T >= 1"),
        (8, -5.0, "epsilon"),
        (8, math.nan, "epsilon"),
        (8, math.inf, "epsilon"),
    ):
        with pytest.raises(ValueError, match=msg):
            check_profit_bound(
                model, s0, d0, V=10.0, epsilon=epsilon, T=T, horizon=100, replications=2
            )
    rep = check_profit_bound(
        model, s0, d0, V=10.0, epsilon=0.0, T=1, horizon=2000, replications=2
    )
    assert rep.epsilon == 0.0 and rep.T == 1


def test_check_markov_bound_variant():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="hot", F=[[2.0, 1.0]]),
        DemandState(id="mid", F=[[1.0, 0.5]]),
    ]
    model = validate_config(cfg, supply, demand)
    spec_y = StateProcessSpec(
        mode=MARKOV,
        state_ids=["hot", "mid"],
        transition=[[0.9, 0.1], [0.1, 0.9]],
        initial=0,
    )
    rep = check_profit_bound(
        model,
        constant_process("s0"),
        spec_y,
        V=10.0,
        epsilon=0.05,
        T=32,
        horizon=20_000,
        replications=4,
        seed=0,
    )
    assert rep.passed
    assert rep.rhs < rep.phi_opt  # the allowance terms push the bound down
