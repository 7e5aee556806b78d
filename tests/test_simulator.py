import collections
import inspect
import math
import sys
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from operator import le

import numpy as np
import pytest

import plantsim.simulator as sim
from plantsim.controller import (
    InitOutOfRange,
    InvariantViolation,
    compute_theta,
    make_params,
    queue_band,
)
from plantsim.model import DemandState, PlantConfig, SupplyState, validate_config
from plantsim.oracles import OraclePolicy, extract_xy_policy, optimal_profit
from plantsim.processes import (
    IID,
    MARKOV,
    TRACE,
    RngStream,
    StateProcessSpec,
    TraceExhausted,
    _cumulative,
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

from plants import (
    CASES,
    blind_plant,
    constant_process,
    make_blind,
    make_i1,
    make_i1_cfg,
    make_two_phase,
    run_case,
    short_slot_cases,
)
from reference import _ref_short_slot, _reference_run_episode


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


# -- the memoized slot loop against reference.py's slot-by-slot loop ---------


def _random_process(rng, ids, mode, horizon):
    n = len(ids)
    if mode == IID:
        probs = rng.dirichlet([1.0] * n).tolist()
        return StateProcessSpec(mode=IID, state_ids=ids, probs=probs)
    if mode == MARKOV:
        P = rng.dirichlet([1.0] * n, size=n).tolist()
        return StateProcessSpec(
            mode=MARKOV, state_ids=ids, transition=P, initial=int(rng.integers(0, n))
        )
    return StateProcessSpec(
        mode=TRACE, state_ids=ids, trace=rng.integers(0, n, horizon).tolist()
    )


def _canon(v):
    """v with each float as its float.hex, so == compares bits and types."""
    if type(v) is float:
        return v.hex()
    if type(v) in (list, tuple):
        return type(v)(map(_canon, v))
    return v


def _both(ec, model):
    """Each loop's metrics in _canon form, or the InvariantViolation it raised."""
    out = []
    for run in (_reference_run_episode, run_episode):
        try:
            out.append({k: _canon(v) for k, v in vars(run(ec, model)).items()})
        except InvariantViolation as e:
            out.append(("raised", str(e)))
    return out


def _buy_max(Q, x, params, cfg):
    return [min(a, v) for a, v in zip(cfg.A_max, x.available)]


def _offer_all(Q, y, params, cfg):
    return [1] * cfg.K, [ps[0] for ps in cfg.price_set]


def _no_band(params, cfg):
    # no floor above 0; the ceiling theta + A_max holds for any theta
    return [0] * cfg.M, [th + a for th, a in zip(params.theta, cfg.A_max)]


def test_memoized_loop_matches_reference_loop(monkeypatch):
    """run_episode equals the slot-by-slot reference on random small plants.

    Per plant: an online run (plain, placeholder, assembly delay or
    demand-blind, every other one logged), an unsafe-theta run that only
    counts its breaches, playback from empty queues, and runs with
    controller functions patched to breach the band or fall short, once
    with checks on and once count-only.  A queue above theta + A_max or a
    short slot comes only from a faulty controller, so it raises in a
    count-only run too, where the reference counts it.
    """
    rng = np.random.default_rng(20261018)
    H = 200
    seen = {"raised band": 0, "raised short": 0, "counted": 0, "playback short": 0}
    modes = (IID, MARKOV, TRACE)
    for i in range(32):
        model = blind_plant(rng)
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        px = _random_process(rng, ids_x, modes[i % 3], H)
        py = _random_process(rng, ids_y, modes[i // 3 % 3], H)
        V = float(rng.choice([2.0, 5.0, 20.0]))
        ec = EpisodeConfig(
            horizon=H, seed=i, V=V, process_x=px, process_y=py, record_log=i % 2 == 0
        )
        variant = {1: "placeholder", 2: "assembly_delay", 3: "demand_blind"}.get(i % 4)
        run = replace(ec, **{variant: True}) if variant else ec
        if variant == "placeholder":
            lo, hi = queue_band(make_params(model.cfg, V), model.cfg)
            run.Q0 = [min(int(rng.integers(0, 3)), int(b - a)) for a, b in zip(lo, hi)]
        ref, new = _both(run, model)
        assert ref == new and isinstance(ref, dict), (i, variant)

        # low enough to breach, high enough that the band holds the start
        safe = compute_theta(model.cfg, V)
        bottom = [u - a for u, a in zip(model.mu_max, model.cfg.A_max)]
        theta = [max(0.5 * th, b) for th, b in zip(safe, bottom)]
        ref, new = _both(replace(ec, theta=theta, allow_unsafe_theta=True), model)
        assert ref == new, (i, "unsafe theta")
        seen["counted"] += ref["bound_violations"] > 0

        pi_x = np.full(len(ids_x), 1 / len(ids_x))
        pi_y = np.full(len(ids_y), 1 / len(ids_y))
        _, plp, sol = optimal_profit(model, pi_x, pi_y)
        policy = extract_xy_policy(plp, sol)
        pb = replace(ec, controller="oracle", oracle_policy=policy)
        ref, new = _both(replace(pb, Q0=[0] * model.cfg.M), model)
        assert ref == new, (i, "playback")
        seen["playback short"] += ref["phi_mismatch_slots"] > 0

        with monkeypatch.context() as mp:
            if i % 2:
                mp.setattr(sim, "decide_purchase", _buy_max)
                kind = "raised band"
            else:
                mp.setattr(sim, "decide_pricing", _offer_all)
                mp.setattr(sim, "queue_band", _no_band)
                kind = "raised short"
            ref, new = _both(ec, model)
            assert ref == new, (i, kind)
            seen[kind] += not isinstance(ref, dict)
            ref, new = _both(replace(ec, allow_unsafe_theta=True), model)
            if isinstance(ref, dict) and any(
                q > float.fromhex(b) for q, b in zip(ref["q_max"], ref["q_upper_bound"])
            ):
                assert new[0] == "raised" and "left its band" in new[1], (i, kind)
            elif isinstance(ref, dict) and ref["phi_mismatch_slots"] > 0:
                assert new[0] == "raised", (i, kind)
                assert "exceeds stored material" in new[1], (i, kind)
            else:
                assert ref == new, (i, kind, "count-only")
    assert min(seen.values()) >= 3, seen


def test_count_only_queues_stay_in_the_code_box():
    """Below safe theta, count-only runs keep Q in [0, floor(theta + A_max)].

    The slot loop codes exactly that box (_Transitions): from any start in
    the band the controller buys only while Q < theta, at most A_max, and
    serves a short slot from stock.  The slot-by-slot reference counts
    every breach and raises none, so its extremes are read; run_episode
    must equal it.
    """
    rng = np.random.default_rng(20261019)
    H = 300
    counted = 0
    modes = (IID, MARKOV, TRACE)
    for i in range(30):
        model = blind_plant(rng)
        cfg = model.cfg
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        px = _random_process(rng, ids_x, modes[i % 3], H)
        py = _random_process(rng, ids_y, modes[i // 3 % 3], H)
        V = float(rng.choice([1.0, 5.0, 20.0]))
        safe = compute_theta(cfg, V)
        # below safe, and high enough that the band holds mu_max
        scale = rng.uniform(0, 1, cfg.M)
        bottom = [u - a for u, a in zip(model.mu_max, cfg.A_max)]
        theta = [max(f * th, b) for f, th, b in zip(scale, safe, bottom)]
        top = [math.floor(th + a) for th, a in zip(theta, cfg.A_max)]
        Q0 = [int(rng.integers(u, b + 1)) for u, b in zip(model.mu_max, top)]
        ec = EpisodeConfig(
            horizon=H,
            seed=i,
            V=V,
            process_x=px,
            process_y=py,
            theta=theta,
            allow_unsafe_theta=True,
            Q0=Q0,
        )
        ref, new = _both(ec, model)
        q_max = ref["q_max"]
        assert min(ref["q_min"]) >= 0 and all(map(le, q_max, top)), (i, q_max, top)
        assert ref == new, i
        counted += ref["bound_violations"] > 0
    assert counted >= 10, counted


def test_count_only_run_raises_below_zero(monkeypatch):
    # a purchase of -1 a slot leaves i1's band below (counted) and then the
    # code box below 0, which only a faulty controller reaches
    monkeypatch.setattr(sim, "decide_purchase", lambda Q, x, params, cfg: [-1])
    monkeypatch.setattr(sim, "decide_pricing", lambda Q, y, params, cfg: ([0], [1.0]))
    with pytest.raises(InvariantViolation, match="slot 2: queue 0 left its band: -1"):
        run_episode(_i1_ec(horizon=10, allow_unsafe_theta=True), make_i1())


def test_overflowed_theta_still_runs():
    # V * margin overflows, so theta and the band's top are inf; the state
    # codes cover the largest float instead, which no queue reaches
    ec = _i1_ec(horizon=200, V=1.7e308)
    ref, new = _both(ec, make_i1())
    assert ref == new and new["q_upper_bound"] == [math.inf.hex()]


# The source lines of _slot_loop, read when the tests are collected from the
# source that was imported, so an edit to simulator.py while the suite runs
# cannot move the lines the tests count.
_lines, _first = inspect.getsourcelines(sim._slot_loop)


def _line(text):
    """The one line of _slot_loop whose stripped source is text."""
    [line] = [_first + i for i, t in enumerate(_lines) if t.strip() == text]
    return line


def _line_runs(call, texts):
    """call() and how often each line of _slot_loop given by its text ran.

    The runs are counted by a line tracer on _slot_loop frames alone.
    Every event still reaches the tracer set before, if there is one.
    """
    code = sim._slot_loop.__code__
    lines = [_line(text) for text in texts]
    counts = [0] * len(lines)
    outer = sys.gettrace()

    def trace(frame, event, arg):
        inner = outer(frame, event, arg) if outer else None
        if frame.f_code is not code:
            return inner

        def local(frame, event, arg):
            nonlocal inner
            if event == "line" and frame.f_lineno in lines:
                counts[lines.index(frame.f_lineno)] += 1
            if inner is not None:
                inner = inner(frame, event, arg)
            return local

        return local

    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(outer)
    return result, counts


def _fast_slots(call):
    """call() and the number of slots the slot loop served on its fast path.

    Those are the runs of _slot_loop's one `continue` line, the fast
    path's last.
    """
    result, (count,) = _line_runs(call, ["continue"])
    return result, count


# A checked slot's count of one product's demand: the branch on a listed
# buffer, then the count in numpy or, from the list, one uniform at a time.
_BRANCH = "if buf is None:"
_NUMPY_COUNT = "d += int(np.count_nonzero(arr[pos:end] < pr))"


class _Draws:
    """A generator that records the stream offset at which each draw ends."""

    def __init__(self, rng):
        self.rng = rng
        self.ends = [0]

    def random(self, n):
        self.ends.append(self.ends[-1] + n)
        return self.rng.random(n)


def _straddles(log, d_max, ends) -> int:
    """The logged slots whose demand uniforms hold a draw's end strictly inside."""
    n = start = 0
    for row in log:
        end = start + sum(d for z, d in zip(row[5], d_max) if z)
        i = bisect_right(ends, start)
        n += i < len(ends) and ends[i] < end
        start = end
    return n


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
def test_online_loop_matches_reference_across_refills(monkeypatch, chunk):
    """The online loop equals the reference when its demand buffer refills.

    With _CHUNK patched to a few uniforms, refills land inside slots: a
    revisited state reads its demand code from its signature's table,
    built after the refill, and a checked slot counts a window that runs
    past the buffer in two parts, its head there and its tail in a fresh
    draw.  Per random plant, with IID, MARKOV or TRACE processes: an online
    run (plain or placeholder, logged or not) and a count-only unsafe-theta
    run; then i1 with D_max above _CHUNK, and a one-material plant whose two
    products, of D_max 2 * _CHUNK + 1 and 1, are offered together on most
    slots, each logged and unlogged.  Their tails draw more than _CHUNK
    uniforms, and the two-product slots span draws.  A checked slot counts
    a product's window in numpy until _TABLE_AFTER checked slots have read
    the buffer, and from its list after that.  Each of the eight routes is
    taken at least 3 times, except the list at _CHUNK 1 and 2: there a
    buffer is used up before it is listed, so the list is read seldom or
    never.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    routes = ["table reads", "first-visit counts", "refills in a slot", "linked"]
    routes += ["counted in numpy", "counted from the list"]
    routes += ["wide tails", "two-product slots across draws"]
    seen = dict.fromkeys(routes, 0)

    class Table(list):
        def __getitem__(self, i):
            seen["table reads"] += 1
            return list.__getitem__(self, i)

    code_table, step, setup = sim._code_table, sim._Transitions.step, sim._online_setup

    def counted_table(*args):
        return Table(code_table(*args))

    def counted_step(self, *args):
        seen["linked"] -= 1  # each run adds its H slots; the linked ones take no step
        return step(self, *args)

    def counted_setup(*args):
        decide, state, band = setup(*args)

        def counted(*key):
            dec = decide(*key)
            seen["first-visit counts"] += bool(dec[4])
            return dec

        return counted, state, band

    draws = []

    class Recorded(RngStream):
        def generator(self, channel=0):
            rng = super().generator(channel)
            if channel == _CH_DEMAND:
                rng = _Draws(rng)
                draws.append(rng)
            return rng

    monkeypatch.setattr(sim, "_code_table", counted_table)
    monkeypatch.setattr(sim._Transitions, "step", counted_step)
    monkeypatch.setattr(sim, "_online_setup", counted_setup)
    monkeypatch.setattr(sim, "RngStream", Recorded)

    rng = np.random.default_rng(20261020 + chunk)
    H = 600
    modes = (IID, MARKOV, TRACE)
    runs = []
    for i in range(6):
        model = blind_plant(rng)
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        px = _random_process(rng, ids_x, modes[i % 3], H)
        py = _random_process(rng, ids_y, modes[i // 2 % 3], H)
        V = float(rng.choice([2.0, 5.0, 20.0]))
        ec = EpisodeConfig(
            horizon=H, seed=i, V=V, process_x=px, process_y=py, record_log=i % 2 == 0
        )
        if i % 3 == 1:
            lo, hi = queue_band(make_params(model.cfg, V), model.cfg)
            Q0 = [min(int(rng.integers(0, 3)), int(b - a)) for a, b in zip(lo, hi)]
            ec = replace(ec, placeholder=True, Q0=Q0)
        safe = compute_theta(model.cfg, V)
        bottom = [u - a for u, a in zip(model.mu_max, model.cfg.A_max)]
        theta = [max(0.5 * th, b) for th, b in zip(safe, bottom)]
        unsafe = EpisodeConfig(
            horizon=H,
            seed=i,
            V=V,
            process_x=px,
            process_y=py,
            theta=theta,
            allow_unsafe_theta=True,
            record_log=i % 2 == 1,
        )
        runs += [(model, ec), (model, unsafe)]
    wide = _i1_demand_cap(2 * chunk + 1)
    _, hi = queue_band(make_params(wide.cfg, 10.0), wide.cfg)
    for log in (True, False):
        runs.append((wide, _i1_ec(horizon=H, Q0=[int(hi[0])], record_log=log)))
    pair = _two_product_plant(2 * chunk + 1, 1)
    _, hi = queue_band(make_params(pair.cfg, 10.0), pair.cfg)
    for log in (True, False):
        runs.append((pair, _i1_ec(horizon=H, Q0=[int(hi[0])], record_log=log)))

    for model, ec in runs:
        seen["linked"] += H
        texts = [_BRANCH, _NUMPY_COUNT]
        (ref, new), (branch, numpy) = _line_runs(lambda: _both(ec, model), texts)
        assert ref == new and isinstance(ref, dict), (ec.seed, ec.theta)
        seen["counted in numpy"] += numpy
        seen["counted from the list"] += branch - numpy
        ends = draws[-1].ends
        seen["wide tails"] += sum(b - a > chunk for a, b in zip(ends, ends[1:]))
        if ec.record_log:
            across = _straddles(new["log"], model.cfg.D_max, ends)
            seen["refills in a slot"] += across
            if model is pair:
                seen["two-product slots across draws"] += across
                # both products offered on most slots
                both = sum(row[5] == (1, 1) for row in new["log"])
                assert both >= 0.9 * H, both
    if chunk < 5:
        # a buffer of a uniform or two is used up by the slot that refills it
        # or soon after, before it is listed
        del seen["counted from the list"]
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("chunk", [8, 64])
def test_a_refill_costs_about_one_checked_slot(monkeypatch, chunk):
    """On i1 with a small buffer, each refill adds about one checked slot.

    The slot that refills the buffer rebuilds its own signature's table at
    once, if that table was current, so the next slots of its state take
    the fast path again.  Every other checked slot is a first visit, the
    first slot of a (state, demand code) pair, which links it, or one of
    the _TABLE_AFTER slots before its signature's first table.  A refill
    used to cost about _TABLE_AFTER checked slots, until the table was
    rebuilt: 3,007 of these 4,000 slots were checked at _CHUNK 8, with
    1,000 refills.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    visits = 0
    setup = sim._online_setup

    def counted_setup(*args):
        decide, state, band = setup(*args)

        def counted(*key):
            nonlocal visits
            visits += 1
            return decide(*key)

        return counted, state, band

    draws = []

    class Recorded(RngStream):
        def generator(self, channel=0):
            rng = super().generator(channel)
            if channel == _CH_DEMAND:
                rng = _Draws(rng)
                draws.append(rng)
            return rng

    monkeypatch.setattr(sim, "_online_setup", counted_setup)
    monkeypatch.setattr(sim, "RngStream", Recorded)
    model = make_i1()
    ec = _i1_ec(horizon=4000, seed=3)
    (ref, new), fast = _fast_slots(lambda: _both(ec, model))
    assert ref == new and isinstance(ref, dict)
    refills = len(draws[-1].ends) - 1
    assert refills >= ec.horizon // chunk, refills
    codes = math.prod(n + 1 for n in model.cfg.D_max)  # demand codes per decision
    checked = ec.horizon - fast
    bound = visits * (1 + codes) + sim._TABLE_AFTER + refills
    assert checked <= bound, (checked, visits, refills)


def test_one_state_paths_draw_nothing(monkeypatch):
    """A one-state IID or MARKOV process takes the all-zero path, drawn free.

    Online and playback runs equal the slot-by-slot reference, which draws
    every path by generate_states, bit for bit: on i1, both of whose
    processes have one state, and on random plants with one supply or one
    demand state, the other process IID, MARKOV or TRACE.  A spy on the
    state channels (_CH_X, _CH_Y) shows that a one-state process draws
    nothing there, and a process with more states one uniform per slot or
    per transition, as generate_states does.
    """
    drawn = collections.Counter()

    class Spy(np.random.Generator):
        def random(self, size=None, *args, **kwargs):
            drawn[self.channel] += math.prod(np.atleast_1d(1 if size is None else size))
            return super().random(size, *args, **kwargs)

    class Spied(RngStream):
        def generator(self, channel=0):
            spy = Spy(super().generator(channel).bit_generator)
            spy.channel = channel
            return spy

    monkeypatch.setattr(sim, "RngStream", Spied)

    def draws(spec, H):
        if spec.mode == TRACE or len(spec.state_ids) == 1:
            return 0
        return H if spec.mode == IID else H - 1

    def one_state(mode, ids):
        if mode == IID:
            return constant_process(ids[0])
        return StateProcessSpec(mode=MARKOV, state_ids=ids, transition=[[1.0]])

    H = 300
    i1 = make_i1()
    cases = [(i1, one_state(m, ["s0"]), one_state(m, ["d0"])) for m in (IID, MARKOV)]
    rng = np.random.default_rng(20261023)
    modes = (IID, MARKOV, TRACE)
    for i in range(30):
        model = blind_plant(rng)
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        if len(ids_x) > 1 and len(ids_y) > 1:
            continue
        px, py = (
            one_state(modes[i % 2], ids)
            if len(ids) == 1
            else _random_process(rng, ids, modes[i % 3], H)
            for ids in (ids_x, ids_y)
        )
        cases.append((model, px, py))
    assert len(cases) >= 12, len(cases)
    for i, (model, px, py) in enumerate(cases):
        ec = EpisodeConfig(horizon=H, seed=i, V=5.0, process_x=px, process_y=py)
        pi_x, pi_y = (
            np.full(len(states), 1 / len(states))
            for states in (model.supply_states, model.demand_states)
        )
        _, plp, sol = optimal_profit(model, pi_x, pi_y)
        policy = extract_xy_policy(plp, sol)
        playback = replace(ec, controller="oracle", oracle_policy=policy)
        for run in (ec, playback):
            drawn.clear()
            ref, new = _both(run, model)
            assert ref == new and isinstance(ref, dict), (i, run.controller)
            assert drawn[sim._CH_X] == draws(px, H), (i, px.mode, drawn)
            assert drawn[sim._CH_Y] == draws(py, H), (i, py.mode, drawn)


def test_a_one_state_trace_still_runs_out():
    # a one-state TRACE path is still its trace, checked for its length
    model = make_i1()
    for side, state in (("process_x", "s0"), ("process_y", "d0")):
        trace = StateProcessSpec(mode=TRACE, state_ids=[state], trace=[0] * 10)
        assert run_episode(_i1_ec(horizon=10, **{side: trace}), model).horizon == 10
        with pytest.raises(TraceExhausted, match="trace has 10 slots, 11 requested"):
            run_episode(_i1_ec(horizon=11, **{side: trace}), model)


def _seeded_run(rng, i, H):
    """A random plant and an unlogged H-slot online run of it.

    Its supply and demand processes cycle through IID, MARKOV and TRACE
    with i, the supply process fastest.
    """
    modes = (IID, MARKOV, TRACE)
    model = blind_plant(rng)
    ids_x = [x.id for x in model.supply_states]
    ids_y = [y.id for y in model.demand_states]
    px = _random_process(rng, ids_x, modes[i % 3], H)
    py = _random_process(rng, ids_y, modes[i // 3 % 3], H)
    V = float(rng.choice([1.0, 2.0, 5.0]))
    return model, EpisodeConfig(horizon=H, seed=i, V=V, process_x=px, process_y=py)


def _check_fast_path(model, ec):
    """The fast-path rules of run ec, unlogged and logged; the logged metrics."""
    i = ec.seed
    (ref, new), fast = _fast_slots(lambda: _both(ec, model))
    assert ref == new and isinstance(ref, dict), i
    assert fast >= 5, (i, fast)
    logged = replace(ec, record_log=True)
    (ref, new_logged), fast_logged = _fast_slots(lambda: _both(logged, model))
    assert ref == new_logged and fast_logged == fast, (i, fast, fast_logged)
    assert len(new_logged["log"]) == ec.horizon
    assert {**new_logged, "log": None} == new, i
    return new_logged


@pytest.mark.parametrize("chunk", [16, 64])
def test_linked_slots_take_the_fast_path(monkeypatch, chunk):
    """Linked slots skip the checked path and the run still equals the reference.

    Per random plant, with IID, MARKOV and TRACE processes, an unlogged
    online run serves at least 5 slots by the fast path (a linked state
    whose current table gives a linked code) and equals the slot-by-slot
    reference bit for bit.  The same run logged takes the same routes, so
    it serves as many slots by the fast path, and writes every row; it
    equals the reference, log included, and its metrics, log aside, are the
    unlogged run's.  With _CHUNK patched small, at least 3 runs draw 10 or
    more buffers, so their tables go stale inside the run; a plant that
    never offers draws none.  Many random plants never offer, so five more
    plants are ones that sell: the first draws of a second seed whose
    reference run sells (5 of its first 6), each logged run selling at
    least one unit.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    rng = np.random.default_rng(20261021 + chunk)
    H = 1000
    refilled = 0
    for i in range(9):
        model, ec = _seeded_run(rng, i, H)
        new_logged = _check_fast_path(model, ec)
        d_max = model.cfg.D_max
        drawn = sum(d for row in new_logged["log"] for z, d in zip(row[5], d_max) if z)
        refilled += drawn >= 10 * chunk
    assert refilled >= 3, refilled

    rng = np.random.default_rng(20261037)
    selling = []
    for i in range(6):
        model, ec = _seeded_run(rng, i, H)
        ref = _reference_run_episode(replace(ec, record_log=True), model)
        if any(any(row[7]) for row in ref.log):
            selling.append((model, ec))
    assert len(selling) == 5
    for model, ec in selling:
        new_logged = _check_fast_path(model, ec)
        assert sum(sum(row[7]) for row in new_logged["log"]) >= 1, ec.seed


def _never_buy(policy, M):
    """policy with every supply state's purchase fixed at zero."""
    idle = [[((0,) * M, 1.0)] for _ in policy.purchase_dist]
    return replace(policy, purchase_dist=idle)


@pytest.mark.parametrize("chunk", [2, 5, 64])
def test_block_playback_matches_reference_loop(monkeypatch, chunk):
    """Playback in blocks equals the slot-by-slot reference, bit for bit.

    Blocks of a few slots split the stretches the fast path books at once,
    so short slots land on block edges; 64-slot blocks let its windows
    double.  Per random small plant: IID, MARKOV or TRACE processes, the
    optimal policy and a never-buy one (every slot with demand is short),
    from empty queues and from the default start, with and without a log.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    block_queues = sim._block_queues
    seen = {"booked at once": 0, "stepped": 0, "short on an edge": 0}

    def counted(run, cfg, Q, decision, book):
        # _block_queues asks for the decision of each short slot alone
        def short(i):
            seen["stepped"] += 1
            seen["short on an edge"] += i == 0
            return decision(i)

        return block_queues(run, cfg, Q, short, book)

    monkeypatch.setattr(sim, "_block_queues", counted)
    rng = np.random.default_rng(20261019)
    H = 150
    modes = (IID, MARKOV, TRACE)
    for i in range(9):
        model = blind_plant(rng)
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        px = _random_process(rng, ids_x, modes[i % 3], H)
        py = _random_process(rng, ids_y, modes[i // 3], H)
        pi_x = np.full(len(ids_x), 1 / len(ids_x))
        pi_y = np.full(len(ids_y), 1 / len(ids_y))
        _, plp, sol = optimal_profit(model, pi_x, pi_y)
        policy = extract_xy_policy(plp, sol)
        for pol in (policy, _never_buy(policy, model.cfg.M)):
            for Q0 in (None, [0] * model.cfg.M):
                ec = EpisodeConfig(
                    horizon=H,
                    seed=i,
                    V=5.0,
                    process_x=px,
                    process_y=py,
                    controller="oracle",
                    oracle_policy=pol,
                    Q0=Q0,
                    record_log=(i + (Q0 is None)) % 2 == 0,
                )
                before = seen["stepped"]
                ref, new = _both(ec, model)
                assert ref == new and isinstance(ref, dict), (i, Q0)
                # the reference loop plays no blocks; the block driver's run counts
                seen["booked at once"] += H - (seen["stepped"] - before)
    assert min(seen.values()) >= 3, seen


def _ragged_plant_and_policy():
    """A plant and a hand-built policy whose option lists differ in length.

    Supply state x0 has five purchase options, one of weight 0, beside x1
    and x2 with one each; product 0 has four offers in y0, one of weight
    0, beside one in y1 and y2; product 1 has a zero-weight withheld offer
    in y1.  x2 and y2 are never visited by the processes below.
    """
    cfg = PlantConfig(
        beta=[[1, 0], [1, 2]],
        alpha=[0.0, 0.25],
        price_set=[[1.0, 2.0, 3.0], [1.5, 2.25]],
        D_max=[2, 3],
        A_max=[3, 2],
        c_max=4,
    )
    supply = [
        SupplyState(id="x0", unit_cost=[1, 1], available=[3, 2]),
        SupplyState(id="x1", unit_cost=[2, 1], available=[1, 2]),
        SupplyState(id="x2", unit_cost=[0, 0], available=[0, 0]),
    ]
    demand = [
        DemandState(id="y0", F=[[1.5, 1.0, 0.5], [2.5, 1.0]]),
        DemandState(id="y1", F=[[2.0, 1.25, 0.25], [3.0, 2.0]]),
        DemandState(id="y2", F=[[0.5, 0.5, 0.5], [1.0, 1.0]]),
    ]
    model = validate_config(cfg, supply, demand)
    purchase = [
        [((0, 0), 0.1), ((1, 0), 0.0), ((1, 1), 0.3), ((2, 2), 0.2), ((3, 1), 0.4)],
        [((1, 2), 1.0)],
        [((0, 0), 1.0)],
    ]
    offers = [
        [
            [(0, -1, 0.2), (1, 0, 0.0), (1, 1, 0.3), (1, 2, 0.5)],
            [(1, 2, 1.0)],
            [(0, -1, 1.0)],
        ],
        [
            [(1, 1, 1.0)],
            [(0, -1, 0.0), (1, 0, 0.6), (1, 1, 0.4)],
            [(1, 0, 0.5), (1, 1, 0.5)],
        ],
    ]
    policy = OraclePolicy(
        purchase_dist=purchase,
        price_dist=offers,
        c_hat=0.0,
        r_hat=0.0,
        a_hat=[0.0, 0.0],
        mu_hat=[0.0, 0.0],
        phi=0.0,
    )
    return model, policy


@pytest.mark.parametrize("chunk", [2, 5, 64])
def test_ragged_policy_playback_matches_reference_loop(monkeypatch, chunk):
    """Padded option tables play a ragged policy as the reference loop does.

    Options of weight 0, states with one option beside states with four or
    five, and states never visited; from empty queues (many short slots)
    and from mu_max, with and without a log.  Every option of positive
    weight of a visited state is drawn.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    model, policy = _ragged_plant_and_policy()
    H = 300
    rng = np.random.default_rng(20261024)
    px = StateProcessSpec(
        mode=TRACE, state_ids=["x0", "x1", "x2"], trace=rng.integers(0, 2, H).tolist()
    )
    py = StateProcessSpec(mode=IID, state_ids=["y0", "y1", "y2"], probs=[0.6, 0.4, 0.0])
    bought, offered = set(), set()
    for Q0 in ([0, 0], None):
        for log in (True, False):
            ec = EpisodeConfig(
                horizon=H,
                seed=7,
                V=5.0,
                process_x=px,
                process_y=py,
                controller="oracle",
                oracle_policy=policy,
                Q0=Q0,
                record_log=log,
            )
            ref, new = _both(ec, model)
            assert ref == new and isinstance(ref, dict), (Q0, log)
            assert ref["phi_mismatch_slots"] > 0 or Q0 is None
            for _, x, y, _, A, Z, P, *_ in new["log"] or ():
                bought.add((x, A))
                offered |= {(y, k, z, float.fromhex(P[k])) for k, z in enumerate(Z)}
    assert {x for x, _ in bought} == {"x0", "x1"}
    assert len(bought) == 5
    assert {(k, z, p) for y, k, z, p in offered if y == "y0"} == {
        (0, 0, 1.0), (0, 1, 2.0), (0, 1, 3.0), (1, 1, 2.25)
    }
    assert {(k, z, p) for y, k, z, p in offered if y == "y1"} == {
        (0, 1, 3.0), (1, 1, 1.5), (1, 1, 2.25)
    }


def _i1_demand_cap(n):
    cfg = replace(make_i1_cfg(), D_max=[n])
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[2.0, 1.0]], h=1.0, F_hat=[[2.0, 1.0]])]
    return validate_config(cfg, supply, demand)


def _two_product_plant(n1, n2):
    """i1 with a second product of the same material, of D_max n1 and n2."""
    cfg = replace(make_i1_cfg(), beta=[[1, 1]], alpha=[0.0, 0.0], D_max=[n1, n2])
    cfg = replace(cfg, price_set=[[1.0, 2.0]] * 2)
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    F = [[2.0, 1.0], [1.0, 0.5]]
    return validate_config(cfg, supply, [DemandState(id="d0", F=F, h=1.0, F_hat=F)])


def test_wide_windows_hold_two_draws_at_most():
    """Windows of 10**6 uniforms hold at most two draws of that size at once.

    A 6-slot online run on a one-material plant whose two products both
    have D_max 10**6 starts at the top of its band, so it offers both on
    every slot.  Each slot's windows run past the buffer, whose head is
    counted there and whose tail is a fresh draw: the old draw and the new
    one (8 MB each) are the peak.  Refilling at the slot's start with the
    whole slot's shortfall held 48.0 MB here.
    """
    model = _two_product_plant(10**6, 10**6)
    _, hi = queue_band(make_params(model.cfg, 10.0), model.cfg)
    ec = _i1_ec(horizon=6, Q0=[int(hi[0])], record_log=True)
    tracemalloc.start()
    try:
        m = run_episode(ec, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row[5] == (1, 1) for row in m.log)
    assert peak < 24 * 10**6, peak


def test_large_demand_cap_draws_as_realize_demand():
    """At D_max = 10**5 both drivers count demand in numpy, on the same stream.

    The online run starts at the top of its band, so it offers; every logged
    D equals the realize_demand replay of channel _CH_DEMAND, as in
    test_loop_demand_is_realize_demand.
    """
    model = _i1_demand_cap(10**5)
    _, hi = queue_band(make_params(model.cfg, 10.0), model.cfg)
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    runs = [
        _i1_ec(horizon=12, Q0=[int(hi[0])], record_log=True),
        _i1_ec(
            horizon=12,
            controller="oracle",
            oracle_policy=extract_xy_policy(plp, sol),
            record_log=True,
        ),
    ]
    y = model.demand_states[0]
    for ec in runs:
        m = run_episode(ec, model)
        rng = RngStream(ec.seed, ec.stream).generator(_CH_DEMAND)
        offers = 0
        for _, _, _, _, _, Z, P, D, *_ in m.log:
            assert D[0] == (realize_demand(0, P[0], y, model.cfg, rng) if Z[0] else 0)
            offers += Z[0]
        assert offers >= 10, ec.controller


def test_profit_bound_reports_its_init_term():
    """init_term = L(mu_max) / (V * horizon) is reported and changes no verdict."""
    model = make_i1()
    s0, d0 = constant_process("s0"), constant_process("d0")
    rep = check_profit_bound(model, s0, d0, 10.0, 2000)
    theta = compute_theta(model.cfg, 10.0)
    L = 0.5 * sum((q - th) ** 2 for q, th in zip(model.mu_max, theta))
    assert rep.init_term == L / (10.0 * 2000) > 0
    assert rep.rhs == rep.phi_opt - drift_constant(model) / 10.0
    assert rep.passed


def test_block_playback_keeps_huge_queues_exact():
    """Queues beyond int64 stay Python integers, equal to the reference's."""
    model = make_i1()
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    policy = extract_xy_policy(plp, sol)
    for pol in (policy, _never_buy(policy, 1)):
        ec = _i1_ec(horizon=300, controller="oracle", oracle_policy=pol, Q0=[2**70])
        ref, new = _both(replace(ec, record_log=True), model)
        assert ref == new and new["final_Q"][0] > 2**69


@pytest.mark.parametrize("b, M", [(2**40, 1), (2**31 - 1, 3)])
def test_block_playback_keeps_huge_changes_exact(b, M):
    """Queue changes whose squares outgrow int64 stay exact, drift included.

    An i1-like plant with D_max 1, using b units of each of M materials
    per sale, under a policy that always offers.  At b = 2**40 a sale's
    square overflows int64 though the queues would fit; at b = 2**31 - 1
    each square fits but the three materials' sum does not.
    """
    cfg = replace(make_i1_cfg(), beta=[[b]] * M, D_max=[1], A_max=[2] * M)
    cfg = replace(cfg, c_max=2 * M)
    model = validate_config(
        cfg,
        [SupplyState(id="s0", unit_cost=[1] * M, available=[2] * M)],
        [DemandState(id="d0", F=[[1.0, 0.5]], h=1.0, F_hat=[[1.0, 0.5]])],
    )
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    policy = replace(extract_xy_policy(plp, sol), price_dist=[[[(1, 1, 1.0)]]])
    ec = _i1_ec(horizon=300, controller="oracle", oracle_policy=policy, Q0=[3 * b] * M)
    ref, new = _both(replace(ec, record_log=True), model)
    assert ref == new and new["phi_mismatch_slots"] > 0
    assert float.fromhex(new["max_slot_drift"]) >= 0.5 * M * (b - 2) ** 2


def test_block_book_matches_outcome():
    """_block_book equals _outcome row by row, bit for bit.

    Random synthetic decisions: integer costs including 0, a float cost of
    0.0 (its phi is -0.0 until a sale), margins of either sign and of
    +-0.0, withheld products, and thresholds of 0 and 1, so whole rows
    have no demand.  Each slot's rows (A; D_max, 0 where withheld; -cost,
    margins and thresholds) are built from its decision as the option
    tables hold them.  Each slot's D is also counted from its uniforms one
    at a time, in slot order and ascending k.
    """
    rng = np.random.default_rng(20261022)
    kinds = ["int cost 0", "phi -0.0", "no demand", "withheld", "negative margin sold"]
    seen = dict.fromkeys(kinds, 0)
    for _ in range(40):
        M, K = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        beta = rng.integers(0, 3, size=(M, K))
        d_max = rng.integers(1, 4, size=K).tolist()
        decs = []
        for _ in range(int(rng.integers(1, 6))):
            A = rng.integers(0, 4, size=M).tolist()
            cost = [0, 0.0, int(rng.integers(1, 9)), float(rng.uniform(0, 5))][
                int(rng.integers(4))
            ]
            sells = [
                (
                    k,
                    float(rng.choice([-1.25, -0.0, 0.0, 0.5, 2.75])),
                    float(rng.choice([0.0, 0.4, 0.8, 1.0])),
                    d_max[k],
                    [(m, int(beta[m, k])) for m in range(M) if beta[m, k]],
                )
                for k in range(K)
                if rng.random() < 0.7
            ]
            decs.append((A, cost, None, None, sells))
        slot_dec = rng.integers(0, len(decs), size=50)
        seed = int(rng.integers(2**32))
        rows = []
        for A, cost, _, _, sells in decs:
            w, f = [0] * K, [-cost] + [0.0] * (2 * K)
            for k, margin, pr, n, _ in sells:
                w[k], f[1 + k], f[1 + K + k] = n, margin, pr
            rows.append((A, w, f))
        picked = [rows[j] for j in slot_dec.tolist()]
        bought = np.array([r[0] for r in picked], dtype=np.int64)
        width = np.array([r[1] for r in picked], dtype=np.int64)
        terms = np.array([r[2] for r in picked], dtype=float)
        phi, D, used, diff, bt = sim._block_book(
            bought, width, terms, np.random.default_rng(seed), beta
        )
        width = sum(sum(s[3] for s in decs[j][4]) for j in slot_dec.tolist())
        draws = np.random.default_rng(seed).random(width).tolist()
        pos = 0
        for t, j in enumerate(slot_dec.tolist()):
            dec = decs[j]
            code = 0
            for _, _, pr, n, _ in dec[4]:
                code = code * (n + 1) + sum(u < pr for u in draws[pos : pos + n])
                pos += n
            ref = sim._outcome(dec, code, K, [1] * M)
            assert float(ref[0]).hex() == phi[t].hex(), (t, dec, ref)
            assert ref[1:4] == tuple(tuple(a[t].tolist()) for a in (D, used, diff))
            assert ref[4].hex() == bt[t].hex()
            sold = [s for s in dec[4] if ref[1][s[0]]]
            seen["int cost 0"] += type(dec[1]) is int and dec[1] == 0
            seen["phi -0.0"] += ref[0] == 0 and math.copysign(1.0, ref[0]) < 0
            seen["no demand"] += not any(ref[1])
            seen["withheld"] += len(dec[4]) < K
            seen["negative margin sold"] += any(s[1] < 0 for s in sold)
        assert pos == width
    assert min(seen.values()) >= 20, seen


def test_short_slot_serves_its_plan_as_before():
    """_short_slot under a plan equals the reference short slot, bit for bit.

    The plan is playback's (A, cost, *_fulfillment(cfg, Z, P)): the cached
    fulfillment order and each product's margin.  On random decisions
    (short_slot_cases) the next queues must be equal, phi_actual of the
    same type and float.hex, and the drift of the same float.hex as the
    reference's, which sorts the offered products and sums Z[k] *
    served[k] * (P[k] - alpha[k]) over every k.
    """
    kinds = ["int phi_actual", "-0.0 term", "beyond stock", "margin tie"]
    seen = dict.fromkeys(kinds, 0)
    for cfg, dec, slots in short_slot_cases(np.random.default_rng(20261102), 400):
        A, cost, Z, P = dec
        plan = (A, cost, *sim._fulfillment(cfg, Z, P))
        margins = [p - a for p, a in zip(P, cfg.alpha)]
        for Q, D in slots:
            Qn, phia, bt = sim._short_slot(cfg, tuple(Q), plan, D)
            ref = _ref_short_slot(cfg, tuple(Q), dec, D)
            assert Qn == ref[0], (cfg, dec, Q, D)
            assert type(phia) is type(ref[1]), (cfg, dec, Q, D)
            assert float(phia).hex() == float(ref[1]).hex(), (cfg, dec, Q, D)
            assert bt.hex() == ref[2].hex(), (cfg, dec, Q, D)
            seen["int phi_actual"] += type(phia) is int
            seen["-0.0 term"] += any(m < 0 for m in margins)
            served_all = (q + a - u for q, a, u in zip(Q, A, _uses(cfg, D, Z)))
            seen["beyond stock"] += Qn != tuple(served_all)
            seen["margin tie"] += len({m for m, z in zip(margins, Z) if z}) < sum(Z)
    assert min(seen.values()) >= 100, seen


def _uses(cfg, D, Z):
    """The material that serving all of demand D of the offered products uses."""
    return [sum(b * d * z for b, d, z in zip(row, D, Z)) for row in cfg.beta]


@pytest.mark.parametrize("chunk", [2, 5, 64])
def test_playback_steps_only_short_slots(monkeypatch, chunk):
    """In playback, _short_slot runs exactly once per short slot.

    From empty queues, under the optimal and a never-buy policy, most slots
    start below mu_max; those that are not short are booked with the rest
    of their block, so the step count equals phi_mismatch_slots.
    """
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    calls = []
    short_slot = sim._short_slot

    def counted(cfg, Q, dec, D):
        calls.append(Q)
        return short_slot(cfg, Q, dec, D)

    monkeypatch.setattr(sim, "_short_slot", counted)
    rng = np.random.default_rng(20261023)
    H = 150
    stepped = booked = 0
    for i in range(6):
        model = blind_plant(rng)
        ids_x = [x.id for x in model.supply_states]
        ids_y = [y.id for y in model.demand_states]
        pi_x = np.full(len(ids_x), 1 / len(ids_x))
        pi_y = np.full(len(ids_y), 1 / len(ids_y))
        _, plp, sol = optimal_profit(model, pi_x, pi_y)
        policy = extract_xy_policy(plp, sol)
        for pol in (policy, _never_buy(policy, model.cfg.M)):
            ec = EpisodeConfig(
                horizon=H,
                seed=i,
                V=5.0,
                process_x=_random_process(rng, ids_x, IID, H),
                process_y=_random_process(rng, ids_y, IID, H),
                controller="oracle",
                oracle_policy=pol,
                Q0=[0] * model.cfg.M,
            )
            calls.clear()
            m = run_episode(ec, model)
            assert len(calls) == m.phi_mismatch_slots, (i, chunk)
            stepped += len(calls)
            booked += H - len(calls)
    assert stepped >= 30 and booked >= 30, (stepped, booked)


def test_logged_no_sale_playback_slot_keeps_int_phi():
    """A zero-cost slot with no sale logs phi = -cost = 0 as an int.

    A never-buy policy on i1 pays the integer cost 0 in every slot.  Its
    rows equal the reference loop's, types included; the no-sale rows log
    the int 0 for phi and phi_actual, the short ones their served profit.
    """
    model = make_i1()
    _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
    pol = _never_buy(extract_xy_policy(plp, sol), 1)
    for Q0 in (None, [0]):
        ec = _i1_ec(horizon=60, controller="oracle", oracle_policy=pol, Q0=Q0)
        ref, new = _both(replace(ec, record_log=True), model)
        assert ref == new
        log = run_episode(replace(ec, record_log=True), model).log
        idle = [row for row in log if not any(row[7])]
        assert len(idle) >= 3
        for row in idle:
            assert type(row[8]) is int and type(row[9]) is int
            assert row[8] == row[9] == 0


def test_bisect_rows_matches_bisect_right():
    """_bisect_rows equals bisect_right on each state's cumulative weights.

    Rows of unequal length from processes._cumulative (whose last bucket is
    inf), u exactly on each weight and one ulp either side, 0 and the
    largest uniform below 1, and blocks that leave states out.
    """
    rows = [
        _cumulative([0.25, 0.25, 0.5]),
        _cumulative([1.0]),
        _cumulative([0.5, 0.0, 0.5]),
        _cumulative([0.1] * 10),  # its first nine weights sum below 0.9
    ]
    table = sim._weight_table(rows)
    edges = [w for row in rows for w in row[:-1]]
    us = {0.0, 1.0 - 2**-53, *edges}
    us |= {float(np.nextafter(w, d)) for w in edges for d in (0.0, 1.0)}
    us = np.array(sorted(us))
    for states in ([0, 1, 2, 3], [3], [0, 2], [2, 2, 1]):
        s = np.resize(np.array(states), len(us))
        got = sim._bisect_rows(table, s, us)
        want = [bisect_right(rows[i], u) for i, u in zip(s.tolist(), us.tolist())]
        assert got.tolist() == want, states
