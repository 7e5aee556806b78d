import pytest

from plantsim.controller import (
    ControllerParams,
    InitOutOfRange,
    ThetaTooSmall,
    compute_indicators,
    compute_theta,
    decide_pricing,
    decide_purchase,
    init_placeholder,
    init_state,
    make_params,
)
from plantsim.model import DemandState, PlantConfig, SupplyState, validate_config
from plantsim.processes import constant_process
from plantsim.simulator import EpisodeConfig, run_episode

from conftest import make_i1, make_i1_cfg


def test_theta_i1():
    cfg = make_i1_cfg()
    assert compute_theta(cfg, 10.0) == [24.0]
    # V=0 is not a valid run setting but isolates the buffer terms
    assert compute_theta(cfg, 0.0) == [4.0]


def test_theta_two_materials():
    cfg = PlantConfig(
        beta=[[1], [2]],
        alpha=[0.0],
        price_set=[[3.0]],
        D_max=[2],
        A_max=[2, 2],
        c_max=100,
    )
    assert compute_theta(cfg, 10.0) == [38.0, 24.0]


def test_theta_unused_material_is_zero():
    cfg = PlantConfig(
        beta=[[1], [0]],
        alpha=[0.0],
        price_set=[[2.0]],
        D_max=[1],
        A_max=[1, 1],
        c_max=10,
    )
    th = compute_theta(cfg, 10.0)
    assert th[1] == 0.0


def test_indicators():
    cfg = make_i1_cfg()
    assert compute_indicators([1], cfg) == [1]
    assert compute_indicators([2], cfg) == [0]
    cfg2 = PlantConfig(
        beta=[[1], [2]],
        alpha=[0.0],
        price_set=[[3.0]],
        D_max=[2],
        A_max=[2, 2],
        c_max=100,
    )
    # mu_max = [2, 4]; the product draws on both materials
    assert compute_indicators([10, 1], cfg2) == [1]
    assert compute_indicators([10, 4], cfg2) == [0]


def test_make_params_requires_positive_v(i1_cfg):
    with pytest.raises(ValueError):
        make_params(i1_cfg, 0.0)


def test_theta_override_guard(i1_cfg):
    with pytest.raises(ThetaTooSmall):
        make_params(i1_cfg, 10.0, theta=[20.0])
    p = make_params(i1_cfg, 10.0, theta=[30.0])
    assert p.theta == [30.0]
    p = make_params(i1_cfg, 10.0, theta=[20.0], allow_unsafe_theta=True)
    assert p.theta == [20.0]


def test_purchase_i1_cases(i1_model):
    cfg = i1_model.cfg
    x = i1_model.supply_states[0]
    params = make_params(cfg, 10.0)
    # weight 10*1 + 5 - 24 < 0 and the budget covers both units
    assert decide_purchase([5], x, params, cfg) == [2]
    # above theta the weight is positive: buy nothing
    assert decide_purchase([30], x, params, cfg) == [0]


def test_purchase_respects_availability(i1_model):
    cfg = i1_model.cfg
    params = make_params(cfg, 10.0)
    x = SupplyState(id="tight", unit_cost=[1], available=[1])
    assert decide_purchase([5], x, params, cfg) == [1]


def test_purchase_knapsack_prefers_heavier_weight():
    cfg = PlantConfig(
        beta=[[1], [1]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[2],
        A_max=[2, 2],
        c_max=1,
    )
    x = SupplyState(id="x", unit_cost=[1, 1], available=[1, 1])
    # weights (V=1): 1+2-8 = -5 and 1+2-6 = -3; budget fits one unit
    params = ControllerParams(V=1.0, theta=[8.0, 6.0])
    assert decide_purchase([2, 2], x, params, cfg) == [1, 0]


def test_purchase_knapsack_budget_binds(i1_model):
    cfg = i1_model.cfg
    params = make_params(cfg, 10.0)
    x = SupplyState(id="dear", unit_cost=[2], available=[2])
    # weight 20 + 2 - 24 < 0, but only one unit fits in the budget of 2
    assert decide_purchase([2], x, params, cfg) == [1]
    # at Q=5 the weight is 20 + 5 - 24 > 0: not worth buying at this cost
    assert decide_purchase([5], x, params, cfg) == [0]


def test_purchase_brute_force_agreement(rng):
    # the DP with its lexicographic tie-break must match exhaustive search
    for _ in range(100):
        M = int(rng.integers(1, 4))
        cfg = PlantConfig(
            beta=[[1]] * M,
            alpha=[0.0],
            price_set=[[1.0]],
            D_max=[1],
            A_max=[int(rng.integers(1, 4)) for _ in range(M)],
            c_max=int(rng.integers(0, 6)),
        )
        x = SupplyState(
            id="x",
            unit_cost=[int(rng.integers(0, 3)) for _ in range(M)],
            available=[int(rng.integers(0, 4)) for _ in range(M)],
        )
        Q = [int(rng.integers(0, 12)) for _ in range(M)]
        theta = [float(rng.integers(0, 12)) for _ in range(M)]
        params = ControllerParams(V=1.0, theta=theta)
        got = decide_purchase(Q, x, params, cfg)

        w = [1.0 * x.unit_cost[m] + Q[m] - theta[m] for m in range(M)]
        ub = [min(cfg.A_max[m], x.available[m]) for m in range(M)]
        best, best_a = None, None
        stack = [(0, [])]
        while stack:
            m, prefix = stack.pop()
            if m == M:
                cost = sum(x.unit_cost[i] * prefix[i] for i in range(M))
                if cost > cfg.c_max:
                    continue
                val = sum(w[i] * prefix[i] for i in range(M))
                cand = (val, prefix)
                if best is None or val < best - 1e-12 or (
                    abs(val - best) <= 1e-12 and prefix < best_a
                ):
                    best, best_a = val, prefix
                continue
            for a in range(ub[m] + 1):
                stack.append((m + 1, prefix + [a]))
        assert got == best_a, (Q, theta, x.unit_cost, x.available, cfg.A_max)


def test_pricing_i1_cases(i1_model):
    cfg = i1_model.cfg
    y = i1_model.demand_states[0]
    params = make_params(cfg, 10.0)
    assert decide_pricing([5], y, params, cfg) == ([1], [2.0])
    # at Q=4 the best score is exactly zero: strictly positive is required
    z, _ = decide_pricing([4], y, params, cfg)
    assert z == [0]
    # below mu_max the low-stock flag suppresses the sale outright
    assert decide_pricing([1], y, params, cfg) == ([0], [1.0])


def test_pricing_tie_takes_smaller_price():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    # F chosen so both prices score identically: g(1) = g(2) > 0
    supply = [SupplyState(id="s", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d", F=[[2.0, 1.0]])]
    model = validate_config(cfg, supply, demand)
    params = ControllerParams(V=1.0, theta=[4.0])
    # Q=5: relief = 1; g(1) = 1*1*2 + 2*1 = 4; g(2) = 1*2*1 + 1*1 = 3
    assert decide_pricing([5], model.demand_states[0], params, cfg) == ([1], [1.0])
    # Q=6: relief = 2; g(1) = 2+4=6; g(2) = 2+2... recompute => g(1)=1*2+2*2=6, g(2)=2+2=4
    assert decide_pricing([6], model.demand_states[0], params, cfg) == ([1], [1.0])


def test_demand_blind_pricing_matches_informed(i1_model):
    cfg = i1_model.cfg
    y = i1_model.demand_states[0]
    blind = make_params(cfg, 10.0, demand_blind=True)
    seen = make_params(cfg, 10.0)
    for q in range(0, 27):
        assert decide_pricing([q], y, blind, cfg) == decide_pricing([q], y, seen, cfg)


def test_init_state_band(i1_model):
    cfg = i1_model.cfg
    params = make_params(cfg, 10.0)
    st = init_state(cfg, params)
    assert st.Q == [2] and st.fake == [0]
    with pytest.raises(InitOutOfRange):
        init_state(cfg, params, Q0=[1])
    with pytest.raises(InitOutOfRange):
        init_state(cfg, params, Q0=[27])


def test_init_placeholder(i1_model):
    cfg = i1_model.cfg
    params = make_params(cfg, 10.0)
    st = init_placeholder(cfg, params, [0])
    assert st.Q == [2] and st.fake == [2]
    assert st.actual_inventory() == [0]
    top = init_placeholder(cfg, params, [24])  # theta + A_max - mu_max
    assert top.Q == [26]
    with pytest.raises(InitOutOfRange):
        init_placeholder(cfg, params, [25])


def _one_slot_run(model, seed, Q0, horizon=1):
    """Seeded i1 episode from Q0; slot demand comes from channel 2 of the seed."""
    ec = EpisodeConfig(
        horizon=horizon,
        seed=seed,
        V=10.0,
        process_x=constant_process("s0"),
        process_y=constant_process("d0"),
        Q0=Q0,
        record_log=True,
    )
    return run_episode(ec, model)


def test_controller_step_composition(i1_model):
    # find a seed whose first demand draw at price 2 is exactly one unit
    for seed in range(50):
        m = _one_slot_run(i1_model, seed, [5])
        _, _, _, _, A, Z, P, D, phi, phi_actual, _ = m.log[0]
        assert list(A) == [2]
        assert list(Z) == [1] and list(P) == [2.0]
        assert phi == phi_actual
        if list(D) == [1]:
            assert phi == pytest.approx(0.0)
            assert m.final_Q == [6]
            break
    else:
        pytest.fail("no seed produced a single-unit draw")


def test_controller_step_upper_corner(i1_model):
    m = _one_slot_run(i1_model, 1, [26])
    assert list(m.log[0][4]) == [0]
    assert m.final_Q[0] <= 26


def test_controller_step_lower_corner_no_departure(i1_model):
    # 2*mu_max = 4 > 2 = Q: weight-based pricing cannot fire below mu_max+...
    m = _one_slot_run(i1_model, 1, [2])
    assert m.final_Q[0] >= 2


def test_queue_band_always_holds(i1_model):
    m = _one_slot_run(i1_model, 77, None, horizon=2000)
    for q in [row[3][0] for row in m.log[1:]] + m.final_Q:
        assert 2 <= q <= 26
