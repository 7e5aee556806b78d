import hashlib
import tracemalloc

import numpy as np
import pytest

from plantsim import oracles
from plantsim.model import (
    DemandState,
    PlantConfig,
    SupplyState,
    validate_config,
)
from plantsim.oracles import (
    ACTION_CAP,
    ActionSpaceTooLarge,
    InstanceTooLarge,
    NormalizationFailure,
    OraclePolicy,
    TargetOutsideHull,
    brute_force_opt,
    build_profit_lp,
    enumerate_actions,
    extract_xy_policy,
    frame_values,
    lookahead_value,
    optimal_profit,
    product_options,
    two_price_reduce,
    _best_pair_mix,
    _distinct_rows,
    _pareto_max,
    _reduce_one,
)
from plantsim.processes import (
    IID,
    MARKOV,
    StateProcessSpec,
    empirical_distribution,
    generate_states,
)
from plantsim.simplex import LpSolution, solve_lp

from plants import (
    _m3_k4_plant,
    _t8_frame_programs,
    doubled_rows,
    make_i1,
    make_two_phase,
    random_tiny_instance,
)
from reference import _per_slot_lookahead, _ref_enumerate_actions, _reference_profit_lp


def one(state_count):
    return np.full(state_count, 1.0 / state_count)


def test_enumerate_actions_i1():
    model = make_i1()
    acts = enumerate_actions(model.supply_states[0], model.cfg)
    assert acts == [(0,), (1,), (2,)]


def test_enumerate_actions_budget_prunes():
    cfg = PlantConfig(
        beta=[[1], [1]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[1],
        A_max=[2, 2],
        c_max=2,
    )
    x = SupplyState(id="x", unit_cost=[2, 1], available=[2, 2])
    model_acts = enumerate_actions(x, cfg)
    assert (1, 1) not in model_acts  # cost 3 over budget
    assert (1, 0) in model_acts and (0, 2) in model_acts


def test_action_guard_fires():
    cfg = PlantConfig(
        beta=[[1], [1], [1]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[1],
        A_max=[99, 99, 99],
        c_max=10**9,
    )
    x = SupplyState(id="x", unit_cost=[0, 0, 0], available=[99, 99, 99])
    with pytest.raises(ActionSpaceTooLarge):
        enumerate_actions(x, cfg)


def test_enumerate_actions_matches_reference(monkeypatch):
    # Zero unit costs, zero availability and budgets that bind below the
    # caps, each common; then the cap itself, at the count and one below.
    rng = np.random.default_rng(4242)
    seen = set()
    for i in range(300):
        M = int(rng.integers(1, 5))
        cfg = PlantConfig(
            beta=[[1]] * M,
            alpha=[0.0],
            price_set=[[1.0]],
            D_max=[1],
            A_max=rng.integers(0, 6, size=M).tolist(),
            c_max=int(rng.integers(0, 13)),
        )
        x = SupplyState(
            id=f"x{i}",
            unit_cost=rng.integers(0, 4, size=M).tolist(),
            available=rng.integers(0, 5, size=M).tolist(),
        )
        ub = np.minimum(cfg.A_max, x.available)
        seen |= {("free", 0 in x.unit_cost), ("empty", 0 in x.available)}
        seen.add(("binding", cfg.c_max < np.dot(x.unit_cost, ub)))
        want = _ref_enumerate_actions(x, cfg)
        assert enumerate_actions(x, cfg) == want
        monkeypatch.setattr(oracles, "ACTION_CAP", len(want))
        assert enumerate_actions(x, cfg) == want
        monkeypatch.setattr(oracles, "ACTION_CAP", len(want) - 1)
        for enumerate_ in (enumerate_actions, _ref_enumerate_actions):
            with pytest.raises(ActionSpaceTooLarge, match=f"more than {len(want) - 1} "):
                enumerate_(x, cfg)
        monkeypatch.undo()
    assert {("free", True), ("empty", True), ("binding", True)} <= seen


def test_action_guard_fires_before_the_over_cap_level():
    # Three free materials with 99 units each admit 100**3 vectors.  The
    # guard fires on the length of the third level before building it: the
    # 10**4 two-material prefixes are all that is ever held, where a list of
    # ACTION_CAP three-material vectors alone would take about 7 MB.
    cfg = PlantConfig(
        beta=[[1], [0], [0]],
        alpha=[0.0],
        price_set=[[2.0]],
        D_max=[1],
        A_max=[99, 99, 99],
        c_max=10**9,
    )
    x = SupplyState(id="huge", unit_cost=[0, 0, 0], available=[99, 99, 99])
    tracemalloc.start()
    try:
        with pytest.raises(ActionSpaceTooLarge, match=str(ACTION_CAP)):
            enumerate_actions(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_i1_optimum_is_one():
    model = make_i1()
    value, plp, sol = optimal_profit(model, one(1), one(1))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_i1_without_top_price_is_zero():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[2.0]])]
    model = validate_config(cfg, supply, demand)
    value, _, _ = optimal_profit(model, one(1), one(1))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_zero_demand_optimum_is_zero():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[0.0, 0.0]])]
    model = validate_config(cfg, supply, demand)
    value, _, _ = optimal_profit(model, one(1), one(1))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_zero_budget_optimum_is_zero():
    model0 = make_i1()
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=0,
    )
    model = validate_config(cfg, model0.supply_states, model0.demand_states)
    value, _, _ = optimal_profit(model, one(1), one(1))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_extract_policy_i1_pure():
    model = make_i1()
    value, plp, sol = optimal_profit(model, one(1), one(1))
    pol = extract_xy_policy(plp, sol)
    assert pol.phi == pytest.approx(1.0, abs=1e-9)
    assert pol.c_hat == pytest.approx(1.0)
    assert pol.r_hat == pytest.approx(2.0)
    assert pol.a_hat[0] == pytest.approx(pol.mu_hat[0], abs=1e-9)
    [(action, p)] = pol.purchase_dist[0]
    assert action == (1,) and p == pytest.approx(1.0)
    [(z, j, p)] = pol.price_dist[0][0]
    assert (z, j) == (1, 1) and p == pytest.approx(1.0)


def _scaled(x, value):
    x[:3] *= 1.01
    return x, value


def _moved_purchase(x, value):
    # buy (2,) instead of (1,): profit 2 - 2, one unit more bought than sold
    x[1], x[2] = 0.0, 1.0
    return x, 0.0


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda x, v: (np.r_[-1e-6, x[1:]], v), "negative probability mass"),
        (_scaled, "mass 1.01"),
        (lambda x, v: (x, v + 1e-3), "does not reproduce the LP value"),
        (_moved_purchase, "do not balance"),
    ],
    ids=["negative", "scaled", "value", "balance"],
)
def test_extract_policy_refuses_corrupted_solutions(corrupt, message):
    # i1's optimum buys (1,) and offers price index 1, each with mass 1
    model = make_i1()
    _, plp, sol = optimal_profit(model, one(1), one(1))
    assert sol.x.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0] and sol.value == 1.0
    x, value = corrupt(sol.x.copy(), sol.value)
    with pytest.raises(NormalizationFailure, match=message):
        extract_xy_policy(plp, LpSolution(value=value, x=x))


@pytest.mark.parametrize(
    "unit_cost, optimum", [([2, 2, 1, 1, 3], 91.0), ([3, 1, 2, 1, 3], 90.0)]
)
def test_wide_budget_lp_solves(unit_cost, optimum):
    # Eight rows and 14-19k purchase columns.  Both products sell at price
    # 100 (mean demand 0.5 each), using one unit of every material per slot:
    # profit 100 - sum(unit_cost).
    cfg = PlantConfig(
        beta=[[1, 1]] * 5,
        alpha=[0.0, 0.0],
        price_set=[[1.0, 50.0, 100.0]] * 2,
        D_max=[2, 2],
        A_max=[8] * 5,
        c_max=30,
    )
    supply = [SupplyState(id="s0", unit_cost=unit_cost, available=[8] * 5)]
    demand = [DemandState(id="d0", F=[[2.0, 1.0, 0.5], [2.0, 1.0, 0.5]])]
    model = validate_config(cfg, supply, demand)
    value, plp, sol = optimal_profit(model, one(1), one(1))
    assert plp.lp.a_eq.shape[0] == 8
    assert value == pytest.approx(optimum, abs=1e-9)
    assert sol.iterations < 500


def test_wide_extraction_reads_only_the_support():
    """Extracting the wide-fail policy peaks under 0.4 MB of traced memory.

    Its program has 19,012 columns and a few nonzero entries; reading
    every block into Python lists took the peak to 1.0 MB.
    """
    cfg = PlantConfig(
        beta=[[1, 1]] * 5,
        alpha=[0.0, 0.0],
        price_set=[[1.0, 50.0, 100.0]] * 2,
        D_max=[2, 2],
        A_max=[8] * 5,
        c_max=30,
    )
    supply = [SupplyState(id="s0", unit_cost=[2, 2, 1, 1, 3], available=[8] * 5)]
    demand = [DemandState(id="d0", F=[[2.0, 1.0, 0.5], [2.0, 1.0, 0.5]])]
    model = validate_config(cfg, supply, demand)
    _, plp, sol = optimal_profit(model, one(1), one(1))
    assert len(sol.x) == 19012
    policy = extract_xy_policy(plp, sol)  # one-time costs stay out of the count
    tracemalloc.start()
    try:
        assert extract_xy_policy(plp, sol) == policy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 2**20, peak


def test_extract_policy_zero_demand_idles():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[0.0, 0.0]])]
    model = validate_config(cfg, supply, demand)
    value, plp, sol = optimal_profit(model, one(1), one(1))
    pol = extract_xy_policy(plp, sol)
    assert pol.c_hat == pytest.approx(0.0, abs=1e-9)
    assert pol.r_hat == pytest.approx(0.0, abs=1e-9)
    assert pol.a_hat[0] == pytest.approx(0.0, abs=1e-9)


def test_block_layout_matches_reference_builder():
    # With every probability positive the block layout must reproduce the
    # reference program bit for bit, so optima and policies cannot move.
    rng = np.random.default_rng(909)
    cases = [random_tiny_instance(rng) for _ in range(200)]
    cases += [_m3_k4_plant(rng) for _ in range(5)]
    for model, pi_x, pi_y in cases:
        new = build_profit_lp(model, pi_x, pi_y).lp
        ref = _reference_profit_lp(model, pi_x, pi_y)
        assert np.array_equal(new.c, ref.c)
        assert np.array_equal(new.a_eq, ref.a_eq)
        assert np.array_equal(new.b_eq, ref.b_eq)
    # On frame histograms that leave states unvisited, the program is the
    # reference program of the plant restricted to the visited states.
    for _ in range(20):
        model, pi_x, pi_y = _frame_histograms(rng, _m3_k4_plant(rng)[0])
        sx, sy = np.flatnonzero(pi_x), np.flatnonzero(pi_y)
        visited = validate_config(
            model.cfg,
            [model.supply_states[i] for i in sx],
            [model.demand_states[i] for i in sy],
        )
        new = build_profit_lp(model, pi_x, pi_y).lp
        ref = _reference_profit_lp(visited, pi_x[sx], pi_y[sy])
        assert np.array_equal(new.c, ref.c)
        assert np.array_equal(new.a_eq, ref.a_eq)
        assert np.array_equal(new.b_eq, ref.b_eq)


def _frame_histograms(rng, model):
    """The model with the state histograms of a random frame of 1-2 slots.

    With three states per process such a frame leaves at least one supply
    and one demand state unvisited, so their blocks are empty.
    """
    T = int(rng.integers(1, 3))
    xs = rng.integers(0, len(model.supply_states), size=T)
    ys = rng.integers(0, len(model.demand_states), size=T)
    return (
        model,
        empirical_distribution(xs, len(model.supply_states)),
        empirical_distribution(ys, len(model.demand_states)),
    )


# sha256 over (value.hex(), x.tobytes(), iterations) of _mid_pinned_programs(),
# recorded with each convexity row starting on its idle column (the zero
# purchase or IDLE); starting every row on an artificial gave the same
# values and vertices in 924 pivots instead of 500.  A change of column
# order, entry value or pivot path shows up here.
MID_PIVOT_PATH_DIGEST = "6ab0c4538067c9053dbb05dd75f714fcf2153afb55328372c1e0a84962ec9eba"


def _mid_pinned_programs():
    rng = np.random.default_rng(2718)
    cases = [_m3_k4_plant(rng) for _ in range(20)]
    cases += [_frame_histograms(rng, _m3_k4_plant(rng)[0]) for _ in range(20)]
    return [build_profit_lp(*case).lp for case in cases]


def test_mid_pivot_paths_are_pinned():
    digest = hashlib.sha256()
    for lp in _mid_pinned_programs():
        sol = solve_lp(lp)
        digest.update(repr((sol.value.hex(), sol.x.tobytes(), sol.iterations)).encode())
    assert digest.hexdigest() == MID_PIVOT_PATH_DIGEST


def test_mid_crash_start_keeps_the_vertex():
    # Doubled, every row starts on an artificial: the same value and vertex,
    # in 924 pivots where the idle columns' start takes 500.
    pivots = [0, 0]
    for lp in _mid_pinned_programs():
        got, want = solve_lp(lp), solve_lp(doubled_rows(lp))
        assert got.value.hex() == want.value.hex()
        assert got.x.tobytes() == want.x.tobytes()
        pivots[0] += got.iterations
        pivots[1] += want.iterations
    assert pivots == [500, 924]


def _frame_traces():
    """(xs, ys) of 200 slots: criterion 6's ten traces, then seeded IID,
    Markov and adversarial ones, all on make_two_phase's two states each."""
    rng = np.random.default_rng(606060)
    traces = [
        (rng.integers(0, 2, size=200).tolist(), rng.integers(0, 2, size=200).tolist())
        for _ in range(9)
    ]
    traces.append(([0] * 100 + [1] * 100, [1] * 100 + [0] * 100))
    rng = np.random.default_rng(77)
    ids = ["a", "b"]
    for _ in range(3):
        iid = StateProcessSpec(mode=IID, state_ids=ids, probs=rng.dirichlet([1, 1]))
        p, q = rng.uniform(0.05, 0.5, size=2)
        markov = StateProcessSpec(
            mode=MARKOV, state_ids=ids, transition=[[1 - p, p], [q, 1 - q]]
        )
        for spec in (iid, markov):
            traces.append(
                tuple(generate_states(spec, 200, rng).tolist() for _ in range(2))
            )
        # adversarial: dear supply exactly when demand is live, in runs
        runs = np.repeat(rng.integers(0, 2, size=25), 8).tolist()
        traces.append((runs, [1 - v for v in runs]))
    return traces


def test_frame_values_solve_each_histogram_once(monkeypatch):
    model = make_two_phase()
    solves = []
    solve = oracles.optimal_profit
    monkeypatch.setattr(
        oracles, "optimal_profit", lambda *a: solves.append(a) or solve(*a)
    )
    for T, J in ((4, 50), (8, 25), (1, 200)):
        for xs, ys in _frame_traces():
            frames = [
                (xs[j * T : (j + 1) * T], ys[j * T : (j + 1) * T]) for j in range(J)
            ]
            want = [lookahead_value(model, fx, fy).phi_T for fx, fy in frames]
            solves.clear()
            assert frame_values(model, xs, ys, T, J) == want
            keys = {(tuple(sorted(fx)), tuple(sorted(fy))) for fx, fy in frames}
            assert len(solves) == len(keys)


def test_frame_values_checks_each_frame_once(monkeypatch):
    # one _histograms call per frame: the solve reuses its histograms
    # rather than reading the frame again through lookahead_value
    model = make_two_phase()
    calls = []
    histograms = oracles._histograms
    monkeypatch.setattr(
        oracles, "_histograms", lambda *a: calls.append(a) or histograms(*a)
    )
    for T, J in ((4, 50), (1, 200)):
        for xs, ys in _frame_traces():
            calls.clear()
            frame_values(model, xs, ys, T, J)
            assert len(calls) == J


def test_zero_probability_state_is_empty_block():
    # A state of probability 0 gets no column and no row, so a supply state
    # past the enumeration cap is never enumerated; it is reported idle.
    cfg = PlantConfig(
        beta=[[1], [0], [0]],
        alpha=[0.0],
        price_set=[[2.0]],
        D_max=[1],
        A_max=[99, 99, 99],
        c_max=10**9,
    )
    supply = [
        SupplyState(id="small", unit_cost=[1, 1, 1], available=[1, 0, 0]),
        SupplyState(id="huge", unit_cost=[0, 0, 0], available=[99, 99, 99]),
    ]
    demand = [
        DemandState(id="d", F=[[1.0]]),
        DemandState(id="never", F=[[1.0]]),
    ]
    model = validate_config(cfg, supply, demand)
    with pytest.raises(ActionSpaceTooLarge, match=str(ACTION_CAP)):
        enumerate_actions(supply[1], cfg)
    value, plp, sol = optimal_profit(model, [1.0, 0.0], [1.0, 0.0])
    assert value == pytest.approx(1.0, abs=1e-9)
    assert plp.blocks[1] == [] and plp.blocks[3] == []
    ref = _reference_profit_lp(
        validate_config(cfg, supply[:1], demand[:1]), [1.0], [1.0]
    )
    assert np.array_equal(plp.lp.c, ref.c)
    assert np.array_equal(plp.lp.a_eq, ref.a_eq)
    assert np.array_equal(plp.lp.b_eq, ref.b_eq)
    policy = extract_xy_policy(plp, sol)
    assert policy.purchase_dist[1] == [((0, 0, 0), 1.0)]
    assert policy.price_dist[0][1] == [(0, -1, 1.0)]


def test_brute_force_i1():
    model = make_i1()
    res = brute_force_opt(model, one(1), one(1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.is_pure


def test_pair_mix_with_no_feasible_mixture_is_minus_inf():
    # rows are (profit, slack of material 0): no mixture of two points with
    # negative slack, nor a point with itself, has a nonnegative slack
    pts = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert _best_pair_mix(pts) == -np.inf
    # one point of positive slack makes the pair (and itself) feasible
    assert _best_pair_mix(np.array([[1.0, -1.0], [2.0, 1.0]])) == 2.0


def test_brute_force_guard():
    cfg = PlantConfig(
        beta=[[1, 0, 1], [0, 1, 1], [1, 1, 0]],
        alpha=[0.0, 0.0, 0.0],
        price_set=[[1.0], [1.0], [1.0]],
        D_max=[1, 1, 1],
        A_max=[1, 1, 1],
        c_max=3,
    )
    supply = [SupplyState(id="s0", unit_cost=[1, 1, 1], available=[1, 1, 1])]
    demand = [DemandState(id="d0", F=[[1.0], [1.0], [1.0]])]
    model = validate_config(cfg, supply, demand)
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(model, one(1), one(1))


def test_lp_vs_brute_force_tiny_instances(rng):
    pure_hits = 0
    for _ in range(20):
        model, pi_x, pi_y = random_tiny_instance(rng)
        value, _, _ = optimal_profit(model, pi_x, pi_y)
        res = brute_force_opt(model, pi_x, pi_y)
        assert value >= res.value - 1e-6
        if res.is_pure:
            pure_hits += 1
            assert value == pytest.approx(res.pure_value, abs=1e-6)
    assert pure_hits > 0  # the sample must actually exercise the pure branch


def test_monotone_in_price_set_and_caps(rng):
    for _ in range(10):
        model, pi_x, pi_y = random_tiny_instance(rng)
        base, _, _ = optimal_profit(model, pi_x, pi_y)
        cfg = model.cfg
        # add a higher price everywhere (demand 0 there keeps tables valid)
        price_set = [ps + [ps[-1] + 1.0] for ps in cfg.price_set]
        demand = [
            DemandState(id=y.id, F=[row + [0.0] for row in y.F])
            for y in model.demand_states
        ]
        cfg2 = PlantConfig(
            beta=cfg.beta,
            alpha=cfg.alpha,
            price_set=price_set,
            D_max=cfg.D_max,
            A_max=cfg.A_max,
            c_max=cfg.c_max,
        )
        m2 = validate_config(cfg2, model.supply_states, demand)
        wider, _, _ = optimal_profit(m2, pi_x, pi_y)
        assert wider >= base - 1e-9
        cfg3 = PlantConfig(
            beta=cfg.beta,
            alpha=cfg.alpha,
            price_set=cfg.price_set,
            D_max=cfg.D_max,
            A_max=[a + 1 for a in cfg.A_max],
            c_max=cfg.c_max,
        )
        m3 = validate_config(cfg3, model.supply_states, model.demand_states)
        bigger, _, _ = optimal_profit(m3, pi_x, pi_y)
        assert bigger >= base - 1e-9


# sha256 over (value.hex(), pure_value.hex(), is_pure), or the InstanceTooLarge
# message, of brute_force_opt on 60 random_tiny_instance plants (seed 7),
# recorded with the search that deduplicated with np.unique and compared all
# pairs in _pareto_max.  A search that moves any bit of an answer shows up here.
BRUTE_FORCE_DIGEST = "3af4a221d31e9d99cf64a1eaf803c94d36a80c00622f7d04e2632afde888fa65"


def test_brute_force_outputs_are_pinned():
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for _ in range(60):
        model, pi_x, pi_y = random_tiny_instance(rng)
        try:
            res = brute_force_opt(model, pi_x, pi_y)
        except InstanceTooLarge as exc:
            digest.update(str(exc).encode())
        else:
            digest.update(repr((res.value.hex(), res.pure_value.hex(), res.is_pure)).encode())
    assert digest.hexdigest() == BRUTE_FORCE_DIGEST


def _rounded_point_sets(rng, count):
    """count random point sets of 2 or 3 columns, rounded as brute_force_opt's.

    Coordinates come from a small integer grid (ties and equal coordinates),
    a normal cloud or a front of many undominated rows, scaled by 1e-6 to 1e6,
    with some signed zeros.
    """
    for i in range(count):
        d = 2 + i % 2
        n = int(rng.integers(1, 40))
        kind = i // 2 % 3
        if kind == 0:
            pts = rng.integers(-3, 4, size=(n, d)).astype(float)
        elif kind == 1:
            pts = rng.normal(size=(n, d))
        else:
            pts = rng.dirichlet(np.ones(d), size=n) + rng.normal(0, 0.01, size=(n, d))
        pts *= 10.0 ** rng.uniform(-6, 6)
        pts[rng.random(pts.shape) < 0.05] = -0.0
        yield np.round(pts, 12)


def test_distinct_rows_matches_np_unique():
    # np.unique(pts, axis=0) was brute_force_opt's dedupe before the one sort.
    rng = np.random.default_rng(4141)
    merged_zeros = 0
    for pts in _rounded_point_sets(rng, 2000):
        got = _distinct_rows(pts)
        assert np.array_equal(got, np.unique(pts, axis=0))
        # Bit for bit, each row kept is the first input row equal to it by
        # value: that settles which sign a merged zero keeps.
        first = []
        for row in got:
            same = pts[(pts == row).all(axis=1)]
            first.append(same[0])
            merged_zeros += bool((np.signbit(same) != np.signbit(same[0])).any())
        assert got.tobytes() == np.array(first).tobytes()
    assert merged_zeros >= 100


def test_pareto_max_drops_rows_tied_in_a_coordinate():
    # A row equal in one coordinate and lower in the other is dominated, also
    # where 1e-15 is below one ulp of the coordinates.
    for scale in (1.0, 1e6):
        pts = scale * np.array([[1.0, 5.0], [3.0, 2.0], [1.0, 4.0], [0.0, 5.0], [3.0, 1.0]])
        assert np.array_equal(_pareto_max(pts), scale * np.array([[1.0, 5.0], [3.0, 2.0]]))


# --- two-price reduction --------------------------------------------------


def test_two_price_i1_extracted_policy():
    model = make_i1()
    _, plp, sol = optimal_profit(model, one(1), one(1))
    pol = extract_xy_policy(plp, sol)
    red = two_price_reduce(pol, model)
    ent = red.entries[0][0]
    assert len(ent.support) <= 2
    assert ent.d_target == pytest.approx(1.0)
    assert ent.r_star >= ent.r_orig - 1e-9


def _policy_with_mix(model, weights_by_ky):
    """Build a policy object holding just the offer distributions."""
    K = model.cfg.K
    price_dist = [
        [weights_by_ky[k][yi] for yi in range(len(model.demand_states))]
        for k in range(K)
    ]
    return OraclePolicy(
        purchase_dist=[],
        price_dist=price_dist,
        c_hat=0.0,
        r_hat=0.0,
        a_hat=[0.0] * model.cfg.M,
        mu_hat=[0.0] * model.cfg.M,
        phi=0.0,
    )


def test_two_price_half_idle_target():
    model = make_i1()
    pol = _policy_with_mix(model, [[[(0, -1, 0.5), (1, 1, 0.5)]]])
    red = two_price_reduce(pol, model)
    ent = red.entries[0][0]
    # target d = 0.5; hull segment from idle to (z=1, p=2) with equal weights
    assert ent.d_target == pytest.approx(0.5)
    assert ent.r_star == pytest.approx(1.0)
    assert sorted((z, j) for z, j, _ in ent.support) == [(0, -1), (1, 1)]
    for _, _, w in ent.support:
        assert w == pytest.approx(0.5)


def test_two_price_idle_target():
    model = make_i1()
    pol = _policy_with_mix(model, [[[(0, -1, 1.0)]]])
    red = two_price_reduce(pol, model)
    ent = red.entries[0][0]
    assert ent.d_target == pytest.approx(0.0)
    assert len(ent.support) == 1
    assert ent.support[0][2] == pytest.approx(1.0)


def test_two_price_vertex_unchanged():
    model = make_i1()
    pol = _policy_with_mix(model, [[[(1, 1, 1.0)]]])
    red = two_price_reduce(pol, model)
    ent = red.entries[0][0]
    assert len(ent.support) == 1
    z, j, w = ent.support[0]
    assert (z, j) == (1, 1) and w == pytest.approx(1.0)
    assert ent.r_star == pytest.approx(2.0)


def test_two_price_random_policies(rng):
    for _ in range(20):
        model, pi_x, pi_y = random_tiny_instance(rng)
        K = model.cfg.K
        weights = []
        for k in range(K):
            per_y = []
            for yi in range(len(model.demand_states)):
                opts = [(0, -1)] + [
                    (1, j) for j in range(len(model.cfg.price_set[k]))
                ]
                w = rng.uniform(0.05, 1.0, size=len(opts))
                w = w / w.sum()
                per_y.append(
                    [(z, j, float(p)) for (z, j), p in zip(opts, w)]
                )
            weights.append(per_y)
        pol = _policy_with_mix(model, weights)
        red = two_price_reduce(pol, model)
        for k in range(K):
            for yi in range(len(model.demand_states)):
                ent = red.entries[k][yi]
                assert len(ent.support) <= 2
                F = model.demand_states[yi].F[k]
                d_of = lambda z, j: 0.0 if z == 0 else F[j]
                d_back = sum(w * d_of(z, j) for z, j, w in ent.support)
                assert d_back == pytest.approx(ent.d_target, abs=1e-9)
                assert ent.r_star >= ent.r_orig - 1e-9
                wsum = sum(w for _, _, w in ent.support)
                assert wsum == pytest.approx(1.0, abs=1e-9)


# sha256 over float.hex of every TwoPriceEntry field (each support triple,
# then r_star, d_target and r_orig) of _two_price_pinned_policies(),
# recorded with the reduction that read its offers itself.  A change of the
# reduction's arithmetic or of the LP policies shows up here.
TWO_PRICE_DIGEST = "7cbe9e1d1b7035a0fafb8cdcf47250180d2b55bd27d0c00015741ae57c2b629b"


def _two_price_pinned_policies():
    """(policy, model) of 20 mid LP policies and 20 random mixed tiny ones."""
    rng = np.random.default_rng(1618)
    cases = []
    for _ in range(20):
        model, pi_x, pi_y = _m3_k4_plant(rng)
        _, plp, sol = optimal_profit(model, pi_x, pi_y)
        cases.append((extract_xy_policy(plp, sol), model))
    for _ in range(20):
        model = random_tiny_instance(rng)[0]
        mixes = []
        for k in range(model.cfg.K):
            opts = product_options(model.cfg, k)
            per_y = []
            for _ in model.demand_states:
                w = rng.uniform(0.0, 1.0, size=len(opts))
                w[rng.uniform(size=len(opts)) < 0.3] = 0.0
                w[0] += 1e-3
                w = w / w.sum()
                per_y.append([(z, j, float(p)) for (z, j), p in zip(opts, w)])
            mixes.append(per_y)
        cases.append((_policy_with_mix(model, mixes), model))
    return cases


def test_two_price_outputs_are_pinned():
    digest = hashlib.sha256()
    for policy, model in _two_price_pinned_policies():
        for per_y in two_price_reduce(policy, model).entries:
            for e in per_y:
                fields = [v for triple in e.support for v in triple]
                fields += [e.r_star, e.d_target, e.r_orig]
                digest.update(" ".join(float(v).hex() for v in fields).encode())
    assert digest.hexdigest() == TWO_PRICE_DIGEST


def test_two_price_tolerates_rounding_at_large_demand():
    # the probabilities sum to 1 + 9e-10, inside check_distribution's 1e-9,
    # which at a demand of 10**6 moves the mean by 9e-4: an absolute 1e-9
    # test used to raise TargetOutsideHull here
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[10**6],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[10.0**6, 5.0 * 10**5]])]
    model = validate_config(cfg, supply, demand)
    pol = _policy_with_mix(model, [[[(1, 0, 0.5), (1, 0, 0.5 + 9e-10)]]])
    ent = two_price_reduce(pol, model).entries[0][0]
    assert ent.support == [(1, 0, 1.0)]
    assert ent.r_star == 10.0**6
    # the targets keep the policy's own means, 10**6 + 9e-4
    assert ent.d_target == ent.r_orig == pytest.approx(10.0**6, rel=1e-9)


# --- lookahead ------------------------------------------------------------


def test_lookahead_zero_demand_idles():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [DemandState(id="d0", F=[[0.0, 0.0]])]
    model = validate_config(cfg, supply, demand)
    res = lookahead_value(model, [0, 0, 0], [0, 0, 0])
    assert res.phi_T == pytest.approx(0.0, abs=1e-9)


def test_lookahead_single_slot_i1():
    model = make_i1()
    res = lookahead_value(model, [0], [0])
    assert res.phi_T == pytest.approx(1.0, abs=1e-9)


def test_lookahead_exploits_cross_slot_storage():
    cfg = PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )
    supply = [
        SupplyState(id="open", unit_cost=[1], available=[2]),
        SupplyState(id="closed", unit_cost=[1], available=[0]),
    ]
    demand = [
        DemandState(id="cold", F=[[0.0, 0.0]]),
        DemandState(id="hot", F=[[2.0, 1.0]]),
    ]
    model = validate_config(cfg, supply, demand)
    # slot 1: material available, no demand; slot 2: demand, no material
    res = lookahead_value(model, [0, 1], [0, 1])
    assert res.phi_T == pytest.approx(1.0, abs=1e-9)
    # each slot alone is worthless
    assert lookahead_value(model, [0], [0]).phi_T == pytest.approx(0.0, abs=1e-9)
    assert lookahead_value(model, [1], [1]).phi_T == pytest.approx(0.0, abs=1e-9)


def test_lookahead_nonnegative_on_random_frames(rng):
    model = make_two_phase()
    for _ in range(10):
        xs = rng.integers(0, 2, size=4).tolist()
        ys = rng.integers(0, 2, size=4).tolist()
        res = lookahead_value(model, xs, ys)
        assert res.phi_T >= -1e-9


def test_lookahead_matches_per_slot_reference():
    rng = np.random.default_rng(4040)
    single_slot = unvisited = 0
    for _ in range(240):
        model, _, _ = random_tiny_instance(rng)
        n_x, n_y = len(model.supply_states), len(model.demand_states)
        T = int(rng.integers(1, 9))
        xs = rng.integers(0, n_x, size=T)
        ys = rng.integers(0, n_y, size=T)
        if rng.random() < 0.3:
            # Pin the frame to one state per process so the rest go unvisited.
            xs[:] = rng.integers(0, n_x)
            ys[:] = rng.integers(0, n_y)
        single_slot += T == 1
        unvisited += len(set(xs)) < n_x or len(set(ys)) < n_y
        ref = _per_slot_lookahead(model, xs.tolist(), ys.tolist())
        new = lookahead_value(model, xs.tolist(), ys.tolist()).phi_T
        assert abs(new - ref) <= 1e-9 * (1.0 + abs(ref)), (xs, ys)
    assert single_slot >= 10 and unvisited >= 50


def test_lookahead_is_T_times_the_brute_force_optimum():
    # The exhaustive search shares no code with the simplex, so this checks
    # a frame's value without the LP: T times the optimum on its histograms.
    rng = np.random.default_rng(11)
    positive = 0
    for _ in range(40):
        model = random_tiny_instance(rng)[0]
        n_x, n_y = len(model.supply_states), len(model.demand_states)
        T = int(rng.integers(1, 7))
        xs = rng.integers(0, n_x, size=T)
        ys = rng.integers(0, n_y, size=T)
        value = lookahead_value(model, xs, ys).phi_T
        pis = empirical_distribution(xs, n_x), empirical_distribution(ys, n_y)
        brute = T * brute_force_opt(model, *pis).value
        assert abs(value - brute) <= 1e-6 * (1.0 + abs(value)), (xs, ys)
        positive += value > 1e-9
    assert positive >= 10


def test_lookahead_ignores_unvisited_states():
    # A supply state past the enumeration cap only matters once visited.
    cfg = PlantConfig(
        beta=[[1], [0], [0]],
        alpha=[0.0],
        price_set=[[2.0]],
        D_max=[1],
        A_max=[99, 99, 99],
        c_max=10**9,
    )
    supply = [
        SupplyState(id="small", unit_cost=[1, 1, 1], available=[1, 0, 0]),
        SupplyState(id="huge", unit_cost=[0, 0, 0], available=[99, 99, 99]),
    ]
    demand = [DemandState(id="d", F=[[1.0]])]
    model = validate_config(cfg, supply, demand)
    res = lookahead_value(model, [0, 0], [0, 0])
    assert res.phi_T == pytest.approx(2.0, abs=1e-9)
    assert _per_slot_lookahead(model, [0, 0], [0, 0]) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ActionSpaceTooLarge):
        lookahead_value(model, [0, 1], [0, 0])


def test_lookahead_rejects_bad_frames():
    model = make_i1()
    with pytest.raises(ValueError):
        lookahead_value(model, [], [])
    with pytest.raises(ValueError):
        lookahead_value(model, [0, 0], [0])


def test_lookahead_rejects_out_of_range_states():
    # negative indices used to be taken as Python list indices
    model = make_two_phase()
    bad = [([-1, 0], [0, -1]), ([-1, 0], [0, 1]), ([2, 0], [0, 0]), ([0, 0], [0, 2])]
    for xs, ys in bad:
        with pytest.raises(ValueError, match="outside"):
            lookahead_value(model, xs, ys)
    assert lookahead_value(model, [1, 0], [0, 1]).phi_T >= 0


def test_two_price_single_vertex_hull():
    # an all-zero demand row: every option sits at (0, 0), so the envelope
    # is one vertex and the reduction withholds the product
    cfg = make_i1().cfg
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    model = validate_config(cfg, supply, [DemandState(id="dead", F=[[0.0, 0.0]])])
    _, plp, sol = optimal_profit(model, one(1), one(1))
    ent = two_price_reduce(extract_xy_policy(plp, sol), model).entries[0][0]
    assert ent.support == [(0, -1, 1.0)]
    assert (ent.r_star, ent.d_target, ent.r_orig) == (0.0, 0.0, 0.0)


def test_two_price_target_at_rightmost_vertex():
    # the lowest price draws the most demand, the envelope's last vertex
    model = make_i1()
    pol = _policy_with_mix(model, [[[(1, 0, 1.0)]]])
    ent = two_price_reduce(pol, model).entries[0][0]
    assert ent.support == [(1, 0, 1.0)]
    assert (ent.r_star, ent.d_target, ent.r_orig) == (2.0, 2.0, 2.0)


def test_two_price_target_just_past_a_vertex():
    # i1's envelope has vertices at demands 0, 1 and 2; a target 1e-13 past
    # the middle one takes that vertex alone
    model = make_i1()
    pol = _policy_with_mix(model, [[[(1, 1, 1 - 1e-13), (1, 0, 1e-13)]]])
    ent = two_price_reduce(pol, model).entries[0][0]
    assert ent.support == [(1, 1, 1.0)]
    assert ent.r_star == 2.0 and ent.d_target > 1.0


def test_reduce_one_refuses_targets_off_the_envelope():
    # a demand past the last vertex, and a revenue above the envelope
    pts = [(0.0, 0.0, (0, -1)), (1.0, 1.0, (1, 0)), (2.0, 1.5, (1, 1))]
    with pytest.raises(TargetOutsideHull, match="outside the achievable range"):
        _reduce_one(pts, 2.0 + 1e-6, 1.5)
    with pytest.raises(TargetOutsideHull, match="fell below the original"):
        _reduce_one(pts, 1.0, 1.0 + 1e-6)


def test_two_price_target_just_below_a_vertex():
    # within 1e-12 of the upper end of a segment: the upper vertex alone
    pts = [(0.0, 0.0, (0, -1)), (1.0, 1.0, (1, 0)), (2.0, 1.5, (1, 1))]
    ent = _reduce_one(pts, 1.0 - 1e-13, 1.0 - 1e-13)
    assert ent.support == [(1, 0, 1.0)]
    assert ent.r_star == 1.0


# sha256 over (value.hex(), x.tobytes(), iterations) of _t8_frame_programs(),
# recorded with the plain tableau kernel that reference.py's
# _tableau_iterate keeps: a kernel that moves any float shows up here.
FRAME_PIVOT_PATH_DIGEST = "6bc35b864fbe6fd2e930a46e6b7c635371fb71cb577d3cd0f6eb45e3c10805a6"


def test_frame_pivot_paths_are_pinned():
    digest = hashlib.sha256()
    for lp in _t8_frame_programs():
        sol = solve_lp(lp)
        digest.update(repr((sol.value.hex(), sol.x.tobytes(), sol.iterations)).encode())
    assert digest.hexdigest() == FRAME_PIVOT_PATH_DIGEST
