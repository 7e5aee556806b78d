import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantsim import controller
from plantsim.controller import (
    ControllerParams,
    InitOutOfRange,
    ThetaTooSmall,
    _candidates,
    _scan,
    compute_theta,
    decide_pricing,
    decide_purchase,
    init_placeholder,
    init_state,
    make_params,
    queue_band,
)
from plantsim.model import (
    DemandState,
    PlantConfig,
    SupplyState,
    purchase_cost,
    validate_config,
)
from plantsim.processes import constant_process
from plantsim.simulator import EpisodeConfig, run_episode

from plants import make_i1, make_i1_cfg, make_mid, tie_plant
from reference import (
    _maximal_by_brute_force,
    _ref_decide_pricing,
    _ref_decide_purchase,
    _ref_knapsack,
)


def _bounded_knapsack_lex_min(values, costs, caps, budget):
    """The package's bounded knapsack, the DP of decide_purchase, on a fresh plan."""
    plan = controller._knapsack_plan(costs, caps, budget)
    return controller._knapsack_solve(plan, values)


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
    """A product with a feeder queue below mu_max is withheld.

    Thresholds of 0 make the relief term non-negative, so every score is
    positive and only the feeder check can withhold.
    """
    cfg = make_i1_cfg()
    y = DemandState(id="d0", F=[[2.0, 1.0]])
    params = make_params(cfg, 10.0, theta=[0.0], allow_unsafe_theta=True)
    assert decide_pricing([1], y, params, cfg) == ([0], [1.0])
    assert decide_pricing([2], y, params, cfg)[0] == [1]
    cfg2 = PlantConfig(
        beta=[[1], [2]],
        alpha=[0.0],
        price_set=[[3.0]],
        D_max=[2],
        A_max=[2, 2],
        c_max=100,
    )
    y2 = DemandState(id="d0", F=[[1.0]])
    params2 = make_params(cfg2, 10.0, theta=[0.0, 0.0], allow_unsafe_theta=True)
    # mu_max = [2, 4]; the product draws on both materials
    assert decide_pricing([10, 1], y2, params2, cfg2)[0] == [0]
    assert decide_pricing([1, 10], y2, params2, cfg2)[0] == [0]
    assert decide_pricing([10, 4], y2, params2, cfg2)[0] == [1]


def test_make_params_requires_positive_v(i1_cfg):
    with pytest.raises(ValueError):
        make_params(i1_cfg, 0.0)


def test_theta_override_guard(i1_cfg):
    with pytest.raises(ThetaTooSmall):
        make_params(i1_cfg, 10.0, theta=[20.0])
    p = make_params(i1_cfg, 10.0, theta=[30.0])
    assert p.theta == (30.0,)
    p = make_params(i1_cfg, 10.0, theta=[20.0], allow_unsafe_theta=True)
    assert p.theta == (20.0,)


def test_params_cannot_change_under_their_tables(i1_model):
    # changing V or theta used to leave the tables built on first use stale:
    # the old params kept posting 2.0 where fresh ones post 1.0
    cfg, y = i1_model.cfg, i1_model.demand_states[0]
    p = make_params(cfg, 10.0)
    assert decide_pricing([10], y, p, cfg)[1] == [2.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.V = 0.01
    with pytest.raises(TypeError):
        p.theta[0] = 0.0
    assert decide_pricing([10], y, p, cfg)[1] == [2.0]
    fresh = ControllerParams(V=0.01, theta=[0.0])
    assert fresh.theta == (0.0,)
    assert decide_pricing([10], y, fresh, cfg)[1] == [1.0]


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


# -- the table-driven decisions against reference.py's -----------------------


def _purchase_corners(Q, x, params, cfg):
    """The corner cases one purchase decision exercises."""
    M = cfg.M
    w = [params.V * x.unit_cost[m] + Q[m] - params.theta[m] for m in range(M)]
    buy = [m for m in range(M) if w[m] < 0]
    want = [min(cfg.A_max[m], x.available[m]) if m in buy else 0 for m in range(M)]
    return {
        "knapsack": purchase_cost(want, x) > cfg.c_max,
        "no_budget": cfg.c_max == 0 and any(want),
        "free": any(x.unit_cost[m] == 0 for m in buy),
        "no_cap": any(x.available[m] == 0 for m in buy),
    }


def _pricing_corners(Q, y, params, cfg):
    """The corner cases one pricing decision exercises."""
    mu = cfg.mu_max()
    out = {"low": any(q < u for q, u in zip(Q, mu)), "zero": False, "tie": False}
    for k in range(cfg.K):
        if any(Q[m] < mu[m] and cfg.beta[m][k] > 0 for m in range(cfg.M)):
            continue
        relief = sum(
            cfg.beta[m][k] * (Q[m] - params.theta[m]) for m in range(cfg.M)
        )
        row = y.F_hat[k] if params.demand_blind else y.F[k]
        g = [
            params.V * (p - cfg.alpha[k]) * f + f * relief
            for p, f in zip(cfg.price_set[k], row)
        ]
        out["zero"] |= max(g) == 0 and any(row)
        out["tie"] |= max(g) > 0 and g.count(max(g)) > 1
    return out


def test_decisions_match_reference(rng):
    """Seeded sweep: table-driven decisions equal the reference with ==."""
    seen = dict.fromkeys(
        ("knapsack", "no_budget", "free", "no_cap", "low", "zero", "tie", "blind"), 0
    )
    for trial in range(150):
        blind = trial % 3 == 0
        model = tie_plant(rng, blind)
        cfg = model.cfg
        V = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        if trial % 2:
            params = make_params(cfg, V, demand_blind=blind)
        else:
            theta = [float(rng.integers(0, 12)) for _ in range(cfg.M)]
            params = ControllerParams(V=V, theta=theta, demand_blind=blind)
        hi = [int(params.theta[m]) + cfg.A_max[m] + 2 for m in range(cfg.M)]
        for _ in range(60):
            Q = [int(rng.integers(0, hi[m] + 1)) for m in range(cfg.M)]
            for x in model.supply_states:
                got = decide_purchase(Q, x, params, cfg)
                assert got == _ref_decide_purchase(Q, x, params, cfg), (trial, Q, x)
                for corner, hit in _purchase_corners(Q, x, params, cfg).items():
                    seen[corner] += hit
            for y in model.demand_states:
                got = decide_pricing(Q, y, params, cfg)
                assert got == _ref_decide_pricing(Q, y, params, cfg), (trial, Q, y)
                for corner, hit in _pricing_corners(Q, y, params, cfg).items():
                    seen[corner] += hit
                seen["blind"] += blind
    # the sweep reaches every corner it is meant to cover
    assert min(seen.values()) >= 50, seen


def test_tables_follow_the_plant():
    """One params object used with two plants decides each plant correctly."""
    a = PlantConfig(
        beta=[[1, 2]], alpha=[0.0, 0.5], price_set=[[1.0, 2.0], [3.0]],
        D_max=[2, 1], A_max=[3], c_max=2,
    )
    b = PlantConfig(
        beta=[[2, 1]], alpha=[0.5, 0.0], price_set=[[1.5], [1.0, 4.0]],
        D_max=[1, 2], A_max=[2], c_max=5,
    )
    x = SupplyState(id="x", unit_cost=[2], available=[3])
    y = DemandState(id="y", F=[[1.0, 0.5], [0.5]])
    yb = DemandState(id="y", F=[[1.0], [2.0, 0.5]])
    params = ControllerParams(V=2.0, theta=[9.0])
    for cfg, dem in ((a, y), (b, yb), (a, y)):
        for q in range(0, 13):
            assert decide_purchase([q], x, params, cfg) == _ref_decide_purchase(
                [q], x, params, cfg
            )
            assert decide_pricing([q], dem, params, cfg) == _ref_decide_pricing(
                [q], dem, params, cfg
            )


def test_blind_pricing_without_base_table_raises():
    cfg = make_i1_cfg()
    y = DemandState(id="plain", F=[[2.0, 1.0]])
    params = ControllerParams(V=10.0, theta=[24.0], demand_blind=True)
    with pytest.raises(ValueError, match="no base table"):
        decide_pricing([5], y, params, cfg)
    # a low feeder queue withholds the product before the table is needed
    assert decide_pricing([1], y, params, cfg) == ([0], [1.0])


# Rounding can absorb a small value into a large total.  The knapsack then
# still breaks ties level by level on its own nested sums, which is not the
# lexicographically smallest vector among maximizers of the plain total:
# enumerating all vectors and keeping the first best one disagrees here.
ABSORPTION_CASES = [
    (([100.0, 1e-15], [3, 0], [4, 1], 13), [4, 1]),
    (([1e16, 1e-15], [1, 0], [1, 3], 4), [1, 3]),
    (([1.0, 1e16, 3.0], [0, 0, 3], [2, 1, 1], 11), [2, 1, 1]),
    (([3.0, 1e16, 0.2], [2, 0, 1], [1, 4, 3], 9), [0, 4, 3]),
    (([1e-15, 100.0, 1e-15], [0, 3, 1], [3, 3, 3], 5), [0, 1, 2]),
]


@pytest.mark.parametrize("args,expected", ABSORPTION_CASES)
def test_knapsack_absorption_ties(args, expected):
    assert _ref_knapsack(*args) == expected
    assert _bounded_knapsack_lex_min(*args) == expected


_knapsack_items = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.one_of(
                st.sampled_from([1e-15, 0.1, 0.3, 1.0, 3.0, 100.0, 1e16]),
                st.floats(0.0, 1e3, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.integers(0, 16),
    )
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=_knapsack_items)
def test_knapsack_matches_reference(case):
    values, costs, caps, budget = case
    assert _bounded_knapsack_lex_min(values, costs, caps, budget) == _ref_knapsack(
        values, costs, caps, budget
    )


@pytest.mark.parametrize(
    "args,expected",
    [
        # scaled costs leave a handful of reachable budgets, whatever the budget
        (([5.0, 4.0], [10**6, 10**6], [2, 2], 3 * 10**6), [2, 1]),
        # an item of cost 0 leaves every budget as it is, whatever its cap
        (([5.0, 4.0], [0, 1], [10**6, 2], 1), [10**6, 1]),
    ],
)
def test_knapsack_memory_follows_reachable_budgets(args, expected):
    tracemalloc.start()
    try:
        got = _bounded_knapsack_lex_min(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 10**6, peak


def test_knapsack_free_items_match_reference():
    """Items of cost 0 with large caps, where the rounding can absorb counts."""
    rng = np.random.default_rng(8)
    pool = [1e-15, 0.1, 0.3, 1.0, 3.0, 100.0, 1e16]
    for _ in range(300):
        n = int(rng.integers(1, 5))
        values = [float(rng.choice(pool)) for _ in range(n)]
        costs = [int(c) for c in rng.choice([0, 0, 1, 2, 3], size=n)]
        caps = [int(rng.integers(0, 60 if c == 0 else 5)) for c in costs]
        budget = int(rng.integers(0, 13))
        case = (values, costs, caps, budget)
        assert _bounded_knapsack_lex_min(*case) == _ref_knapsack(*case), case


def test_knapsack_matches_reference_at_extreme_values():
    """The DP equals the reference at values decide_purchase never passes.

    Zeros of either sign, subnormals, huge, infinite, NaN and negative
    values reach the last level's closed form: v * top for v > 0 and
    top > 0, and 0.0 otherwise.
    """
    rng = np.random.default_rng(29)
    pool = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan]
    pool += [-2.5, -1e-300, 1.0, 3.0]
    for _ in range(600):
        n = int(rng.integers(1, 5))
        values = [float(rng.choice(pool)) for _ in range(n)]
        costs = [int(c) for c in rng.integers(0, 4, size=n)]
        caps = [int(c) for c in rng.integers(0, 6, size=n)]
        case = (values, costs, caps, int(rng.integers(0, 13)))
        assert _bounded_knapsack_lex_min(*case) == _ref_knapsack(*case), case


def test_purchase_plans_follow_each_supply_state():
    """States made and dropped under one params each get their own plans.

    A freed state's id is soon reused by the next one; plans keyed by a bare
    id would hand the new state the old state's costs and caps.
    """
    cfg = PlantConfig(
        beta=[[1], [1], [1]], alpha=[0.0], price_set=[[1.0]], D_max=[1],
        A_max=[3, 4, 5], c_max=7,
    )
    params = ControllerParams(V=2.0, theta=[14.0, 11.0, 9.0])
    rng = np.random.default_rng(11)
    grid = [[int(q) for q in row] for row in rng.integers(0, 16, size=(12, 3))]

    def draw():
        return (
            [int(c) for c in rng.integers(0, 4, size=3)],
            [int(a) for a in rng.integers(0, 6, size=3)],
        )

    unit_cost, available = draw()
    for i in range(30):
        gc.collect()
        x = SupplyState(id="x", unit_cost=unit_cost, available=available)
        for Q in grid:
            assert decide_purchase(Q, x, params, cfg) == _ref_decide_purchase(
                Q, x, params, cfg
            ), (i, Q, x)
        unit_cost, available = draw()  # the next state's, drawn while x lives
        del x


def _decide_plant(rng):
    """A plant shaped like the benchmark's mid instances, at V = 100.

    M = 3, K = 4, unit costs 1-3 against up to 6 units of each material and
    c_max = 12, so the budget binds on most buy sets; prices with three
    decimals put theta in the hundreds, off the integers, so every weight
    is a large float with a fractional part.
    """
    M, K = 3, 4
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    for m in range(M):
        if all(beta[m][k] == 0 for k in range(K)):
            beta[m][int(rng.integers(0, K))] = 1
    price_set = [
        sorted(round(float(p), 3) for p in rng.uniform(4.0, 15.0, size=3))
        for _ in range(K)
    ]
    cfg = PlantConfig(
        beta=beta, alpha=[1.0] * K, price_set=price_set, D_max=[3] * K,
        A_max=[6] * M, c_max=12,
    )
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(c) for c in rng.integers(1, 4, size=M)],
            available=[int(a) for a in rng.integers(2, 7, size=M)],
        )
        for i in range(4)
    ]
    demand = [
        DemandState(
            id=f"y{i}",
            F=[
                [round(float(f), 3) for f in sorted(rng.uniform(0, 3, size=3))[::-1]]
                for _ in range(K)
            ],
        )
        for i in range(4)
    ]
    return validate_config(cfg, supply, demand)


def test_decisions_match_reference_at_large_weights():
    """Seeded sweep at V = 100 over in-band queues, every buy-set size met."""
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(3):
        model = _decide_plant(rng)
        cfg = model.cfg
        params = make_params(cfg, 100.0)
        assert all(th > 100 and th != int(th) for th in params.theta), params.theta
        lo, hi = queue_band(params, cfg)
        for _ in range(2000):
            Q = [int(rng.integers(a, int(b) + 1)) for a, b in zip(lo, hi)]
            for x in model.supply_states:
                got = decide_purchase(Q, x, params, cfg)
                assert got == _ref_decide_purchase(Q, x, params, cfg), (Q, x)
                buys = sum(
                    params.V * c + q - th < 0
                    for c, q, th in zip(x.unit_cost, Q, params.theta)
                )
                binds = _purchase_corners(Q, x, params, cfg)["knapsack"]
                seen.add((buys, binds))
            y = model.demand_states[int(rng.integers(0, len(model.demand_states)))]
            got = decide_pricing(Q, y, params, cfg)
            assert got == _ref_decide_pricing(Q, y, params, cfg), (Q, y)
    # an empty buy set cannot bind; every other size is met binding and not
    sizes = {(0, False)} | {(n, b) for n in (1, 2, 3) for b in (False, True)}
    assert seen == sizes, seen


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


@pytest.mark.parametrize("make", [make_i1, make_mid])
def test_init_state_accepts_exactly_the_band(make):
    model = make()
    cfg = model.cfg
    params = make_params(cfg, 10.0)
    lo, hi = queue_band(params, cfg)
    assert lo == model.mu_max
    assert hi == [th + a for th, a in zip(compute_theta(cfg, 10.0), cfg.A_max)]
    for m in range(cfg.M):
        top = int(hi[m])
        assert top == hi[m]  # integral here, so Q0 can sit on the upper end
        for q in (lo[m], top):
            Q0 = lo[:m] + [q] + lo[m + 1 :]
            assert init_state(cfg, params, Q0).Q == Q0
        for q in (lo[m] - 1, top + 1):
            with pytest.raises(InitOutOfRange, match=f"Q0\\[{m}\\]"):
                init_state(cfg, params, lo[:m] + [q] + lo[m + 1 :])


def test_init_placeholder(i1_model):
    cfg = i1_model.cfg
    params = make_params(cfg, 10.0)
    st = init_placeholder(cfg, params, [0])
    assert st.Q == [2] and st.fake == [2]
    assert [q - f for q, f in zip(st.Q, st.fake)] == [0]
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


# -- the knapsack read off each plan's maximal vectors ----------------------


def _route(values, costs, caps, budget):
    """decide_purchase's knapsack step on raw items, and the route it took."""
    cands = _candidates(costs, caps, controller._knapsack_plan(costs, caps, budget))
    got = None if cands is None else _scan(cands, values)
    if got is not None:
        return list(got), "scan"
    dp = _bounded_knapsack_lex_min(values, costs, caps, budget)
    return dp, "dp" if cands is not None else "over-cap"


@pytest.mark.parametrize("args,expected", ABSORPTION_CASES)
def test_scan_keeps_absorption_ties(args, expected):
    assert _route(*args)[0] == expected == _bounded_knapsack_lex_min(*args)


_ULP_ABOVE_1 = math.nextafter(1.0, 2.0)

SCAN_CASES = [
    # 1-ulp near-ties and an exact tie are inside the margin: the DP decides
    (([1.0, _ULP_ABOVE_1], [1, 1], [1, 1], 1), [0, 1], "dp"),
    (([_ULP_ABOVE_1, 1.0], [1, 1], [1, 1], 1), [1, 0], "dp"),
    (([1.0, 1.0], [1, 1], [1, 1], 1), [0, 1], "dp"),
    (([2.0, 1.0, 1.0], [2, 1, 1], [1, 2, 2], 2), [0, 0, 2], "dp"),
    # a lead of 2**-30 is far outside it: the scan decides
    (([1.0, 1.0 + 2**-30], [1, 1], [1, 1], 1), [0, 1], "scan"),
    (([1.0 + 2**-30, 1.0], [1, 1], [1, 1], 1), [1, 0], "scan"),
    # an item of cost 0 is at its cap in every maximal vector
    (([5.0, 2.0], [2, 0], [3, 4], 5), [2, 4], "scan"),
    (([2.0, 5.0], [0, 2], [4, 3], 5), [4, 2], "scan"),
    # ... but rounding may absorb a value below the margin, so the DP
    # decides, and may stop short of the cap: 4e-15 + 10 rounds up, as
    # does 3e-15 + 10, to the same float
    (([5.0, 1e-15], [2, 0], [3, 4], 5), [2, 4], "dp"),
    (([1e-15, 5.0], [0, 2], [4, 3], 5), [3, 2], "dp"),
    # caps of 0
    (([3.0, 7.0, 1.0], [1, 2, 1], [2, 0, 3], 3), [2, 0, 1], "scan"),
    (([3.0, 7.0], [1, 1], [0, 0], 1), [0, 0], "scan"),
    (([3.0, 7.0], [0, 0], [0, 0], 0), [0, 0], "scan"),
]


@pytest.mark.parametrize("args,expected,route", SCAN_CASES)
def test_scan_near_ties_follow_the_dp(args, expected, route):
    assert _bounded_knapsack_lex_min(*args) == expected == _ref_knapsack(*args)
    assert _route(*args) == (expected, route)


def test_scan_matches_knapsack():
    """Random items: the DP's answer on every route, the exact maximal set."""
    rng = np.random.default_rng(21)
    pool = [1e-15, 0.1, 0.3, 1.0, 3.0, 100.0, 1e16]
    for _ in range(300):
        n = int(rng.integers(1, 5))
        values = [
            float(rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0, 1e3))
            for _ in range(n)
        ]
        costs = [int(c) for c in rng.integers(0, 5, size=n)]
        caps = [int(u) for u in rng.integers(0, 6, size=n)]
        budget = int(rng.integers(0, 17))
        case = (values, costs, caps, budget)
        assert _route(*case)[0] == _bounded_knapsack_lex_min(*case), case
        maximal = _maximal_by_brute_force(costs, caps, budget)
        cands = _candidates(costs, caps, controller._knapsack_plan(costs, caps, budget))
        if cands is None:
            assert len(maximal) > controller._CANDIDATE_CAP, case
        else:
            matrix, vectors = cands
            assert set(vectors) == maximal and len(vectors) == len(maximal), case
            assert matrix.tolist() == [list(map(float, a)) for a in vectors]


def _route_plant(rng):
    """A plant for the route sweep: M = 1-5, A_max up to 8, c_max up to 30.

    One integer theta for every material at V = 1, with equal queues,
    makes tied knapsack values common (the DP fallback); fractional
    theta at V = 100 makes them rare (the scan); and five materials of
    unit cost 1-2 against a budget of 30 pass the candidate cap.
    """
    wide = rng.random() < 0.2
    M = 5 if wide else int(rng.integers(1, 4))
    K = 2
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    price_set = [
        sorted(float(p) for p in rng.choice([2.0, 3.5, 5.0, 8.0], 2, False))
        for _ in range(K)
    ]
    cfg = PlantConfig(
        beta=beta,
        alpha=[1.0] * K,
        price_set=price_set,
        D_max=[2] * K,
        A_max=[8 if wide else int(rng.integers(1, 7)) for _ in range(M)],
        c_max=30 if wide else int(rng.integers(0, 13)),
    )
    cost_range = (1, 3) if wide else (0, 4)
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(c) for c in rng.integers(*cost_range, size=M)],
            available=[int(rng.integers(6 if wide else 0, 9)) for _ in range(M)],
        )
        for i in range(2)
    ]
    grid = [0.0, 0.5, 1.0, 2.0]
    demand = [
        DemandState(
            id=f"y{i}",
            F=[[float(rng.choice(grid)) for _ in ps] for ps in price_set],
        )
        for i in range(2)
    ]
    return validate_config(cfg, supply, demand)


def test_decisions_match_reference_on_every_route(monkeypatch):
    """Seeded sweep: decisions equal the reference on each knapsack route.

    The routes are the scan, the DP after a scan too close to call, and
    the DP of a plan past the candidate cap; each must run at least 3
    times, so the sweep cannot pass without all three.
    """
    calls = dict.fromkeys(("scan", "scan_hit", "solve"), 0)
    scan, solve = controller._scan, controller._knapsack_solve

    def counted_scan(cands, values):
        got = scan(cands, values)
        calls["scan"] += 1
        calls["scan_hit"] += got is not None
        return got

    def counted_solve(plan, values):
        calls["solve"] += 1
        return solve(plan, values)

    monkeypatch.setattr(controller, "_scan", counted_scan)
    monkeypatch.setattr(controller, "_knapsack_solve", counted_solve)
    rng = np.random.default_rng(2110)
    for trial in range(60):
        model = _route_plant(rng)
        cfg = model.cfg
        if trial % 2:
            params = make_params(cfg, 100.0)
        else:
            params = ControllerParams(V=1.0, theta=[float(rng.integers(0, 20))] * cfg.M)
        hi = [int(th) + a + 1 for th, a in zip(params.theta, cfg.A_max)]
        for _ in range(16):
            Q = [int(rng.integers(0, h + 1)) for h in hi]
            if rng.random() < 0.5:  # equal queues: materials of equal cost tie
                Q = [min(Q)] * cfg.M
            for x in model.supply_states:
                got = decide_purchase(Q, x, params, cfg)
                assert got == _ref_decide_purchase(Q, x, params, cfg), (trial, Q, x)
            for y in model.demand_states:
                got = decide_pricing(Q, y, params, cfg)
                assert got == _ref_decide_pricing(Q, y, params, cfg), (trial, Q, y)
    routes = {
        "scan": calls["scan_hit"],
        "dp": calls["scan"] - calls["scan_hit"],
        "over-cap": calls["solve"] - (calls["scan"] - calls["scan_hit"]),
    }
    assert min(routes.values()) >= 3, routes


def test_wide_plan_keeps_no_candidates(monkeypatch):
    """5 materials, A_max 8, c_max 30: past the cap, the DP decides alone."""
    cfg = PlantConfig(
        beta=[[1]] * 5, alpha=[0.0], price_set=[[1.0]], D_max=[1],
        A_max=[8] * 5, c_max=30,
    )
    x = SupplyState(id="x", unit_cost=[1, 1, 2, 1, 3], available=[8] * 5)
    params = ControllerParams(V=1.0, theta=[40.0, 41.5, 39.25, 44.0, 50.0])
    solves = []
    solve = controller._knapsack_solve
    def counted_solve(plan, values):
        solves.append(values)
        return solve(plan, values)

    monkeypatch.setattr(controller, "_knapsack_solve", counted_solve)
    Q = [3, 5, 2, 4, 1]
    assert decide_purchase(Q, x, params, cfg) == _ref_decide_purchase(Q, x, params, cfg)
    assert len(solves) == 1
    plans = controller._tables(params, cfg).supply(x)[2]
    assert list(plans) == [(0, 1, 2, 3, 4)]
    assert plans[0, 1, 2, 3, 4][2] is None
    plan = controller._knapsack_plan([1] * 5, [8] * 5, 30)
    assert _candidates([1] * 5, [8] * 5, plan) is None


def _one_product(prices, F, M=1):
    """One product fed by material 0 alone; any other material is unused."""
    cfg = PlantConfig(
        beta=[[1]] + [[0]] * (M - 1), alpha=[0.0], price_set=[prices], D_max=[1],
        A_max=[1] * M, c_max=1,
    )
    return cfg, DemandState(id="y", F=[F])


@pytest.mark.parametrize(
    "prices,F,theta,relief,expected",
    [
        # lines 2 + 2r and 2.75 + r cross at r = 0.75; there and 1 ulp to
        # either side both scores round to 3.5, so the smaller price wins
        ([1.0, 2.75], [2.0, 1.0], 0.25, 0.75, ([1], [1.0])),
        ([1.0, 2.75], [2.0, 1.0], 0.25 - 2**-53, 0.75 + 2**-53, ([1], [1.0])),
        ([1.0, 2.75], [2.0, 1.0], 0.25 + 2**-53, 0.75 - 2**-53, ([1], [1.0])),
        # 2**-40 below the crossing the second line is ahead in floats too
        ([1.0, 2.75], [2.0, 1.0], 0.25 + 2**-40, 0.75 - 2**-40, ([1], [2.75])),
        # the best score is exactly 0: withheld
        ([1.0, 2.0], [2.0, 1.0], 3.0, -2.0, ([0], [2.0])),
        # equal F at two prices: the higher price leads by V * F ...
        ([1.0, 2.0], [1.5, 1.5], 0.5, 0.5, ([1], [2.0])),
        # ... until the relief absorbs that lead, and the tie goes low
        ([1.0, 2.0], [1.5, 1.5], -1e17, 1e17, ([1], [1.0])),
    ],
)
def test_pricing_near_crossings_follow_the_loop(prices, F, theta, relief, expected):
    for M in (1, 3):  # M = 3 adds beta-0 materials below their thresholds
        cfg, y = _one_product(prices, F, M)
        Q = [1] * M
        assert Q[0] - theta == relief  # the relief is exactly the one named
        params = ControllerParams(V=1.0, theta=[theta] + [5.0] * (M - 1))
        assert decide_pricing(Q, y, params, cfg) == expected
        assert _ref_decide_pricing(Q, y, params, cfg) == expected
