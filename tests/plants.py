"""The plants the test modules share, and the seeded episodes run on them.

i1 is the single-material, single-product plant used throughout: beta=1,
alpha=0, prices {1, 2}, D_max=2, A_max=2, c_max=2, one supply state (cost
1, two units available) and one demand state (expected demand 2 at price
1, 1 at price 2).  Its stationary optimum is exactly 1 per slot.

Each seeded generator draws from the rng it is given in its own fixed
order, so the same seed always gives the same plants; they are kept apart
because they draw differently.  The transforms rebuild a plant with a
change whose effect on its value is known.  CASES names seeded episodes:
test_episode_digest.py pins them and test_simulator.py replays them.
"""

import dataclasses

import numpy as np

from plantsim.model import DemandState, PlantConfig, SupplyState, validate_config
from plantsim.oracles import build_profit_lp, extract_xy_policy, optimal_profit
from plantsim.processes import IID, StateProcessSpec, empirical_distribution
from plantsim.simplex import LinearProgram
from plantsim.simulator import EpisodeConfig, run_episode


# -- named plants ------------------------------------------------------------


def make_i1_cfg():
    return PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )


def make_i1():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="d0", F=[[2.0, 1.0]], h=1.0, F_hat=[[2.0, 1.0]])
    ]
    return validate_config(cfg, supply, demand)


def make_two_phase():
    """i1 plus an unaffordable supply state and a dead demand state.

    With c_max=2 the expensive state (unit cost 3) cannot fund a single
    unit, so traces alternating cheap-supply/no-demand with
    dear-supply/hot-demand force cross-slot planning.
    """
    cfg = make_i1_cfg()
    supply = [
        SupplyState(id="cheap", unit_cost=[1], available=[2]),
        SupplyState(id="dear", unit_cost=[3], available=[2]),
    ]
    demand = [
        DemandState(id="hot", F=[[2.0, 1.0]]),
        DemandState(id="cold", F=[[0.0, 0.0]]),
    ]
    return validate_config(cfg, supply, demand)


def make_blind():
    """Two demand states sharing one base table, scaled by 0.5 and 1.0."""
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="lo", F=[[1.0, 0.5]], h=0.5, F_hat=[[2.0, 1.0]]),
        DemandState(id="hi", F=[[2.0, 1.0]], h=1.0, F_hat=[[2.0, 1.0]]),
    ]
    return validate_config(cfg, supply, demand)


MID_PRICES = [[4.3, 6.1, 9.7], [5.0, 7.5], [3.9, 8.2, 11.3], [6.6, 10.1]]
MID_ALPHA = [0.7, 1.1, 0.3, 0.9]
# Margins that are exact binary fractions, so every profit sum is exact.
MID_INT_PRICES = [[4.0, 6.0, 10.0], [5.0, 8.0], [4.0, 8.0, 11.0], [7.0, 10.0]]
MID_INT_ALPHA = [1.0, 0.5, 0.25, 1.0]


def make_mid(price_set=MID_PRICES, alpha=MID_ALPHA):
    """M=3, K=4 with two supply and two demand states and a binding budget."""
    cfg = PlantConfig(
        beta=[[1, 0, 2, 1], [0, 1, 1, 0], [2, 1, 0, 1]],
        alpha=alpha,
        price_set=price_set,
        D_max=[3, 2, 3, 2],
        A_max=[6, 6, 6],
        c_max=12,
    )
    supply = [
        SupplyState(id="x0", unit_cost=[1, 2, 3], available=[6, 4, 5]),
        SupplyState(id="x1", unit_cost=[3, 1, 2], available=[3, 6, 6]),
    ]
    demand = [
        DemandState(
            id="y0",
            F=[[2.7, 1.9, 0.4], [1.8, 0.6], [2.9, 1.2, 0.3], [1.5, 0.8]],
        ),
        DemandState(
            id="y1",
            F=[[1.3, 0.9, 0.2], [1.1, 0.2], [2.2, 2.0, 1.1], [1.9, 1.4]],
        ),
    ]
    return validate_config(cfg, supply, demand)


# -- seeded generators -------------------------------------------------------


def random_tiny_instance(rng):
    """A random instance small enough for the exhaustive oracle."""
    M = int(rng.integers(1, 3))
    K = int(rng.integers(1, 3))
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    for m in range(M):
        if all(beta[m][k] == 0 for k in range(K)):
            beta[m][int(rng.integers(0, K))] = 1
    menu = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    price_set = []
    for _ in range(K):
        n = int(rng.integers(1, 4))
        picks = sorted(rng.choice(len(menu), size=n, replace=False))
        price_set.append([menu[i] for i in picks])
    alpha = [float(rng.choice([0.0, 0.5])) for _ in range(K)]
    D_max = [int(rng.integers(1, 3)) for _ in range(K)]
    A_max = [int(rng.integers(1, 3)) for _ in range(M)]
    c_max = int(rng.integers(0, 4))
    cfg = PlantConfig(
        beta=beta,
        alpha=alpha,
        price_set=price_set,
        D_max=D_max,
        A_max=A_max,
        c_max=c_max,
    )
    n_x = int(rng.integers(1, 3))
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(rng.integers(0, 3)) for _ in range(M)],
            available=[int(rng.integers(0, 3)) for _ in range(M)],
        )
        for i in range(n_x)
    ]
    n_y = int(rng.integers(1, 3))
    demand = [
        DemandState(
            id=f"y{i}",
            F=[
                [
                    round(float(rng.uniform(0, D_max[k])), 2)
                    for _ in price_set[k]
                ]
                for k in range(K)
            ],
        )
        for i in range(n_y)
    ]
    model = validate_config(cfg, supply, demand)
    pi_x = rng.uniform(0.2, 1.0, size=n_x)
    pi_x = pi_x / pi_x.sum()
    pi_y = rng.uniform(0.2, 1.0, size=n_y)
    pi_y = pi_y / pi_y.sum()
    return model, pi_x, pi_y


def _m3_k4_plant(rng):
    """A seeded M=3, K=4 plant with three supply and three demand states."""
    M, K = 3, 4
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        beta[k % M][k] = max(beta[k % M][k], 1)
    menu = [4.0, 6.0, 8.0, 10.0]
    price_set = [sorted(rng.choice(menu, size=2, replace=False)) for _ in range(K)]
    cfg = PlantConfig(
        beta=beta,
        alpha=[1.0] * K,
        price_set=price_set,
        D_max=[3] * K,
        A_max=[4] * M,
        c_max=8,
    )
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=rng.integers(1, 4, size=M).tolist(),
            available=rng.integers(2, 5, size=M).tolist(),
        )
        for i in range(3)
    ]
    demand = [
        DemandState(
            id=f"y{i}",
            F=[
                sorted(rng.uniform(0, 3, size=2).round(3).tolist(), reverse=True)
                for _ in range(K)
            ],
        )
        for i in range(3)
    ]
    pi_x, pi_y = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    return validate_config(cfg, supply, demand), pi_x, pi_y


def _t8_frame_programs():
    """20 profit LPs of _m3_k4_plant on the state histograms of 8-slot frames.

    The oracle benchmark's lookahead frames have T = 8, so these pin the
    pivot paths of the programs it solves, where _mid_pinned_programs'
    frames have only one or two slots.
    """
    rng = np.random.default_rng(8080)
    lps = []
    for _ in range(20):
        model = _m3_k4_plant(rng)[0]
        xs, ys = rng.integers(0, 3, size=(2, 8))
        pi_x, pi_y = empirical_distribution(xs, 3), empirical_distribution(ys, 3)
        lps.append(build_profit_lp(model, pi_x, pi_y).lp)
    return lps


def tie_plant(rng, blind):
    """A validated plant with M <= 3, K <= 4 and coarse grids that make ties.

    Costs and availabilities include zeros, the budget may be zero, demand
    means include zero, and half-unit prices and margins make exact zero
    and equal scores common at integer V and theta.
    """
    M = int(rng.integers(1, 4))
    K = int(rng.integers(1, 5))
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    menu = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    price_set = []
    for _ in range(K):
        picks = rng.choice(len(menu), size=int(rng.integers(1, 4)), replace=False)
        price_set.append([menu[i] for i in sorted(picks)])
    D_max = [int(rng.integers(1, 4)) for _ in range(K)]
    cfg = PlantConfig(
        beta=beta,
        alpha=[float(rng.choice([0.0, 0.5, 1.0])) for _ in range(K)],
        price_set=price_set,
        D_max=D_max,
        A_max=[int(rng.integers(1, 5)) for _ in range(M)],
        c_max=int(rng.integers(0, 10)),
    )
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(rng.integers(0, 4)) for _ in range(M)],
            available=[int(rng.integers(0, 5)) for _ in range(M)],
        )
        for i in range(3)
    ]

    def table():
        grid = [0.0, 0.5, 1.0, 2.0]  # times D_max / 2
        return [
            [float(rng.choice(grid)) * D_max[k] / 2 for _ in price_set[k]]
            for k in range(K)
        ]

    demand = []
    for i in range(3):
        if blind:
            base, h = table(), float(rng.choice([0.5, 1.0]))
            F = [[h * f for f in row] for row in base]
            demand.append(DemandState(id=f"y{i}", F=F, h=h, F_hat=base))
        else:
            demand.append(DemandState(id=f"y{i}", F=table()))
    return validate_config(cfg, supply, demand)


def blind_plant(rng):
    """A random plant with M, K <= 3 whose demand tables allow blind pricing."""
    M = int(rng.integers(1, 4))
    K = int(rng.integers(1, 4))
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        beta[int(rng.integers(0, M))][k] += 1
    menu = [0.5, 1.0, 1.5, 2.25, 3.0]
    price_set = [
        sorted(rng.choice(menu, size=int(rng.integers(1, 4)), replace=False).tolist())
        for _ in range(K)
    ]
    D_max = [int(rng.integers(1, 4)) for _ in range(K)]
    cfg = PlantConfig(
        beta=beta,
        alpha=[float(rng.choice([0.0, 0.25])) for _ in range(K)],
        price_set=price_set,
        D_max=D_max,
        A_max=[int(rng.integers(1, 4)) for _ in range(M)],
        c_max=int(rng.integers(0, 7)),
    )
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(rng.integers(0, 3)) for _ in range(M)],
            available=[int(rng.integers(0, 4)) for _ in range(M)],
        )
        for i in range(int(rng.integers(1, 4)))
    ]
    base = [[float(rng.uniform(0, d)) for _ in ps] for ps, d in zip(price_set, D_max)]
    demand = []
    for i in range(int(rng.integers(1, 4))):
        h = float(rng.choice([0.5, 1.0]))
        F = [[h * f for f in row] for row in base]
        demand.append(DemandState(id=f"y{i}", F=F, h=h, F_hat=base))
    return validate_config(cfg, supply, demand)


def short_slot_cases(rng, n):
    """Yield n random (cfg, decision, slots) for the fulfillment rule.

    cfg has M and K up to 4 and beta entries of 0 to 2.  alpha, the menus
    and the decision's cost are ints, or floats that binary fractions do
    not hold, so that sums in another order would round differently; a
    cost may also be 0 or 0.0.  Margins come from a few values, so they tie
    and may be negative.  The decision (A, cost, Z, P) withholds some
    products, each posting its lowest price, as playback does.  slots
    lists five (Q, D) each, whose demand often runs beyond the stock.  The
    rng is drawn from in a fixed order.
    """
    for _ in range(n):
        M, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        beta = rng.integers(0, 3, size=(M, K)).tolist()
        for k in range(K):
            if not any(row[k] for row in beta):
                beta[int(rng.integers(M))][k] = 1
        if rng.random() < 0.3:
            costs, alphas, menu = [0, 0, 7], [0, 1, 2], [0, 1, 2, 3, 4]
        else:
            costs, alphas = [0, 0.0, 2.3], [0.0, 0.2, 0.6]
            menu = [0.1, 0.7, 1.3, 2.9, 4.1]
        alpha = [alphas[i] for i in rng.integers(0, 3, size=K).tolist()]
        price_set = [
            sorted({menu[i] for i in rng.integers(0, 5, size=3).tolist()})
            for _ in range(K)
        ]
        D_max = rng.integers(1, 6, size=K).tolist()
        cfg = PlantConfig(
            beta=beta,
            alpha=alpha,
            price_set=price_set,
            D_max=D_max,
            A_max=[4] * M,
            c_max=20,
        )
        Z = (rng.random(K) < 0.75).astype(int).tolist()
        P = [
            ps[int(rng.integers(len(ps)))] if z else ps[0]
            for ps, z in zip(price_set, Z)
        ]
        A = rng.integers(0, 5, size=M).tolist()
        cost = costs[int(rng.integers(3))]
        slots = [
            (
                rng.integers(0, 6, size=M).tolist(),
                [int(rng.integers(d + 1)) for d in D_max],
            )
            for _ in range(5)
        ]
        yield cfg, (A, cost, Z, P), slots


# -- transforms --------------------------------------------------------------


def doubled_rows(lp):
    """lp with every row and its right-hand side times 2.0: the same program.

    The scaling is exact, so the copy has the same feasible set and optimum.
    Where lp has a column whose only non-zero is 1.0, the copy has 2.0, so
    solve_lp starts the copy's rows on artificial columns.
    """
    return LinearProgram(
        c=lp.c,
        a_eq=np.asarray(lp.a_eq, dtype=float) * 2.0,
        b_eq=np.asarray(lp.b_eq, dtype=float) * 2.0,
    )


def _rebuilt(model, cfg=None, supply=None, demand=None):
    return validate_config(
        cfg or model.cfg, supply or model.supply_states, demand or model.demand_states
    )


def _reverse_materials(model):
    cfg = dataclasses.replace(
        model.cfg, beta=model.cfg.beta[::-1], A_max=model.cfg.A_max[::-1]
    )
    supply = [
        dataclasses.replace(x, unit_cost=x.unit_cost[::-1], available=x.available[::-1])
        for x in model.supply_states
    ]
    return _rebuilt(model, cfg, supply)


def _reverse_products(model):
    cfg = model.cfg
    cfg = dataclasses.replace(
        cfg,
        beta=[row[::-1] for row in cfg.beta],
        alpha=cfg.alpha[::-1],
        price_set=cfg.price_set[::-1],
        D_max=cfg.D_max[::-1],
    )
    demand = [dataclasses.replace(y, F=y.F[::-1]) for y in model.demand_states]
    return _rebuilt(model, cfg, demand=demand)


def _scale_money(model, s):
    """Prices, assembly costs, unit costs and the budget, all times s."""
    cfg = model.cfg
    cfg = dataclasses.replace(
        cfg,
        alpha=[s * a for a in cfg.alpha],
        price_set=[[s * p for p in prices] for prices in cfg.price_set],
        c_max=s * cfg.c_max,
    )
    supply = [
        dataclasses.replace(x, unit_cost=[s * c for c in x.unit_cost])
        for x in model.supply_states
    ]
    return _rebuilt(model, cfg, supply)


def _with_dominated_price(model):
    """Product 0 gains a price between its first two, at the higher one's
    demand: offering at the higher price instead sells as much for more."""
    cfg = model.cfg
    p0, p1 = cfg.price_set[0][:2]
    price_set = [[p0, (p0 + p1) / 2, *cfg.price_set[0][1:]], *cfg.price_set[1:]]
    demand = [
        dataclasses.replace(y, F=[[*y.F[0][:2], *y.F[0][1:]], *y.F[1:]])
        for y in model.demand_states
    ]
    return _rebuilt(model, dataclasses.replace(cfg, price_set=price_set), demand=demand)


# -- seeded episodes ---------------------------------------------------------


def _iid(ids, probs):
    return StateProcessSpec(mode=IID, state_ids=ids, probs=probs)


def constant_process(state_id):
    """A degenerate process that stays in one state forever."""
    return _iid([state_id], [1.0])


def _i1(**kw):
    base = dict(
        horizon=4000,
        seed=31,
        V=10.0,
        process_x=constant_process("s0"),
        process_y=constant_process("d0"),
    )
    base.update(kw)
    return make_i1(), EpisodeConfig(**base)


def _mid(model=None, **kw):
    base = dict(
        horizon=3000,
        seed=5,
        V=40.0,
        process_x=_iid(["x0", "x1"], [0.6, 0.4]),
        process_y=_iid(["y0", "y1"], [0.3, 0.7]),
    )
    base.update(kw)
    return model or make_mid(), EpisodeConfig(**base)


def _with_oracle(model, ec, pi_x, pi_y):
    _, plp, sol = optimal_profit(model, np.asarray(pi_x), np.asarray(pi_y))
    ec.controller = "oracle"
    ec.oracle_policy = extract_xy_policy(plp, sol)
    return model, ec


def _blind():
    model = make_blind()
    ec = EpisodeConfig(
        horizon=4000,
        seed=8,
        V=10.0,
        process_x=constant_process("s0"),
        process_y=_iid(["lo", "hi"], [0.5, 0.5]),
        demand_blind=True,
    )
    return model, ec


CASES = {
    "i1-online": lambda: _i1(),
    "i1-placeholder": lambda: _i1(placeholder=True, Q0=[3]),
    "i1-assembly-delay": lambda: _i1(assembly_delay=True, stream=2),
    "i1-unsafe-theta": lambda: _i1(theta=[12.0], allow_unsafe_theta=True),
    "blind-demand-blind": _blind,
    "mid-online": lambda: _mid(),
    "mid-placeholder": lambda: _mid(placeholder=True, Q0=[1, 0, 2]),
    "mid-assembly-delay": lambda: _mid(assembly_delay=True, seed=6),
    "mid-unsafe-theta": lambda: _mid(
        theta=[100.0, 80.0, 100.0], allow_unsafe_theta=True
    ),
    "i1-oracle": lambda: _with_oracle(*_i1(), [1.0], [1.0]),
    "i1-oracle-Q0": lambda: _with_oracle(*_i1(seed=4, Q0=[7]), [1.0], [1.0]),
    "mid-oracle": lambda: _with_oracle(*_mid(), [0.6, 0.4], [0.3, 0.7]),
    "mid-int-oracle": lambda: _with_oracle(
        *_mid(make_mid(MID_INT_PRICES, MID_INT_ALPHA), seed=9), [0.6, 0.4], [0.3, 0.7]
    ),
}


def run_case(name: str):
    model, ec = CASES[name]()
    ec.record_log = True
    return model, ec, run_episode(ec, model)
