"""Metamorphic relations of the online episode: the money scale and a
relabeling of the materials.

Prices, assembly costs, unit costs and the budget times c, with V divided
by c, leave every quantity the controller compares unchanged: theta, the
purchase weights V * unit_cost + Q - theta and the pricing scores
V * (p - alpha) * F + F * relief.  So the episode makes the same decisions
and draws the same demand, and its profit is c times the unchanged
episode's; no reference implementation is needed.  At c = 2 every scaling
is exact in binary, so the two episodes must agree bit for bit; at c = 3
the scaled products round, and only the profit is held, within 1e-9.

Listing the materials in reverse order, with their rows of beta, A_max,
unit costs and availabilities, relabels every per-material quantity the
controller reads and leaves the demand draws alone, so the episode's
profit is the same bit for bit and its queues come out reversed.

The drift identity ties a logged run's booked profit to its queue path.
With L(Q) = 1/2 sum_m (Q_m - theta_m)^2, each slot has L(Q_t+1) - L(Q_t)
= sum_m (Q_m - theta_m) * (A_m - used_m) + bt, where bt = 1/2 sum_m
(A_m - used_m)^2.  So V * sum_t phi_t = L(Q_T) - L(Q_0) + sum_t (score_t
- bt_t), where score_t = -V * cost - sum_m (Q_m - theta_m) * A_m + sum_k
D_k * (V * (P_k - alpha_k) + relief_k) is the slot's drift-plus-penalty
score and relief_k = sum_m beta[m][k] * (Q_m - theta_m).  Every term comes
from the log's Q, A, P and D and the plant, with no transcription of the
slot loop.

The plants are every third of test_lp_relations.py's 300 random tiny ones
and its 20 seeded M=3, K=4 ones, each run for 200 slots on its own i.i.d.
state distributions at V = 10; the drift identity also holds on a
20,000-slot i1 run, whose slots the fast path serves.
"""

import numpy as np
import pytest

from plantsim.controller import compute_theta
from plantsim.simulator import EpisodeConfig, run_episode

from plants import (
    _i1,
    _iid,
    _m3_k4_plant,
    _reverse_materials,
    _scale_money,
    random_tiny_instance,
)


def _episode(model, pi_x, pi_y, seed, V):
    ec = EpisodeConfig(
        horizon=200,
        seed=seed,
        V=V,
        process_x=_iid([x.id for x in model.supply_states], pi_x.tolist()),
        process_y=_iid([y.id for y in model.demand_states], pi_y.tolist()),
        record_log=True,
    )
    return run_episode(ec, model)


@pytest.fixture(scope="module")
def episodes():
    """(model, pi_x, pi_y, seed, metrics at V = 10) of every plant."""
    rng = np.random.default_rng(7)
    cases = [random_tiny_instance(rng) for _ in range(300)][::3]
    cases += [_m3_k4_plant(rng) for _ in range(20)]
    return [(*case, i, _episode(*case, i, 10.0)) for i, case in enumerate(cases)]


def _same_decisions(row, base, c):
    """Whether a logged slot bought and offered as base did, at c times its prices."""
    return row[4:6] == base[4:6] and row[6] == tuple(c * p for p in base[6])


def test_doubling_money_keeps_the_episode(episodes):
    sold = 0
    for model, pi_x, pi_y, seed, m in episodes:
        got = _episode(_scale_money(model, 2), pi_x, pi_y, seed, 5.0)
        assert got.total_phi == 2.0 * m.total_phi, seed
        queues = (got.final_Q, got.q_min, got.q_max)
        assert queues == (m.final_Q, m.q_min, m.q_max), seed
        for row, base in zip(got.log, m.log):
            assert _same_decisions(row, base, 2.0), (seed, row[0])
        sold += any(any(row[7]) for row in m.log)
    # the relation is not vacuous: 53 of the 120 plants sell something
    assert sold >= 40, sold


def test_tripling_money_triples_the_profit(episodes):
    for model, pi_x, pi_y, seed, m in episodes:
        got = _episode(_scale_money(model, 3), pi_x, pi_y, seed, 10.0 / 3)
        want = 3.0 * m.total_phi
        differ = [
            row[0]
            for row, base in zip(got.log, m.log)
            if not _same_decisions(row, base, 3.0)
        ]
        assert abs(got.total_phi - want) <= 1e-9 * (1.0 + abs(want)), (seed, differ)


def test_reversing_materials_keeps_the_episode(episodes):
    # The tiny plants only: on the M=3, K=4 ones the controller sums relief
    # and breaks knapsack ties in material order, which a relabeling moves.
    multi = sold = 0
    for model, pi_x, pi_y, seed, m in episodes[:100]:
        got = _episode(_reverse_materials(model), pi_x, pi_y, seed, 10.0)
        assert got.total_phi == m.total_phi, seed
        queues = (got.final_Q, got.q_min, got.q_max)
        assert queues == (m.final_Q[::-1], m.q_min[::-1], m.q_max[::-1]), seed
        multi += model.cfg.M > 1
        sold += any(any(row[7]) for row in m.log)
    # the relation is not vacuous: 54 of the 100 plants have two materials,
    # and 33 sell something
    assert multi >= 40 and sold >= 25, (multi, sold)


# The identity's float slack, relative to 1 + sum_t (|score_t| + bt_t): 0 on
# every plant here (their prices are dyadic), and at most 3.0e-15 over these
# plants at V = 7.3 and 0.1.  A row that gives the queues after its slot
# moves score_t by -2 * bt_t, at least 1 whenever a queue moves.
_DRIFT_SLACK = 1e-13


def _drift_gap(model, V, m):
    """(V * total_phi - the identity's right side, its scale, sum_t bt_t) of log m."""
    cfg = model.cfg
    theta = compute_theta(cfg, V)
    supply = {x.id: x for x in model.supply_states}

    def lyapunov(Q):
        return 0.5 * sum((q - th) ** 2 for q, th in zip(Q, theta))

    terms = scale = moved = 0.0
    for _, x_id, _, Q, A, _, P, D, *_ in m.log:
        cost = sum(c * a for c, a in zip(supply[x_id].unit_cost, A))
        used = [sum(b * d for b, d in zip(row, D)) for row in cfg.beta]
        dev = [q - th for q, th in zip(Q, theta)]
        score = -V * cost - sum(e * a for e, a in zip(dev, A))
        for k, d in enumerate(D):
            relief = sum(row[k] * e for row, e in zip(cfg.beta, dev))
            score += d * (V * (P[k] - cfg.alpha[k]) + relief)
        bt = 0.5 * sum((a - u) ** 2 for a, u in zip(A, used))
        terms += score - bt
        scale += abs(score) + bt
        moved += bt
    final = [q + a - u for q, a, u in zip(Q, A, used)]
    rhs = lyapunov(final) - lyapunov(m.log[0][3]) + terms
    return V * m.total_phi - rhs, scale, moved


def test_drift_identity_of_a_logged_run(episodes):
    moving = 0
    model, ec = _i1(horizon=20_000, record_log=True)
    runs = [(model, ec.V, run_episode(ec, model))]
    runs += [(model, 10.0, m) for model, *_, m in episodes]
    for model, V, m in runs:
        gap, scale, moved = _drift_gap(model, V, m)
        assert abs(gap) <= _DRIFT_SLACK * (1.0 + scale), (m.seed, gap, scale)
        moving += moved > 0
    # the relation is not vacuous: a queue moves in 78 of the 121 runs
    assert moving >= 60, moving
