"""A metamorphic relation of the online episode: the money scale.

Prices, assembly costs, unit costs and the budget times c, with V divided
by c, leave every quantity the controller compares unchanged: theta, the
purchase weights V * unit_cost + Q - theta and the pricing scores
V * (p - alpha) * F + F * relief.  So the episode makes the same decisions
and draws the same demand, and its profit is c times the unchanged
episode's; no reference implementation is needed.  At c = 2 every scaling
is exact in binary, so the two episodes must agree bit for bit; at c = 3
the scaled products round, and only the profit is held, within 1e-9.

The plants are every third of test_lp_relations.py's 300 random tiny ones
and its 20 seeded M=3, K=4 ones, each run for 200 slots on its own i.i.d.
state distributions at V = 10.
"""

import numpy as np
import pytest

from plantsim.simulator import EpisodeConfig, run_episode

from plants import _iid, _m3_k4_plant, _scale_money, random_tiny_instance


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
