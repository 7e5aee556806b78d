"""A relation of oracle playback: the LP's policy earns the LP's value.

Played back from queues deep enough that no slot falls short, the
stationary policy that extract_xy_policy reads from the profit LP's
solution earns phi_opt per slot in expectation.  That ties build_profit_lp,
solve_lp, extract_xy_policy and playback's booking together, and no step
of it is compared with a reference implementation.

The plants are 20 seeded M=3, K=4 ones, each played on its own i.i.d.
state distributions for 8 seeds of 5,000 slots from Q0 = 10**6 per
material.  No slot may fall short, and the mean of the 8 episodes'
average profits must lie within 4 standard errors of phi_opt on every
plant.  Booking each sale's margin as P[k] in place of P[k] - alpha[k]
breaks it.
"""

import math

import numpy as np

from plantsim.oracles import extract_xy_policy, optimal_profit
from plantsim.simulator import EpisodeConfig, run_episode

from plants import _iid, _m3_k4_plant

SEEDS = 8
HORIZON = 5000


def test_playback_earns_the_lp_value():
    rng = np.random.default_rng(700)
    for i in range(20):
        model, pi_x, pi_y = _m3_k4_plant(rng)
        phi_opt, plp, sol = optimal_profit(model, pi_x, pi_y)
        policy = extract_xy_policy(plp, sol)
        avgs = []
        for seed in range(SEEDS):
            ec = EpisodeConfig(
                horizon=HORIZON,
                seed=seed,
                V=10.0,
                process_x=_iid([x.id for x in model.supply_states], pi_x.tolist()),
                process_y=_iid([y.id for y in model.demand_states], pi_y.tolist()),
                controller="oracle",
                oracle_policy=policy,
                Q0=[10**6] * model.cfg.M,
            )
            m = run_episode(ec, model)
            assert m.phi_mismatch_slots == 0, (i, seed)
            avgs.append(m.avg_phi_actual)
        se = np.std(avgs, ddof=1) / math.sqrt(SEEDS)
        z = (np.mean(avgs) - phi_opt) / se
        assert abs(z) <= 4, (i, z)
