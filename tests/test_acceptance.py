"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line into the terminal summary, so a
plain pytest run ends with a ten-line report.  Simulation-backed checks
carry a three-standard-error allowance; oracle and bound-constant checks
are exact to the stated tolerances.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from plantsim.controller import compute_theta
from plantsim.model import DemandState, SupplyState, validate_config
from plantsim.oracles import (
    OraclePolicy,
    brute_force_opt,
    extract_xy_policy,
    optimal_profit,
    two_price_reduce,
)
from plantsim.processes import MARKOV, StateProcessSpec, constant_process
from plantsim.simulator import (
    EpisodeConfig,
    check_frame_bound,
    check_profit_bound,
    drift_constant,
    run_episode,
    run_replications,
    summarize,
)

import conftest
from conftest import (
    make_blind,
    make_i1,
    make_i1_cfg,
    make_two_phase,
    random_tiny_instance,
)

# every Metrics produced here lands in this list; criterion 10 sweeps it
ALL_RUNS: list = []


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        conftest.acceptance_lines.append(f"criterion {num:2d}: FAIL - {desc}")
        raise
    conftest.acceptance_lines.append(f"criterion {num:2d}: PASS - {desc}")


def _keep(runs):
    ALL_RUNS.extend(runs)
    return runs


def test_criterion_01_lp_oracle():
    with criterion(1, "stationary LP equals exhaustive oracle (20 instances)"):
        t0 = time.perf_counter()
        model = make_i1()
        value, _, _ = optimal_profit(model, np.array([1.0]), np.array([1.0]))
        assert abs(value - 1.0) <= 1e-6
        res = brute_force_opt(model, np.array([1.0]), np.array([1.0]))
        assert abs(value - res.value) <= 1e-6
        rng = np.random.default_rng(424242)
        pure_seen = 0
        for _ in range(20):
            tiny, pi_x, pi_y = random_tiny_instance(rng)
            lp_val, _, _ = optimal_profit(tiny, pi_x, pi_y)
            bf = brute_force_opt(tiny, pi_x, pi_y)
            assert lp_val >= bf.value - 1e-6
            if bf.is_pure:
                pure_seen += 1
                assert abs(lp_val - bf.pure_value) <= 1e-6
        assert pure_seen > 0
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_profit_bound():
    with criterion(2, "profit within B/V of the stationary optimum"):
        t0 = time.perf_counter()
        model = make_i1()
        phi_opt, _, _ = optimal_profit(model, np.array([1.0]), np.array([1.0]))
        B = drift_constant(model)
        assert B == 2.0
        ec = EpisodeConfig(
            horizon=200_000,
            seed=7,
            V=10.0,
            process_x=constant_process("s0"),
            process_y=constant_process("d0"),
        )
        runs = _keep(run_replications(ec, model, 8))
        s = summarize(runs)
        assert s.mean >= phi_opt - B / 10.0 - 3 * s.se
        assert s.mean <= phi_opt + 3 * s.se
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_queue_bounds_exact():
    with criterion(3, "queues stay in [mu_max, theta + A_max], no tolerance"):
        assert ALL_RUNS, "profit-bound runs must execute first"
        for m in ALL_RUNS:
            assert m.bound_violations == 0
            for i in range(len(m.q_min)):
                assert m.q_min[i] >= m.q_lower_bound[i]
                assert m.q_max[i] <= m.q_upper_bound[i]
        # the canonical instance at V=10 pins the band to exact integers
        assert ALL_RUNS[0].q_lower_bound == [2]
        assert ALL_RUNS[0].q_upper_bound == [26.0]


def test_criterion_04_v_sweep():
    with criterion(4, "V-sweep: buffer bound affine in V, gap <= B/V"):
        model = make_i1()
        cfg = model.cfg
        phi_opt, _, _ = optimal_profit(model, np.array([1.0]), np.array([1.0]))
        B = drift_constant(model)
        expected_qmax = {5.0: 16.0, 10.0: 26.0, 20.0: 46.0, 40.0: 86.0}
        for V, bound in expected_qmax.items():
            theta = compute_theta(cfg, V)
            assert theta[0] + cfg.A_max[0] == bound  # exact, closed form
            ec = EpisodeConfig(
                horizon=25_000,
                seed=11,
                V=V,
                process_x=constant_process("s0"),
                process_y=constant_process("d0"),
            )
            runs = _keep(run_replications(ec, model, 8))
            s = summarize(runs)
            assert phi_opt - s.mean <= B / V + 3 * s.se
            for m in runs:
                assert m.q_max[0] <= bound
                assert m.bound_violations == 0


def test_criterion_05_two_price_reduction():
    with criterion(5, "two-price reduction: <= 2 supports, demand preserved"):
        model = make_i1()
        _, plp, sol = optimal_profit(model, np.array([1.0]), np.array([1.0]))
        pol = extract_xy_policy(plp, sol)
        cases = [(model, pol)]
        rng = np.random.default_rng(515151)
        for _ in range(20):
            tiny, _, _ = random_tiny_instance(rng)
            price_dist = []
            for k in range(tiny.cfg.K):
                per_y = []
                for _y in tiny.demand_states:
                    opts = [(0, -1)] + [
                        (1, j) for j in range(len(tiny.cfg.price_set[k]))
                    ]
                    w = rng.uniform(0.05, 1.0, size=len(opts))
                    w = w / w.sum()
                    per_y.append(
                        [(z, j, float(p)) for (z, j), p in zip(opts, w)]
                    )
                price_dist.append(per_y)
            rand_pol = OraclePolicy(
                purchase_dist=[],
                price_dist=price_dist,
                c_hat=0.0,
                r_hat=0.0,
                a_hat=[0.0] * tiny.cfg.M,
                mu_hat=[0.0] * tiny.cfg.M,
                phi=0.0,
            )
            cases.append((tiny, rand_pol))
        for inst, policy in cases:
            red = two_price_reduce(policy, inst)
            for k in range(inst.cfg.K):
                for yi, y in enumerate(inst.demand_states):
                    ent = red.entries[k][yi]
                    assert len(ent.support) <= 2
                    d_back = sum(
                        (0.0 if z == 0 else y.F[k][j]) * w
                        for z, j, w in ent.support
                    )
                    assert abs(d_back - ent.d_target) <= 1e-9
                    assert ent.r_star >= ent.r_orig - 1e-9


def test_criterion_06_frame_lookahead_bound():
    with criterion(6, "frame-lookahead profit bound on 10 traces"):
        t0 = time.perf_counter()
        model = make_two_phase()
        T, J, V = 4, 50, 20.0
        n = T * J
        traces = []
        rng = np.random.default_rng(606060)
        for _ in range(9):
            traces.append(
                (
                    rng.integers(0, 2, size=n).tolist(),
                    rng.integers(0, 2, size=n).tolist(),
                )
            )
        # adversarial: cheap supply with dead demand, then dear supply
        # with live demand; profit requires stocking across the switch
        traces.append(([0] * (n // 2) + [1] * (n // 2),
                       [1] * (n // 2) + [0] * (n // 2)))
        for i, (xs, ys) in enumerate(traces):
            rep = check_frame_bound(
                model, xs, ys, V=V, T=T, J=J, replications=12, seed=100 + i
            )
            assert len(rep.frame_values) == J
            assert all(v >= -1e-9 for v in rep.frame_values)
            assert rep.passed, (i, rep)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_markov_consequence_bound():
    with criterion(7, "Markov-modulated bound at (eps, T) = (0.05, 32)"):
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
        # four replications of 250k slots: one million simulated slots
        rep = check_profit_bound(
            model,
            constant_process("s0"),
            spec_y,
            V=10.0,
            epsilon=0.05,
            T=32,
            horizon=250_000,
            replications=4,
            seed=5,
        )
        assert rep.passed
        # conditional on the user-supplied (eps, T); the bound itself is
        # far below the stationary optimum at these settings
        assert rep.rhs < rep.phi_opt


def test_criterion_08_placeholder_equivalence():
    with criterion(8, "placeholder run bit-identical to shifted-start run"):
        model = make_i1()
        base = dict(
            horizon=10_000,
            seed=21,
            V=10.0,
            process_x=constant_process("s0"),
            process_y=constant_process("d0"),
            record_log=True,
        )
        ph = run_episode(
            EpisodeConfig(placeholder=True, Q0=[0], **base), model
        )
        shifted = run_episode(EpisodeConfig(Q0=[2], **base), model)
        _keep([ph, shifted])
        assert ph.log == shifted.log  # decisions, demand, profits, queues
        assert ph.total_phi == shifted.total_phi
        assert ph.fake == [2]
        # reported actual inventory is offset by exactly mu_max every slot
        for row_p, row_s in zip(ph.log, shifted.log):
            q_p, q_s = row_p[3], row_s[3]
            assert q_p[0] - ph.fake[0] == q_s[0] - 2


def test_criterion_09_demand_blind_equivalence():
    with criterion(9, "demand-blind pricing bit-identical to informed"):
        model = make_blind()
        spec_y = StateProcessSpec(
            mode="IID", state_ids=["lo", "hi"], probs=[0.5, 0.5]
        )
        base = dict(
            horizon=10_000,
            seed=31,
            V=10.0,
            process_x=constant_process("s0"),
            process_y=spec_y,
            record_log=True,
        )
        blind = run_episode(EpisodeConfig(demand_blind=True, **base), model)
        seen = run_episode(EpisodeConfig(**base), model)
        _keep([blind, seen])
        assert blind.log is not None and seen.log is not None
        for row_b, row_s in zip(blind.log, seen.log):
            assert row_b[5] == row_s[5]  # Z
            assert row_b[6] == row_s[6]  # P
        assert blind.log == seen.log  # full trajectories coincide


def test_criterion_10_property_suite():
    with criterion(10, "drift bound, full fulfillment, demand mean, rerun"):
        # every episode recorded by the preceding criteria
        assert ALL_RUNS
        for m in ALL_RUNS:
            assert m.max_slot_drift <= m.drift_bound
            assert m.phi_mismatch_slots == 0
            assert m.bound_violations == 0
        # demand sampler mean: one million draws against the table value
        model = make_i1()
        from plantsim.processes import RngStream, realize_demand

        draws = realize_demand(
            0, 2.0, model.demand_states[0], model.cfg,
            RngStream(991, 0).generator(0), size=1_000_000,
        )
        se = math.sqrt(0.5 / 1_000_000)
        assert abs(draws.mean() - 1.0) <= 3 * se
        # bit-exact reruns of a logged episode
        ec = EpisodeConfig(
            horizon=5_000,
            seed=77,
            V=10.0,
            process_x=constant_process("s0"),
            process_y=constant_process("d0"),
            record_log=True,
        )
        a = run_episode(ec, model)
        b = run_episode(ec, model)
        assert a.total_phi == b.total_phi
        assert a.log == b.log
        assert a.final_Q == b.final_Q
