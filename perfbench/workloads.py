"""The three benchmark workloads, their set-up and their correctness gates.

A workload has a set-up step (make its instances from the seed, write
them as scenario files and load them back through plantsim's scenario
reader) and a run step (the measured work).  The amount of work is fixed
by --seconds through the constants below, never by the clock, so one seed
and one --seconds value always do the same work and the exact counts of a
traced run repeat.  The constants were sized on a 2-core Xeon so that one
run of each simulation workload takes about --seconds; ``oracle`` takes
longer because its two wide-budget programs have a fixed size.

Every run times three kinds of operation: ``lp`` (the ``oracle``
command's stationary-LP chain: build, solve, extract, two-price) and the
stages ``a`` and ``b``, whose meaning is per workload:

    workload    stage a                          stage b
    sim-loop    online episode (simulate, i1)    playback episode (oracle --slots, i1)
    sim-decide  online episode (simulate, mid)   playback episode (oracle --slots, mid)
    oracle      lookahead frame                  brute-force cross-check
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import instances
from plantsim import oracles, processes, scenario, simplex, simulator

BASE_SECONDS = 15

# Each workload interleaves its kinds of operation, so every kind samples
# the whole run rather than one stretch of it; on a shared host the speed
# drifts over seconds.

# sim-loop: per round one online episode, five LP chains, one playback.
LOOP_ROUNDS = 30
LOOP_SLOTS = 100_000
LOOP_LP_CHAINS_PER_ROUND = 5
PLAYBACK_SLOTS = 10_000

# sim-decide: an LP chain on each mid instance, and on every third one also
# one short online episode and one playback episode of its optimal policy,
# so the figures are medians over many instances; one full ``compare`` on
# the first instance gates correctness.
DECIDE_INSTANCES = 240
DECIDE_EPISODE_STRIDE = 3
DECIDE_SLOTS = 1_000
# The controller starts from low buffers and needs a few thousand slots to
# fill them, so shorter compare runs miss the bound on some instances.
COMPARE_HORIZON = 15_000
COMPARE_REPLICATIONS = 2

# oracle: LP chains on small instances, every second one made small enough
# to be cross-checked by brute force, and one lookahead frame per mid
# instance.
ORACLE_SMALL = 600
ORACLE_FRAMES = 100
ORACLE_FRAME_T = 8
# With --tiny the self-test runs wide-fail under this pivot guard, so the
# failure path is exercised in seconds instead of a minute.
TINY_PIVOT_GUARD = 2_000


def known_defect(exc_name: str, message: str) -> bool:
    """The simplex giving up at its pivot guard: ROADMAP item 3c.

    wide-fail always ends this way, and now and then one of the frame
    checks' stationary programs does too.  Such an operation counts as
    failed but does not make the run incorrect; any other failure does.
    """
    return exc_name == "RuntimeError" and "iteration guard" in message


# Operation times are reported at a fixed reference speed.  The shared host
# this benchmark was built on runs the same code up to 1.5 times slower for
# seconds to minutes at a time, for all of it alike: around each operation
# the benchmark times a fixed pure-Python loop and divides the operation's
# time by that loop's slowdown against CALIBRATION_REF_S.  In a test on that
# host this cut the run-to-run spread of a median episode time from 27% to
# 4%.  Operations longer than SCALE_LIMIT_S keep their raw time, since two
# short samples cannot stand for the speed over them.  The raw times are
# printed beside the scaled ones.
SCALE_LIMIT_S = 1.0
CALIBRATION_REF_S = 0.0003


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        d = {}
        s = 0.0
        for i in range(1500):
            d[i & 63] = s
            s += (i * 0.5) % 7
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Run:
    """What one workload run did: timed operations, gates and notes.

    times holds raw seconds per operation kind, scaled the same times at
    the reference speed.
    """

    tracer: object = None
    times: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, str, str, float]] = field(default_factory=list)
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    busy_raw: float = 0.0  # seconds inside operations
    busy_scaled: float = 0.0  # the same at the reference speed
    _calibration: float = 0.0

    def op(self, kind: str, fn, *args, units: float = 0.0):
        """Call fn(*args) as one timed operation; returns None if it raised.

        units is the work the call does (slots), summed per kind.
        """
        self.attempted += 1
        before = self._calibration or calibrate()
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                out = self.tracer.span(kind, fn, *args)
        except Exception as e:  # counted and reported, never hidden
            out, failure = None, e
        else:
            failure = None
        dt = perf_counter() - t0
        self._calibration = calibrate()
        slowdown = (before + self._calibration) / (2 * CALIBRATION_REF_S)
        if dt > SCALE_LIMIT_S:
            slowdown = 1.0
        self.busy_raw += dt
        self.busy_scaled += dt / slowdown
        if failure is not None:
            self.failures.append((kind, type(failure).__name__, str(failure), dt))
            return None
        self.times.setdefault(kind, []).append(dt)
        self.scaled.setdefault(kind, []).append(dt / slowdown)
        self.work[kind] = self.work.get(kind, 0.0) + units
        return out

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))


def _count(base: int, scale: float, least: int = 1) -> int:
    return max(least, round(base * scale))


def _write_and_load(data: dict, workdir: str):
    path = os.path.join(workdir, f"{data['name']}.scenario")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return scenario.load_scenario(path)


def _stationary(sc):
    return (
        simulator.process_distribution(sc.process_x),
        simulator.process_distribution(sc.process_y),
    )


def lp_chain(model, pi_x, pi_y):
    """What ``plantsim oracle`` computes: optimum, policy, two-price form."""
    value, plp, sol = oracles.optimal_profit(model, pi_x, pi_y)
    policy = oracles.extract_xy_policy(plp, sol)
    return value, policy, oracles.two_price_reduce(policy, model)


def _run_lp_chains(run: Run, scs) -> list:
    out = []
    for sc in scs:
        res = run.op("lp", lp_chain, sc.model, *_stationary(sc))
        out.append(res)
        if res is not None:
            worst = min(
                e.r_star - e.r_orig for row in res[2].entries for e in row
            )
            run.gate("two-price revenue >= original", worst >= -1e-9, f"{sc.name}: {worst:.3g}")
    return out


def _episode(sc, horizon, seed, stream, V, policy=None):
    return simulator.EpisodeConfig(
        horizon=horizon,
        seed=seed,
        V=V,
        process_x=sc.process_x,
        process_y=sc.process_y,
        stream=stream,
        controller="online" if policy is None else "oracle",
        oracle_policy=policy,
    )


def _check_online(run: Run, label: str, metrics) -> None:
    """Queue band, fulfillment and drift of finished online episodes."""
    bad = [
        m
        for m in metrics
        if m.bound_violations
        or m.phi_mismatch_slots
        or any(lo < b for lo, b in zip(m.q_min, m.q_lower_bound))
        or any(hi > b for hi, b in zip(m.q_max, m.q_upper_bound))
        or m.max_slot_drift > m.drift_bound
    ]
    run.gate(f"{label}: band, fulfillment, drift", not bad, f"{len(bad)} of {len(metrics)} episodes")


# -- sim-loop ------------------------------------------------------------


def setup_sim_loop(rng, workdir, root, scale, tiny):
    return {"i1": scenario.load_scenario(os.path.join(root, "scenarios", "i1.scenario"))}


def run_sim_loop(data, run: Run, seed, scale, tiny):
    sc = data["i1"]
    V = sc.V
    shrink = 10 if tiny else 1
    L_on, L_pb = LOOP_SLOTS // shrink, PLAYBACK_SLOTS // shrink
    online, chains = [], []
    for i in range(_count(LOOP_ROUNDS, scale, 2)):
        m = run.op("a", simulator.run_episode, _episode(sc, L_on, seed, i, V), sc.model, units=L_on)
        if m is not None:
            online.append(m)
        chains += _run_lp_chains(run, [sc] * LOOP_LP_CHAINS_PER_ROUND)
        if chains[-1] is not None:
            policy = chains[-1][1]
            run.op("b", simulator.run_episode, _episode(sc, L_pb, seed, i, V, policy), sc.model, units=L_pb)

    _check_online(run, "i1", online)
    again = run.op("rerun", simulator.run_episode, _episode(sc, L_on, seed, 0, V), sc.model)
    run.gate(
        "i1: rerun is bit-identical",
        again is not None and online and again.total_phi_actual == online[0].total_phi_actual,
    )
    if online and chains[-1] is not None:
        phi_opt = chains[-1][0]
        s = simulator.summarize(online)
        slack = simulator.drift_constant(sc.model) / V
        run.gate(
            "i1: profit >= optimum - B/V",
            s.mean >= phi_opt - slack - 3 * s.se,
            f"{s.mean:.6g} vs {phi_opt:.6g} - {slack:.3g}",
        )
        run.notes.append(f"i1 profit {s.mean:.6g} (se {s.se:.3g}), optimum {phi_opt:.6g}")


# -- sim-decide ----------------------------------------------------------


def setup_sim_decide(rng, workdir, root, scale, tiny):
    n = _count(DECIDE_INSTANCES, scale, 2)
    return {
        "mid": [
            _write_and_load(instances.mid_instance(rng, f"mid{i}"), workdir) for i in range(n)
        ]
    }


def run_sim_decide(data, run: Run, seed, scale, tiny):
    mids = data["mid"]
    L = DECIDE_SLOTS // (10 if tiny else 1)
    online = []
    for i, sc in enumerate(mids):
        res = _run_lp_chains(run, [sc])[0]
        if i % DECIDE_EPISODE_STRIDE or res is None:
            continue
        m = run.op("a", simulator.run_episode, _episode(sc, L, seed, 0, sc.V), sc.model, units=L)
        if m is not None:
            online.append(m)
        run.op("b", simulator.run_episode, _episode(sc, L, seed, 0, sc.V, res[1]), sc.model, units=L)

    _check_online(run, "mid", online)
    sc = mids[0]
    again = run.op("rerun", simulator.run_episode, _episode(sc, L, seed, 0, sc.V), sc.model)
    run.gate(
        "mid: rerun is bit-identical",
        again is not None and online and again.total_phi_actual == online[0].total_phi_actual,
    )
    rep = run.op(
        "compare",
        simulator.check_profit_bound,
        sc.model, sc.process_x, sc.process_y, sc.V, COMPARE_HORIZON, COMPARE_REPLICATIONS, seed,
    )
    run.gate(
        f"{sc.name}: compare passes",
        rep is not None and rep.passed and rep.violations == 0,
        "" if rep is None else f"{rep.mean:.6g} vs {rep.phi_opt:.6g} - {rep.slack:.3g}",
    )


# -- oracle --------------------------------------------------------------


def setup_oracle(rng, workdir, root, scale, tiny):
    small = [
        _write_and_load(instances.small_instance(rng, i % 2 == 0, f"small{i}"), workdir)
        for i in range(_count(ORACLE_SMALL, scale, 2))
    ]
    frames = []  # one T-slot frame of a fresh mid instance's state trace each
    for i in range(_count(ORACLE_FRAMES, scale, 2)):
        sc = _write_and_load(instances.mid_instance(rng, f"mid{i}"), workdir)
        xs = processes.generate_states(sc.process_x, ORACLE_FRAME_T, rng).tolist()
        ys = processes.generate_states(sc.process_y, ORACLE_FRAME_T, rng).tolist()
        frames.append((sc, xs, ys))
    wide = {
        name: _write_and_load(instances.wide_instance(cost, name), workdir)
        for name, cost in (
            ("wide-ok", instances.WIDE_OK_COST),
            ("wide-fail", instances.WIDE_FAIL_COST),
        )
    }
    return {"small": small, "frames": frames, "wide": wide}


def _frame_optimum(model, xs, ys):
    """T * optimal_profit(empirical state distributions of the frame)."""
    pi_x = processes.empirical_distribution(np.asarray(xs), len(model.supply_states))
    pi_y = processes.empirical_distribution(np.asarray(ys), len(model.demand_states))
    return len(xs) * oracles.optimal_profit(model, pi_x, pi_y)[0]


def _frame(run: Run, sc, xs, ys) -> None:
    res = run.op("a", oracles.lookahead_value, sc.model, xs, ys)
    if res is None:
        return
    target = run.op("check", _frame_optimum, sc.model, xs, ys)
    if target is not None:
        ok = abs(res.phi_T - target) <= 1e-9 * (1.0 + abs(res.phi_T))
        run.gate("frame == T * stationary optimum", ok, f"{sc.name} {xs} {ys}")


def run_oracle(data, run: Run, seed, scale, tiny):
    small, frames = data["small"], list(data["frames"])
    # One frame after every `every` small instances, so that LP chains,
    # brute-force checks and frames all sample the whole run.
    every = max(1, len(small) // len(frames))
    for i, sc in enumerate(small):
        res = _run_lp_chains(run, [sc])[0]
        if res is not None and i % 2 == 0:  # made for the brute force
            bf = run.op("b", oracles.brute_force_opt, sc.model, *_stationary(sc))
            if bf is not None:
                run.gate("LP == brute force", abs(res[0] - bf.value) <= 1e-6, f"{sc.name}: {res[0]!r} vs {bf.value!r}")
        if i % every == every - 1 and frames:
            _frame(run, *frames.pop(0))
    for frame in frames:
        _frame(run, *frame)

    wide = data["wide"]
    res = run.op("wide", lp_chain, wide["wide-ok"].model, [1.0], [1.0])
    run.gate("wide-ok solves", res is not None)
    if res is not None:
        run.notes.append(f"wide-ok: value {res[0]:.9g} in {run.times['wide'][-1]:.3f} s")

    guard = getattr(simplex, "_MAX_ITER", None)
    if tiny and guard is not None:
        simplex._MAX_ITER = TINY_PIVOT_GUARD
        run.notes.append(f"wide-fail runs under pivot guard {TINY_PIVOT_GUARD} (--tiny)")
    try:
        res = run.op("wide-fail", lp_chain, wide["wide-fail"].model, [1.0], [1.0])
    finally:
        if tiny and guard is not None:
            simplex._MAX_ITER = guard
    if res is None:
        kind, exc, msg, secs = run.failures[-1]
        pivots = None if run.tracer is None else run.tracer.last_solve_pivots
        pivots = "n/a (counted only with --trace 1)" if pivots is None else pivots
        run.notes.append(f"wide-fail: FAILED {exc}: {msg} after {secs:.3f} s, pivots {pivots}")
    else:
        run.notes.append(f"wide-fail: value {res[0]:.9g} in {run.times['wide-fail'][-1]:.3f} s")


WORKLOADS = {
    "sim-loop": (setup_sim_loop, run_sim_loop),
    "sim-decide": (setup_sim_decide, run_sim_decide),
    "oracle": (setup_oracle, run_oracle),
}
