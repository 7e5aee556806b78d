"""Episode simulation, metrics and long-run bound checks.

run_episode plays one slot loop for both controllers.  A small setup per
controller hands the loop a decide(Q, x, y) function, the starting queues
with their fake-unit ledger, and the queue band:

* the online controller decides by decide_purchase and decide_pricing,
  pure functions of (queues, supply state, demand state) that read
  per-model tables, so the loop memoizes them per run, which keeps
  million-slot episodes cheap.  Its band is [mu_max, theta + A_max].
* oracle playback draws the purchase and the offers of a fixed stationary
  policy from the policy channel and has no band.

Every slot the loop draws the demand of the offered products, serves it in
full when the queues cover it and otherwise by schedule_fulfillment (a
short slot), updates the queues and records the drift 0.5 * sum (A -
used)^2 against its constant bound.  With a band, the loop verifies the
controller's guarantees slot by slot: the queues stay inside it and no
slot is short.

The check_* helpers run whole experiments: comparing the controller's mean
profit against the stationary optimum, against per-frame lookahead values
on arbitrary traces, and against the stationary optimum under
Markov-modulated states.  Monte Carlo comparisons carry a 3-standard-error
allowance; everything else is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from plantsim.controller import (
    ControllerState,
    InitOutOfRange,
    InvariantViolation,
    compute_theta,
    decide_pricing,
    decide_purchase,
    init_placeholder,
    init_state,
    make_params,
)
from plantsim.model import (
    Model,
    material_usage,
    purchase_cost,
    schedule_fulfillment,
)
from plantsim.oracles import OraclePolicy, lookahead_value, optimal_profit
from plantsim.processes import (
    IID,
    MARKOV,
    RngStream,
    StateProcessSpec,
    _cumulative,
    generate_states,
    stationary_distribution,
)

# Channel ids for the independent randomness streams of one episode.
_CH_X = 0
_CH_Y = 1
_CH_DEMAND = 2
_CH_POLICY = 3


@dataclass
class EpisodeConfig:
    """Everything needed to reproduce one episode bit for bit."""

    horizon: int
    seed: int
    V: float
    process_x: StateProcessSpec
    process_y: StateProcessSpec
    stream: int = 0
    controller: str = "online"
    oracle_policy: OraclePolicy | None = None
    placeholder: bool = False
    assembly_delay: bool = False
    demand_blind: bool = False
    theta: list[float] | None = None
    allow_unsafe_theta: bool = False
    Q0: list[int] | None = None
    check_bounds: bool = True
    record_log: bool = False


@dataclass
class Metrics:
    """Per-episode results and invariant accounting."""

    horizon: int
    seed: int
    stream: int
    total_phi: float
    total_phi_actual: float
    avg_phi: float
    avg_phi_actual: float
    q_min: list[int]
    q_max: list[int]
    q_lower_bound: list[int] | None
    q_upper_bound: list[float] | None
    drift_bound: float
    max_slot_drift: float
    bound_violations: int
    phi_mismatch_slots: int
    final_Q: list[int]
    fake: list[int]
    startup_cost: float
    log: list[tuple] | None = None

    @property
    def net_total_phi_actual(self) -> float:
        return self.total_phi_actual - self.startup_cost


class _UniformBuffer:
    """Chunked uniform variates, identical to sequential Generator.random calls.

    numpy generators fill batched requests from the same bit stream as
    repeated scalar calls, so pulling draws through this buffer in any
    grouping reproduces the plain call-by-call sequence.
    """

    _CHUNK = 1 << 15

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf: list[float] = []
        self._pos = 0

    def take(self, n: int) -> list[float]:
        pos = self._pos
        buf = self._buf
        if pos + n <= len(buf):
            self._pos = pos + n
            return buf[pos : pos + n]
        out = buf[pos:]
        need = n - len(out)
        while need > self._CHUNK:
            out.extend(self._rng.random(self._CHUNK).tolist())
            need -= self._CHUNK
        self._buf = self._rng.random(self._CHUNK).tolist()
        out.extend(self._buf[:need])
        self._pos = need
        return out


def drift_constant(model: Model) -> float:
    """Uniform bound on the per-slot drift 0.5 * sum (A[m] - used[m])^2."""
    cfg = model.cfg
    return 0.5 * sum(
        max(cfg.A_max[m] ** 2, model.mu_max[m] ** 2) for m in range(cfg.M)
    )


def run_episode(ec: EpisodeConfig, model: Model) -> Metrics:
    """Simulate one episode and return its metrics.

    With check_bounds set (the default) any breach of the controller's queue
    band or of full fulfillment raises InvariantViolation immediately;
    otherwise breaches are only counted, which supports deliberately unsafe
    threshold experiments.  Oracle playback has no band: its short slots are
    served by schedule_fulfillment and only counted as mismatches.
    """
    if ec.horizon <= 0:
        raise ValueError("horizon must be positive")
    if ec.controller not in ("online", "oracle"):
        raise ValueError(f"unknown controller {ec.controller!r}")
    if ec.controller == "oracle" and ec.oracle_policy is None:
        raise ValueError("oracle controller needs oracle_policy")
    cfg = model.cfg
    M, K = cfg.M, cfg.K
    d_max = cfg.D_max
    alpha = cfg.alpha
    prices = cfg.price_set
    # sell[yi][k][j]: what the loop needs to draw and book the demand of
    # product k offered at menu price j in demand state yi.
    sell = [
        [
            [
                (
                    k,
                    prices[k][j] - alpha[k],
                    y.F[k][j] / d_max[k],
                    d_max[k],
                    [(m, cfg.beta[m][k]) for m in range(M) if cfg.beta[m][k] > 0],
                )
                for j in range(len(prices[k]))
            ]
            for k in range(K)
        ]
        for y in model.demand_states
    ]
    rs = RngStream(ec.seed, ec.stream)
    online = ec.controller == "online"
    if online:
        decide, state, band = _online_setup(ec, model, sell)
    else:
        decide, state, band = _oracle_setup(ec, model, sell, rs)
    xs = generate_states(ec.process_x, ec.horizon, rs.generator(_CH_X)).tolist()
    ys = generate_states(ec.process_y, ec.horizon, rs.generator(_CH_Y)).tolist()
    dbuf = _UniformBuffer(rs.generator(_CH_DEMAND))

    # Without a band, infinite limits keep the per-material check branch-free.
    lo, hi = band or ([-math.inf] * M, [math.inf] * M)
    ids_x = [x.id for x in model.supply_states]
    ids_y = [y.id for y in model.demand_states]
    check = ec.check_bounds
    # Units sold from the assembly-delay product queues are re-assembled by
    # the end of the slot, so the queues always start full and only their
    # initial stock costs anything.
    startup = sum(d_max[k] * alpha[k] for k in range(K)) if ec.assembly_delay else 0.0

    max_bt = 0.0
    violations = 0
    mismatch = 0
    tphi = 0.0
    tphia = 0.0
    Q = list(state.Q)
    q_min = list(Q)
    q_max = list(Q)
    log: list[tuple] | None = [] if ec.record_log else None
    # Online decisions are pure functions of (Q, x, y); playback draws them.
    cache: dict | None = {} if online else None

    for t in range(ec.horizon):
        xi = xs[t]
        yi = ys[t]
        if cache is None:
            A, cost, Z, P, sells = decide(Q, xi, yi)
        else:
            key = (tuple(Q), xi, yi)
            entry = cache.get(key)
            if entry is None:
                entry = decide(Q, xi, yi)
                cache[key] = entry
            A, cost, Z, P, sells = entry

        phi = -cost
        used = [0] * M
        D = [0] * K
        for k, margin, pr, n, cols in sells:
            d = 0
            for u in dbuf.take(n):
                if u < pr:
                    d += 1
            if d:
                D[k] = d
                phi += d * margin
                for m, b in cols:
                    used[m] += b * d

        short = False
        for m in range(M):
            if used[m] > Q[m]:
                short = True
                break
        if short:
            if band is not None:
                if check:
                    raise InvariantViolation(
                        f"slot {t}: accepted demand exceeds stored material"
                    )
                violations += 1
            mismatch += 1
            d_tilde = schedule_fulfillment(Q, Z, P, D, cfg)
            phia = (
                sum(Z[k] * d_tilde[k] * (P[k] - alpha[k]) for k in range(K)) - cost
            )
            used = material_usage(d_tilde, cfg)
        else:
            phia = phi

        tphi += phi
        tphia += phia
        if log is not None:
            log.append(
                (
                    t,
                    ids_x[xi],
                    ids_y[yi],
                    tuple(Q),
                    tuple(A),
                    tuple(Z),
                    tuple(P),
                    tuple(D),
                    phi,
                    phia,
                    tphia / (t + 1),
                )
            )

        bt = 0.0
        for m in range(M):
            q = Q[m] - used[m] + A[m]
            diff = A[m] - used[m]
            bt += diff * diff
            Q[m] = q
            if q < q_min[m]:
                q_min[m] = q
            elif q > q_max[m]:
                q_max[m] = q
            if not lo[m] <= q <= hi[m]:
                if check:
                    raise InvariantViolation(
                        f"slot {t}: queue {m} left its band: {q} not in "
                        f"[{lo[m]}, {hi[m]}]"
                    )
                violations += 1
        bt *= 0.5
        if bt > max_bt:
            max_bt = bt

    return Metrics(
        horizon=ec.horizon,
        seed=ec.seed,
        stream=ec.stream,
        total_phi=tphi,
        total_phi_actual=tphia,
        avg_phi=tphi / ec.horizon,
        avg_phi_actual=tphia / ec.horizon,
        q_min=q_min,
        q_max=q_max,
        q_lower_bound=band[0] if band else None,
        q_upper_bound=band[1] if band else None,
        drift_bound=drift_constant(model),
        max_slot_drift=max_bt,
        bound_violations=violations,
        phi_mismatch_slots=mismatch,
        final_Q=list(Q),
        fake=list(state.fake),
        startup_cost=startup,
        log=log,
    )


def _check_blind_tables(model: Model) -> None:
    base = model.demand_states[0].F_hat
    for y in model.demand_states:
        if y.F_hat is None or y.h is None:
            raise ValueError(
                f"demand state {y.id!r} lacks the factorization needed for "
                "demand-blind pricing"
            )
        if y.F_hat != base:
            raise ValueError(
                "demand-blind pricing needs one shared base table across states"
            )


def _online_setup(ec: EpisodeConfig, model: Model, sell):
    """The online controller: its decide, starting state and queue band."""
    cfg = model.cfg
    K = cfg.K
    params = make_params(
        cfg,
        ec.V,
        theta=ec.theta,
        demand_blind=ec.demand_blind,
        allow_unsafe_theta=ec.allow_unsafe_theta,
    )
    if ec.demand_blind:
        _check_blind_tables(model)
    if ec.placeholder:
        Q0 = [0] * cfg.M if ec.Q0 is None else ec.Q0
        state = init_placeholder(cfg, params, Q0)
    else:
        state = init_state(cfg, params, ec.Q0)
    supply = model.supply_states
    demand = model.demand_states
    # offers[yi][k]: the sell entry of each menu price of product k
    offers = [[dict(zip(ps, s)) for ps, s in zip(cfg.price_set, row)] for row in sell]

    def decide(Q, xi, yi):
        x = supply[xi]
        A = decide_purchase(Q, x, params, cfg)
        Z, P = decide_pricing(Q, demand[yi], params, cfg)
        sells = [offers[yi][k][P[k]] for k in range(K) if Z[k]]
        return A, purchase_cost(A, x), Z, P, sells

    hi = [params.theta[m] + cfg.A_max[m] for m in range(cfg.M)]
    return decide, state, (list(model.mu_max), hi)


def _oracle_setup(ec: EpisodeConfig, model: Model, sell, rs: RngStream):
    """Playback of a stationary policy: its decide, starting state and band.

    decide takes 1 + K uniforms per slot from channel _CH_POLICY: the
    purchase draw, then each product's offer in ascending k.  There is no
    band and no fake unit; the queues start at Q0, by default mu_max, and
    a Q0 of the wrong length or with a negative entry raises InitOutOfRange.
    """
    cfg = model.cfg
    K = cfg.K
    policy = ec.oracle_policy
    buy = [
        (
            _cumulative([p for _, p in dist]),
            [(list(a), purchase_cost(list(a), x)) for a, _ in dist],
        )
        for x, dist in zip(model.supply_states, policy.purchase_dist)
    ]
    # offer[k][yi]: cumulative weights and (z, posted price, sell entry) per
    # option; a withheld product posts its lowest price.
    offer = [
        [
            (
                _cumulative([p for *_, p in dist]),
                [
                    (1, cfg.price_set[k][j], sell[yi][k][j])
                    if z
                    else (0, cfg.price_set[k][0], None)
                    for z, j, _ in dist
                ],
            )
            for yi, dist in enumerate(policy.price_dist[k])
        ]
        for k in range(K)
    ]
    take = _UniformBuffer(rs.generator(_CH_POLICY)).take

    def decide(Q, xi, yi):
        u = take(K + 1)
        cum, acts = buy[xi]
        A, cost = acts[bisect_right(cum, u[0])]
        Z = [0] * K
        P = [0.0] * K
        sells = []
        for k in range(K):
            cum, opts = offer[k][yi]
            Z[k], P[k], s = opts[bisect_right(cum, u[k + 1])]
            if s is not None:
                sells.append(s)
        return A, cost, Z, P, sells

    Q0 = list(model.mu_max if ec.Q0 is None else ec.Q0)
    if len(Q0) != cfg.M:
        raise InitOutOfRange("Q0 must have one entry per material")
    if min(Q0) < 0:
        raise InitOutOfRange(f"Q0 {Q0} has a negative entry")
    return decide, ControllerState(Q=Q0, fake=[0] * cfg.M), None


def run_replications(ec: EpisodeConfig, model: Model, n: int) -> list[Metrics]:
    """Run n independent replications differing only in their stream id."""
    if n < 1:
        raise ValueError(f"need at least 1 replication, got {n}")
    return [run_episode(replace(ec, stream=ec.stream + i), model) for i in range(n)]


@dataclass
class ReplicationSummary:
    n: int
    mean: float
    se: float
    per_rep: list[float]


def summarize(metrics: list[Metrics], net: bool = False) -> ReplicationSummary:
    """Mean and standard error of the replications' average realized profit."""
    vals = [
        (m.net_total_phi_actual if net else m.total_phi_actual) / m.horizon
        for m in metrics
    ]
    n = len(vals)
    mean = sum(vals) / n
    se = (
        math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1) / n)
        if n > 1
        else float("nan")
    )
    return ReplicationSummary(n=n, mean=mean, se=se, per_rep=vals)


def _need_replications(n: int) -> None:
    """Bound checks allow 3 standard errors, which take 2 runs to estimate."""
    if n < 2:
        raise ValueError(f"a bound check needs at least 2 replications, got {n}")


def lyapunov_value(Q0: list[int], theta: list[float]) -> float:
    """Quadratic distance of the initial queues from their thresholds."""
    return 0.5 * sum((q - th) ** 2 for q, th in zip(Q0, theta))


@dataclass
class ProfitBoundReport:
    """Long-run profit of the controller vs the stationary optimum."""

    phi_opt: float
    mean: float
    se: float
    slack: float
    violations: int
    n: int
    passed: bool


def check_profit_bound(
    model: Model,
    process_x: StateProcessSpec,
    process_y: StateProcessSpec,
    V: float,
    horizon: int,
    replications: int,
    seed: int,
) -> ProfitBoundReport:
    """Check mean profit >= stationary optimum - B/V within 3 standard errors.

    Needs state processes with a well-defined stationary distribution (IID
    probabilities or an ergodic Markov chain).
    """
    _need_replications(replications)
    pi_x = process_distribution(process_x)
    pi_y = process_distribution(process_y)
    phi_opt, _, _ = optimal_profit(model, pi_x, pi_y)
    ec = EpisodeConfig(
        horizon=horizon,
        seed=seed,
        V=V,
        process_x=process_x,
        process_y=process_y,
    )
    runs = run_replications(ec, model, replications)
    s = summarize(runs)
    slack = drift_constant(model) / V
    violations = sum(m.bound_violations for m in runs)
    passed = s.mean >= phi_opt - slack - 3 * s.se and violations == 0
    return ProfitBoundReport(
        phi_opt=phi_opt,
        mean=s.mean,
        se=s.se,
        slack=slack,
        violations=violations,
        n=replications,
        passed=passed,
    )


def process_distribution(spec: StateProcessSpec) -> np.ndarray:
    if spec.mode == IID:
        return np.asarray(spec.probs, dtype=float)
    if spec.mode == MARKOV:
        return stationary_distribution(spec)
    raise ValueError("trace processes have no stationary distribution")


@dataclass
class FrameBoundReport:
    """Controller profit vs per-frame lookahead values on a fixed trace."""

    frame_values: list[float]
    frame_mean: float
    drift_term: float
    init_term: float
    bound: float
    mean: float
    se: float
    passed: bool


def check_frame_bound(
    model: Model,
    xs,
    ys,
    V: float,
    T: int,
    J: int,
    replications: int = 16,
    seed: int = 0,
) -> FrameBoundReport:
    """Compare mean controller profit on a trace against frame lookaheads.

    The trace is split into J frames of T slots.  The controller's mean
    per-slot profit over the whole trace must reach the mean per-slot
    lookahead value minus B*T/V and minus the initial-condition term spread
    over the trace, within 3 standard errors of the replication mean.
    """
    xs = list(xs)
    ys = list(ys)
    if T < 1 or J < 1 or min(len(xs), len(ys)) < J * T:
        raise ValueError(f"frame split T={T} J={J} needs T, J >= 1 and J*T trace slots")
    _need_replications(replications)
    xs = xs[: J * T]
    ys = ys[: J * T]
    spec_x = StateProcessSpec(
        mode="TRACE", state_ids=[x.id for x in model.supply_states], trace=xs
    )
    spec_y = StateProcessSpec(
        mode="TRACE", state_ids=[y.id for y in model.demand_states], trace=ys
    )
    ec = EpisodeConfig(
        horizon=J * T, seed=seed, V=V, process_x=spec_x, process_y=spec_y
    )
    runs = run_replications(ec, model, replications)
    s = summarize(runs)

    frames = [
        lookahead_value(model, xs[j * T : (j + 1) * T], ys[j * T : (j + 1) * T]).phi_T
        for j in range(J)
    ]
    frame_mean = sum(frames) / (J * T)
    theta = compute_theta(model.cfg, V)
    q0 = model.mu_max
    drift_term = drift_constant(model) * T / V
    init_term = lyapunov_value(q0, theta) / (V * J * T)
    bound = frame_mean - drift_term - init_term
    passed = s.mean >= bound - 3 * s.se
    return FrameBoundReport(
        frame_values=frames,
        frame_mean=frame_mean,
        drift_term=drift_term,
        init_term=init_term,
        bound=bound,
        mean=s.mean,
        se=s.se,
        passed=passed,
    )


@dataclass
class MarkovBoundReport:
    """Controller profit under Markov states vs the discounted optimum."""

    phi_opt: float
    rhs: float
    mean: float
    se: float
    epsilon: float
    T: int
    passed: bool


def check_markov_bound(
    model: Model,
    process_x: StateProcessSpec,
    process_y: StateProcessSpec,
    V: float,
    epsilon: float,
    T: int,
    horizon: int,
    replications: int = 8,
    seed: int = 0,
) -> MarkovBoundReport:
    """Check the long-run profit bound under Markov-modulated states.

    The caller supplies the decaying-memory parameters (epsilon >= 0, T >= 1) they
    credit the chains with: over any window of T slots the conditional
    state distribution is assumed within epsilon of stationary.  The
    controller's long-run mean profit must then reach

        phi_opt - T*B/V - epsilon * (1 + sum_m max(theta[m], A_max[m]) / V)

    within 3 standard errors across replications.
    """
    if T < 1 or not 0 <= epsilon < math.inf:
        raise ValueError(f"need T >= 1 and finite epsilon >= 0, got {T}, {epsilon}")
    _need_replications(replications)
    pi_x = process_distribution(process_x)
    pi_y = process_distribution(process_y)
    phi_opt, _, _ = optimal_profit(model, pi_x, pi_y)
    theta = compute_theta(model.cfg, V)
    cfg = model.cfg
    spill = sum(max(theta[m], float(cfg.A_max[m])) for m in range(cfg.M))
    rhs = phi_opt - T * drift_constant(model) / V - epsilon * (1.0 + spill / V)
    ec = EpisodeConfig(
        horizon=horizon,
        seed=seed,
        V=V,
        process_x=process_x,
        process_y=process_y,
    )
    runs = run_replications(ec, model, replications)
    s = summarize(runs)
    passed = s.mean >= rhs - 3 * s.se
    return MarkovBoundReport(
        phi_opt=phi_opt,
        rhs=rhs,
        mean=s.mean,
        se=s.se,
        epsilon=epsilon,
        T=T,
        passed=passed,
    )


def log_header(model: Model) -> list[str]:
    cfg = model.cfg
    cols = ["t", "x_id", "y_id"]
    cols += [f"Q_{m + 1}" for m in range(cfg.M)]
    cols += [f"A_{m + 1}" for m in range(cfg.M)]
    cols += [f"Z_{k + 1}" for k in range(cfg.K)]
    cols += [f"P_{k + 1}" for k in range(cfg.K)]
    cols += [f"D_{k + 1}" for k in range(cfg.K)]
    cols += ["phi", "phi_actual", "avg_phi"]
    return cols


def write_slot_log(path: str, model: Model, metrics: Metrics) -> None:
    """Write the per-slot log as CSV with 9-significant-digit floats."""
    if metrics.log is None:
        raise ValueError("episode was run without record_log")
    with open(path, "w") as fh:
        fh.write(",".join(log_header(model)) + "\n")
        for t, xid, yid, Q, A, Z, P, D, phi, phia, avg in metrics.log:
            cells = [str(t), xid, yid]
            cells += [str(v) for v in Q]
            cells += [str(v) for v in A]
            cells += [str(v) for v in Z]
            cells += [f"{v:.9g}" for v in P]
            cells += [str(v) for v in D]
            cells += [f"{phi:.9g}", f"{phia:.9g}", f"{avg:.9g}"]
            fh.write(",".join(cells) + "\n")
