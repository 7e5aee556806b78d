"""Episode simulation, metrics and long-run bound checks.

run_episode plays one slot loop for both controllers.  A small setup per
controller hands the loop each slot's memo key, a decide(key) function
that makes the key's memo entry, the starting queues with their fake-unit
ledger, and the queue band:

* the online controller decides by decide_purchase and decide_pricing,
  pure functions of (queues, supply state, demand state), so its key is
  (Q, x, y).  Its band is controller.queue_band, [mu_max, theta + A_max].
* oracle playback draws the purchase and the offers of a fixed stationary
  policy from the policy channel; its key is (x, y) and the drawn option
  indices, which do not depend on the queues.  It has no band.

Every slot the loop draws the demand of the offered products, serves it in
full when the queues cover it and otherwise by schedule_fulfillment (a
short slot), updates the queues and records the drift 0.5 * sum (A -
used)^2 against its constant bound.  With a band, the loop verifies the
controller's guarantees slot by slot: the queues stay inside it and no
slot is short.  A breach raises InvariantViolation, or is only counted
when the run sets allow_unsafe_theta.

From its second use on, a memo entry also keeps an outcome table keyed by
the slot's demand code (each offered product's demand as one digit of
radix D_max[k] + 1): the profit, D and material use, none of which depend
on the queues.  An online entry starts from one Q, so once an outcome has
passed every check from there it also keeps the next queues, and a later
hit only books its profit and moves Q: the short-slot and band checks and
the queue-extreme and drift records it skips are functions of that
transition and were done.  This is what keeps million-slot episodes cheap.  Per run, each of
these counts is at most the horizon and at most
* online entries: the band's integer volume times |X| * |Y| (queues stay
  in the band unless a count-only unsafe run leaves it);
* outcomes per entry: the product of D_max[k] + 1;
* playback entries: |X| * |Y| times the number of option combinations.

The check_* helpers run whole experiments: check_profit_bound compares
the controller's mean profit against the stationary optimum, for i.i.d.
states or, given a mixing window and tolerance, Markov-modulated ones;
check_frame_bound compares it against per-frame lookahead values on
arbitrary traces.  Monte Carlo comparisons carry a 3-standard-error
allowance; everything else is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import gt

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
    queue_band,
)
from plantsim.model import (
    InputError,
    Model,
    material_usage,
    purchase_cost,
    schedule_fulfillment,
)
from plantsim.oracles import OraclePolicy, frame_values, optimal_profit
from plantsim.processes import (
    IID,
    MARKOV,
    TRACE,
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
# Demand uniforms are drawn this many at a time, playback's policy uniforms
# for this many slots at a time.  numpy generators fill batched requests
# from the same bit stream as repeated scalar calls, so any grouping of
# the draws reproduces the plain call-by-call sequence.
_CHUNK = 1 << 15


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


def drift_constant(model: Model) -> float:
    """Uniform bound on the per-slot drift 0.5 * sum (A[m] - used[m])^2."""
    cfg = model.cfg
    return 0.5 * sum(
        max(cfg.A_max[m] ** 2, model.mu_max[m] ** 2) for m in range(cfg.M)
    )


def _outcome(cost, sells, code: int, K: int, M: int) -> list:
    """[phi, next queues (None until linked), D, used] of a demand code."""
    D = [0] * K
    for k, _, _, n, _ in reversed(sells):
        code, D[k] = divmod(code, n + 1)
    phi = -cost
    used = [0] * M
    for k, margin, _, _, cols in sells:
        d = D[k]
        if d:
            phi += d * margin
            for m, b in cols:
                used[m] += b * d
    return [phi, None, D, used]


def run_episode(ec: EpisodeConfig, model: Model) -> Metrics:
    """Simulate one episode and return its metrics.

    A breach of the controller's queue band or of full fulfillment raises
    InvariantViolation immediately, unless the run sets allow_unsafe_theta:
    then breaches are only counted, which supports deliberately unsafe
    threshold experiments.  Oracle playback has no band: its short slots are
    served by schedule_fulfillment and only counted as mismatches.  It
    rejects the online-only settings placeholder, demand_blind, theta and
    allow_unsafe_theta rather than ignore them.  Decisions and outcomes are
    memoized as the module docstring says, with results bit-identical to
    checking every slot.
    """
    if ec.horizon <= 0:
        raise InputError("horizon must be positive")
    if ec.controller not in ("online", "oracle"):
        raise InputError(f"unknown controller {ec.controller!r}")
    if ec.controller == "oracle":
        if ec.oracle_policy is None:
            raise InputError("oracle controller needs oracle_policy")
        for name in ("placeholder", "demand_blind", "theta", "allow_unsafe_theta"):
            if getattr(ec, name) not in (None, False):
                raise InputError(f"oracle playback does not use {name}")
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
    if ec.controller == "online":
        picks, decide, state, band = _online_setup(ec, model, sell)
    else:
        picks, decide, state, band = _oracle_setup(ec, model, sell, rs)
    xs = generate_states(ec.process_x, ec.horizon, rs.generator(_CH_X)).tolist()
    ys = generate_states(ec.process_y, ec.horizon, rs.generator(_CH_Y)).tolist()
    keys = repeat(None) if picks is None else picks(xs, ys)
    demand = rs.generator(_CH_DEMAND)

    # Without a band, infinite limits keep the per-material check branch-free.
    lo, hi = band or ([-math.inf] * M, [math.inf] * M)
    ids_x = [x.id for x in model.supply_states]
    ids_y = [y.id for y in model.demand_states]
    check = not ec.allow_unsafe_theta
    # Units sold from the assembly-delay product queues are re-assembled by
    # the end of the slot, so the queues always start full and only their
    # initial stock costs anything.
    startup = sum(d_max[k] * alpha[k] for k in range(K)) if ec.assembly_delay else 0.0

    max_bt = 0.0
    violations = 0
    mismatch = 0
    tphi = 0.0
    tphia = 0.0
    Q = tuple(state.Q)
    q_min = list(Q)
    q_max = list(Q)
    log: list[tuple] | None = [] if ec.record_log else None
    # memo[key] = [A, cost, Z, P, sells, outcomes]; outcomes is made on the
    # entry's second use and maps a demand code to its _outcome.
    memo: dict = {}
    buf: list[float] = []
    pos = 0

    for t, (xi, yi, key) in enumerate(zip(xs, ys, keys)):
        if key is None:
            key = (Q, xi, yi)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = decide(key)
        elif entry[5] is None:
            entry[5] = {}
        A, cost, Z, P, sells, outcomes = entry

        # A first use books the draw as it goes; later uses look it up by its
        # demand code: each offered product's demand d as one digit of radix
        # D_max[k] + 1, the first product's the most significant.
        if outcomes is None:
            phi, nxt, D, used = -cost, None, [0] * K, [0] * M
        code = 0
        for k, margin, pr, n, cols in sells:
            end = pos + n
            if end > len(buf):
                buf = buf[pos:] + demand.random(max(_CHUNK, end - len(buf))).tolist()
                pos, end = 0, n
            d = 0
            for u in buf[pos:end]:
                if u < pr:
                    d += 1
            pos = end
            if outcomes is not None:
                code = code * (n + 1) + d
            elif d:
                D[k] = d
                phi += d * margin
                for m, b in cols:
                    used[m] += b * d
        if outcomes is not None:
            out = outcomes.get(code)
            if out is None:
                out = outcomes[code] = _outcome(cost, sells, code, K, M)
            phi, nxt, D, used = out

        # nxt is set once this transition passed every check below from Q.
        phia = phi
        if nxt is None:
            short = any(map(gt, used, Q))
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
                    sum(Z[k] * d_tilde[k] * (P[k] - alpha[k]) for k in range(K))
                    - cost
                )
                used = material_usage(d_tilde, cfg)

        tphi += phi
        tphia += phia
        if log is not None:
            log.append(
                (
                    t,
                    ids_x[xi],
                    ids_y[yi],
                    Q,
                    tuple(A),
                    tuple(Z),
                    tuple(P),
                    tuple(D),
                    phi,
                    phia,
                    tphia / (t + 1),
                )
            )
        if nxt is not None:
            Q = nxt
            continue

        Qn = list(Q)
        bt = 0.0
        clean = not short
        for m in range(M):
            diff = A[m] - used[m]
            bt += diff * diff
            q = Qn[m] + diff
            Qn[m] = q
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
                clean = False
        bt *= 0.5
        if bt > max_bt:
            max_bt = bt
        Q = tuple(Qn)
        # Only an online entry is keyed by the queues it starts from.
        if clean and picks is None and outcomes is not None:
            out[1] = Q

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
            raise InputError(
                f"demand state {y.id!r} lacks the factorization needed for "
                "demand-blind pricing"
            )
        if y.F_hat != base:
            raise InputError(
                "demand-blind pricing needs one shared base table across states"
            )


def _online_setup(ec: EpisodeConfig, model: Model, sell):
    """The online controller: no picks, its decide, starting state and band."""
    cfg = model.cfg
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

    def decide(key):
        Q, xi, yi = key
        x = supply[xi]
        A = decide_purchase(Q, x, params, cfg)
        Z, P = decide_pricing(Q, demand[yi], params, cfg)
        sells = [o[p] for o, z, p in zip(offers[yi], Z, P) if z]
        return [A, purchase_cost(A, x), Z, P, sells, None]

    return None, decide, state, queue_band(params, cfg)


def _oracle_setup(ec: EpisodeConfig, model: Model, sell, rs: RngStream):
    """Playback of a stationary policy: its picks, decide, starting state, band.

    picks(xs, ys) yields each slot's memo key (x, y, purchase option, offer
    option of each product), drawn with 1 + K uniforms per slot from channel
    _CH_POLICY: the purchase draw, then each product's offer in ascending k.
    There is no band and no fake unit; the queues start at Q0, by default
    mu_max, and a Q0 of the wrong length or with a negative entry raises
    InitOutOfRange.
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

    def picks(xs, ys):
        rng = rs.generator(_CH_POLICY)
        for t in range(0, len(xs), _CHUNK):
            x = np.asarray(xs[t : t + _CHUNK])
            y = np.asarray(ys[t : t + _CHUNK])
            u = rng.random((len(x), K + 1))
            cols = [_bisect_rows(buy, x, u[:, 0])]
            cols += [_bisect_rows(offer[k], y, u[:, k + 1]) for k in range(K)]
            yield from zip(x.tolist(), y.tolist(), *cols)

    def decide(key):
        xi, yi, i, *js = key
        A, cost = buy[xi][1][i]
        Z = [0] * K
        P = [0.0] * K
        sells = []
        for k, j in enumerate(js):
            Z[k], P[k], s = offer[k][yi][1][j]
            if s is not None:
                sells.append(s)
        return [A, cost, Z, P, sells, None]

    Q0 = list(model.mu_max if ec.Q0 is None else ec.Q0)
    if len(Q0) != cfg.M:
        raise InitOutOfRange("Q0 must have one entry per material")
    if min(Q0) < 0:
        raise InitOutOfRange(f"Q0 {Q0} has a negative entry")
    return picks, decide, ControllerState(Q=Q0, fake=[0] * cfg.M), None


def _bisect_rows(rows, states, u) -> list[int]:
    """bisect_right of each u in the cumulative weights of its state's row."""
    out = np.zeros(len(u), dtype=np.int64)
    for s, (cum, _) in enumerate(rows):
        sel = states == s
        out[sel] = np.searchsorted(cum, u[sel], side="right")
    return out.tolist()


def run_replications(ec: EpisodeConfig, model: Model, n: int) -> list[Metrics]:
    """Run n independent replications differing only in their stream id."""
    if n < 1:
        raise InputError(f"need at least 1 replication, got {n}")
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


def _bound_runs(
    model: Model,
    process_x: StateProcessSpec,
    process_y: StateProcessSpec,
    V: float,
    horizon: int,
    replications: int,
    seed: int,
) -> tuple[ReplicationSummary, int]:
    """Run a bound check's episodes: their summary and band violations.

    Bound checks allow 3 standard errors, which take 2 runs to estimate.
    """
    if replications < 2:
        raise InputError(
            f"a bound check needs at least 2 replications, got {replications}"
        )
    ec = EpisodeConfig(
        horizon=horizon, seed=seed, V=V, process_x=process_x, process_y=process_y
    )
    runs = run_replications(ec, model, replications)
    return summarize(runs), sum(m.bound_violations for m in runs)


@dataclass
class ProfitBoundReport:
    """Long-run profit of the controller vs the stationary optimum."""

    phi_opt: float
    rhs: float
    mean: float
    se: float
    slack: float
    epsilon: float
    T: int
    violations: int
    n: int
    passed: bool


def check_profit_bound(
    model: Model,
    process_x: StateProcessSpec,
    process_y: StateProcessSpec,
    V: float,
    horizon: int,
    replications: int = 8,
    seed: int = 0,
    epsilon: float = 0.0,
    T: int = 1,
) -> ProfitBoundReport:
    """Check the long-run profit bound of the T-slot drift argument.

    Needs state processes with a stationary distribution (IID probabilities
    or an ergodic Markov chain), credited with a mixing window T >= 1 and a
    tolerance epsilon >= 0: over any T slots the conditional state
    distribution is within epsilon of stationary.  Mean profit must reach

        rhs = phi_opt - T*B/V - epsilon * (1 + sum_m max(theta[m], A_max[m]) / V)

    within 3 standard errors, with no band violation; slack = phi_opt - rhs.
    The defaults T = 1, epsilon = 0 give the i.i.d. bound phi_opt - B/V.
    """
    if T < 1 or not 0 <= epsilon < math.inf:
        raise InputError(f"need T >= 1 and finite epsilon >= 0, got {T}, {epsilon}")
    pi_x = process_distribution(process_x)
    pi_y = process_distribution(process_y)
    phi_opt, _, _ = optimal_profit(model, pi_x, pi_y)
    # the runs check V before it divides the allowances below
    s, violations = _bound_runs(
        model, process_x, process_y, V, horizon, replications, seed
    )
    theta = compute_theta(model.cfg, V)
    spill = sum(max(th, float(a)) for th, a in zip(theta, model.cfg.A_max))
    drift = T * drift_constant(model) / V
    mixing = epsilon * (1.0 + spill / V)
    rhs = phi_opt - drift - mixing
    return ProfitBoundReport(
        phi_opt=phi_opt,
        rhs=rhs,
        mean=s.mean,
        se=s.se,
        slack=drift + mixing,
        epsilon=epsilon,
        T=T,
        violations=violations,
        n=replications,
        passed=s.mean >= rhs - 3 * s.se and violations == 0,
    )


def process_distribution(spec: StateProcessSpec) -> np.ndarray:
    if spec.mode == IID:
        return np.asarray(spec.probs, dtype=float)
    if spec.mode == MARKOV:
        return stationary_distribution(spec)
    raise InputError("trace processes have no stationary distribution")


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
    frames = frame_values(model, xs, ys, T, J)
    spec_x = StateProcessSpec(
        mode=TRACE,
        state_ids=[x.id for x in model.supply_states],
        trace=list(xs[: J * T]),
    )
    spec_y = StateProcessSpec(
        mode=TRACE,
        state_ids=[y.id for y in model.demand_states],
        trace=list(ys[: J * T]),
    )
    s, _ = _bound_runs(model, spec_x, spec_y, V, J * T, replications, seed)
    frame_mean = sum(frames) / (J * T)
    theta = compute_theta(model.cfg, V)
    drift_term = drift_constant(model) * T / V
    # the initial queues' quadratic distance from their thresholds
    lyapunov = 0.5 * sum((q - th) ** 2 for q, th in zip(model.mu_max, theta))
    init_term = lyapunov / (V * J * T)
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
        raise InputError("episode was run without record_log")
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
