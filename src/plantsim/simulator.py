"""Episode simulation, metrics and long-run bound checks.

run_episode runs the online controller through the slot loop and oracle
playback through the block driver.  A small setup per controller hands
them a decide function, the starting queues with their fake-unit ledger
and the queue band:

* the online controller decides by decide_purchase and decide_pricing,
  pure functions of (queues, supply state, demand state).  Its band is
  controller.queue_band, [mu_max, theta + A_max].
* oracle playback draws the purchase and the offers of a fixed stationary
  policy from the policy channel; its key is (x, y) and the drawn option
  indices, which do not depend on the queues.  It has no band.

Both share the rules of a slot.  Each offered product draws D_max[k]
uniforms from the demand channel, in slot order and ascending k, and its
demand is the count below its threshold.  _outcome books a demand code
under a decision; _Transitions.step serves a short slot (the queues do
not cover the demand) by schedule_fulfillment, updates the queues and
records the drift 0.5 * sum (A - used)^2 against its constant bound.
With a band, step verifies the controller's guarantees: the queues stay
inside it and no slot is short.  A breach raises InvariantViolation, or is
only counted when the run sets allow_unsafe_theta.

Both keep a decision table.  A decision (A, cost, Z, P, the offered
products' sell entries) is made once per (x, y, A, Z, P), or once per
playback key.  An online decision also carries the outcome table of its
demand codes, each offered product's demand as one digit of radix
D_max[k] + 1, mapped by _outcome to the profit, D, the material use and
the queue change, none of which depend on the queues; and its
signature's demand-code table (below).

The slot loop keeps a state table.  Inside a finite band the online
controller is a finite chain on (Q, x, y): its queues are one mixed-radix
integer q, the state code is s = (q * |X| + x) * |Y| + y, and the memo
maps s to its decision.  Once a transition from a revisited s under a
demand code has passed every check, its link s * n_code + code maps to
its outcome (n_code is the product of D_max[k] + 1); a first visit links
nothing, since most states of a run that misses the memo are never
revisited.  A linked slot only books the outcome's profit and adds its
change to q: the short-slot and band checks and the queue-extreme and
drift records it skips are functions of that transition and were done.
Queues outside the band have no code: their memo key is (Q, x * |Y| + y)
and they are never linked.

A slot's demand code depends only on its decision's signature, the
offered products' (threshold, D_max[k]) pairs in order, and on where the
slot starts in the demand stream.  The loop buffers the demand uniforms,
at least _CHUNK at a time, and keeps a code table per signature: the code
from every start in the buffer, computed in numpy and read with one list
index.  A table is built once revisited states have read its signature
_TABLE_AFTER times without a table of the current buffer.  It is dated by
the stream offset of the buffer's end, so a refill leaves the old tables
stale without touching them; a stale table is dropped on its next read.
A first visit, and a read without a table, counts the uniforms one by
one; a signature with no offer, one wider than _CHUNK or one whose codes
could outgrow int64 never gets a table.

The block driver plays up to _CHUNK slots, and at most 2**16 demand
uniforms, at a time: it draws the block's policy and demand uniforms,
makes each distinct decision once and books every slot with array
operations, _outcome's sums taken in the same order.  The queues follow
the start queues plus the cumulative queue change; only a short slot,
found by searching that path, goes through step, and its correction
offsets the path after it.  Totals are summed in slot order, so the
results equal the slot loop's bit for bit.

Per run, each of these counts is at most the horizon and at most
* online states: the band's integer volume times |X| * |Y|, plus the
  out-of-band (Q, x, y) of a count-only unsafe run;
* decisions: the states, or the playback keys;
* outcomes per online decision: the product of D_max[k] + 1 over offered
  products;
* links: the states times n_code;
* playback keys: |X| * |Y| times the number of option combinations.
The slot loop also holds the state index as an array, built in place of
the supply path, and as a list for _CHUNK slots, its demand buffer (as an
array and a list) and a code table of one entry per buffered uniform for
each tabled signature, until its first read after the next refill.
Playback keeps no outcomes; _play_blocks holds one block's arrays, a
few rows per slot and its demand uniforms.

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
from operator import gt, itemgetter, le, mul, sub

import numpy as np

from plantsim.controller import (
    ControllerState,
    InvariantViolation,
    check_start,
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
    check_int,
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
# The slot loop draws demand uniforms this many at a time, counts a
# product with a larger D_max in numpy and reads its state index this many
# slots at a time; the block driver plays at most this many slots at a
# time.  numpy generators fill batched requests from the same bit stream as
# repeated scalar calls, so any grouping of the draws reproduces the plain
# call-by-call sequence.
_CHUNK = 1 << 12
# The slot loop tables a signature on its this-many-th read without a table
# of the current buffer.  A build costs about as much as counting 100 slots
# one by one, so a signature read only a few times per buffer is cheaper to
# count.
_TABLE_AFTER = 8


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


def _outcome(dec, code: int, K: int, radix: list) -> tuple:
    """(phi, D, used, A - used, drift, dq) of a demand code under a decision.

    The last three are the queue change, the drift 0.5 * sum (A - used)^2
    and the change dq of the state code q of a slot that is not short.
    The slot loop books a slot by it; playback's array booking
    (_block_book) must equal it.
    """
    A, cost, _, _, sells = dec[:5]
    M = len(radix)
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
    diff, bt = _change(A, used)
    return phi, tuple(D), tuple(used), diff, bt, sum(map(mul, diff, radix))


def _change(A, used) -> tuple:
    """The queue change A - used and its drift."""
    diff = tuple(map(sub, A, used))
    return diff, 0.5 * sum(map(mul, diff, diff), 0.0)


class _Transitions:
    """The checked transitions of one run, its state codes and its records.

    step runs a slot that has no link.  Inside a finite band, queues Q have
    the code q = sum (Q[m] - lo[m]) * radix[m], where radix[m] is the
    product of the band's integer widths below m; other queues have none.
    """

    def __init__(self, cfg, band, check: bool, Q: tuple) -> None:
        M = cfg.M
        self.cfg = cfg
        self.banded = band is not None
        self.lo, self.hi = band or (None, None)
        self.coded = self.banded and all(map(math.isfinite, self.hi))
        lo, hi = band if self.coded else ([0] * M, [0] * M)
        self.width = [math.floor(b) - a + 1 for a, b in zip(lo, hi)]
        self.radix = [math.prod(self.width[:m]) for m in range(M)]
        self.offset = -sum(map(mul, lo, self.radix))
        self.check = check
        self.q_min = list(Q)
        self.q_max = list(Q)
        self.max_bt = 0.0
        self.violations = 0
        self.mismatch = 0

    def encode(self, Q) -> int | None:
        """The code of queues Q, or None if they have none."""
        inside = self.coded and all(map(le, self.lo, Q)) and all(map(le, Q, self.hi))
        return self.offset + sum(map(mul, Q, self.radix)) if inside else None

    def decode(self, q: int) -> tuple:
        """The queues of code q."""
        Q = []
        for a, w in zip(self.lo, self.width):
            q, r = divmod(q, w)
            Q.append(a + r)
        return tuple(Q)

    def step(self, t: int, Q: tuple, dec, out) -> tuple:
        """(next Q, its code or None, phi_actual, clean) of slot t from Q.

        A short slot is served by schedule_fulfillment; a short slot or a
        band breach raises InvariantViolation, or is counted in a count-only
        run.  clean is true when neither happened, so the transition may be
        linked.
        """
        phia, _, used, diff, bt, _ = out
        short = any(map(gt, used, Q))
        if short:
            if self.banded:
                if self.check:
                    raise InvariantViolation(
                        f"slot {t}: accepted demand exceeds stored material"
                    )
                self.violations += 1
            self.mismatch += 1
            cfg = self.cfg
            A, cost, Z, P = dec[:4]
            d_tilde = schedule_fulfillment(Q, Z, P, out[1], cfg)
            alpha = cfg.alpha
            phia = (
                sum(Z[k] * d_tilde[k] * (P[k] - alpha[k]) for k in range(cfg.K))
                - cost
            )
            diff, bt = _change(A, material_usage(d_tilde, cfg))

        lo, hi, q_min, q_max = self.lo, self.hi, self.q_min, self.q_max
        banded = self.banded
        Qn = list(Q)
        inside = self.coded
        for m in range(len(Qn)):
            q = Qn[m] + diff[m]
            Qn[m] = q
            if q < q_min[m]:
                q_min[m] = q
            elif q > q_max[m]:
                q_max[m] = q
            if banded and not lo[m] <= q <= hi[m]:
                if self.check:
                    raise InvariantViolation(
                        f"slot {t}: queue {m} left its band: {q} not in "
                        f"[{lo[m]}, {hi[m]}]"
                    )
                self.violations += 1
                inside = False
        if bt > self.max_bt:
            self.max_bt = bt
        if not inside:
            return tuple(Qn), None, phia, False
        return tuple(Qn), self.offset + sum(map(mul, Qn, self.radix)), phia, not short


def _sell_table(model: Model) -> list:
    """sell[yi][k][j]: draw and booking data of product k at price j in state yi."""
    cfg = model.cfg
    beta, d_max, prices = cfg.beta, cfg.D_max, cfg.price_set
    return [
        [
            [
                (
                    k,
                    p - cfg.alpha[k],
                    f / d_max[k],
                    d_max[k],
                    [(m, row[k]) for m, row in enumerate(beta) if row[k] > 0],
                )
                for p, f in zip(prices[k], y.F[k])
            ]
            for k in range(cfg.K)
        ]
        for y in model.demand_states
    ]


def run_episode(ec: EpisodeConfig, model: Model) -> Metrics:
    """Simulate one episode and return its metrics.

    A breach of the controller's queue band or of full fulfillment raises
    InvariantViolation immediately, unless the run sets allow_unsafe_theta:
    then breaches are only counted, which supports deliberately unsafe
    threshold experiments.  Oracle playback has no band: its short slots are
    served by schedule_fulfillment and only counted as mismatches.  It
    rejects the online-only settings placeholder, demand_blind, theta and
    allow_unsafe_theta rather than ignore them, as an online run rejects
    oracle_policy.  The online controller runs the slot loop, playback the
    block driver; both keep the tables the module docstring describes, with
    results bit-identical to checking every slot.
    """
    check_int("horizon", ec.horizon, 1)
    if ec.controller not in ("online", "oracle"):
        raise InputError(f"unknown controller {ec.controller!r}")
    if ec.controller == "oracle":
        if ec.oracle_policy is None:
            raise InputError("oracle controller needs oracle_policy")
        for name in ("placeholder", "demand_blind", "theta", "allow_unsafe_theta"):
            if getattr(ec, name) not in (None, False):
                raise InputError(f"oracle playback does not use {name}")
    elif ec.oracle_policy is not None:
        raise InputError("the online controller does not use oracle_policy")
    cfg = model.cfg
    sell = _sell_table(model)
    rs = RngStream(ec.seed, ec.stream)
    online = ec.controller == "online"
    if online:
        decide, state, band = _online_setup(ec, model, sell)
    else:
        pick, decide, state, band = _oracle_setup(ec, model, sell)
    xs = generate_states(ec.process_x, ec.horizon, rs.generator(_CH_X))
    ys = generate_states(ec.process_y, ec.horizon, rs.generator(_CH_Y))
    # Units sold from the assembly-delay product queues are re-assembled by
    # the end of the slot, so the queues always start full and only their
    # initial stock costs anything.
    startup = sum(map(mul, cfg.D_max, cfg.alpha)) if ec.assembly_delay else 0.0
    Q = tuple(state.Q)
    run = _Transitions(cfg, band, not ec.allow_unsafe_theta, Q)
    log: list[tuple] | None = [] if ec.record_log else None
    if online:
        # the slot loop reads one state index x * |Y| + y per slot
        xs *= len(model.demand_states)
        xs += ys
        del ys
        tphi, tphia, Q = _slot_loop(model, decide, run, Q, xs, rs, log)
    else:
        tphi, tphia, Q = _play_blocks(model, pick, decide, run, Q, xs, ys, rs, log)

    return Metrics(
        horizon=ec.horizon,
        seed=ec.seed,
        stream=ec.stream,
        total_phi=tphi,
        total_phi_actual=tphia,
        avg_phi=tphi / ec.horizon,
        avg_phi_actual=tphia / ec.horizon,
        q_min=run.q_min,
        q_max=run.q_max,
        q_lower_bound=band[0] if band else None,
        q_upper_bound=band[1] if band else None,
        drift_bound=drift_constant(model),
        max_slot_drift=run.max_bt,
        bound_violations=run.violations,
        phi_mismatch_slots=run.mismatch,
        final_Q=list(Q),
        fake=list(state.fake),
        startup_cost=startup,
        log=log,
    )


def _slot_loop(model: Model, decide, run: _Transitions, Q, states, rs, log) -> tuple:
    """The online controller, one slot at a time: (tphi, tphia, final Q).

    states holds each slot's state index s = x * |Y| + y; the loop reads
    it as a list, _CHUNK slots at a time.  A slot's demand code is counted
    one uniform at a time on a first visit to its state; a revisited state
    reads it from its signature's code table (_code_table) once the
    signature has one.  A linked slot then books the stored outcome of its
    transition and moves q, without decoding the queues.
    """
    K = model.cfg.K
    ids_x = [x.id for x in model.supply_states]
    ids_y = [y.id for y in model.demand_states]
    n_y = len(ids_y)
    n_s = len(ids_x) * n_y
    demand = rs.generator(_CH_DEMAND)
    tphi = 0.0
    tphia = 0.0
    # Q is the queue tuple, or None after a link until a slot needs it; q
    # is its state code, or None outside a finite band.
    q = run.encode(Q)
    memo: dict = {}  # state code or out-of-band (Q, s) -> decision
    links: dict = {}  # s * n_code + demand code -> outcome, per checked revisit
    n_code = math.prod(n + 1 for n in model.cfg.D_max)
    # The demand buffer, as an array for the code tables and a list to
    # count; drawn is the stream offset of its end, which dates the tables.
    arr = np.empty(0)
    buf: list[float] = []
    pos = drawn = 0

    for t0 in range(0, len(states), _CHUNK):
        for t, s in enumerate(states[t0 : t0 + _CHUNK].tolist(), t0):
            key = (Q, s) if q is None else q * n_s + s
            dec = memo.get(key)
            revisit = dec is not None
            code = -1
            if not revisit:
                if Q is None:
                    Q = run.decode(q)
                dec = memo[key] = decide(Q, *divmod(s, n_y))
            elif dec[6] is not None:
                tab = dec[6]
                if tab[0] == drawn:
                    code = tab[1][pos]
                else:
                    tab[1] = None  # built before the last refill
                if code < 0:
                    # No table of this buffer, or the slot's uniforms cross
                    # its end: the signature is tabled on its
                    # _TABLE_AFTER-th such read.
                    tab[3] += 1
                    if tab[3] >= _TABLE_AFTER:
                        if pos + tab[2] > len(buf):
                            arr, buf, pos, drawn = _refill(arr, buf, pos, drawn, demand)
                        tab[:] = drawn, _code_table(arr, pos, dec[4]), tab[2], 0
                        code = tab[1][pos]
            if code >= 0:
                pos += tab[2]
            else:
                # Each offered product's demand d as one digit of radix
                # D_max[k] + 1, the first product's the most significant.
                code = 0
                for _, _, pr, n, _ in dec[4]:
                    end = pos + n
                    d = 0
                    if end > len(buf):
                        if n > _CHUNK:
                            # counted in numpy, over the same uniforms
                            rest = demand.random(end - len(buf))
                            drawn += len(rest)
                            d = int(np.count_nonzero(arr[pos:] < pr))
                            d += int(np.count_nonzero(rest < pr))
                            arr, buf, pos, end = arr[:0], [], 0, 0
                        else:
                            arr, buf, pos, drawn = _refill(arr, buf, pos, drawn, demand)
                            end = n
                    for u in buf[pos:end]:
                        if u < pr:
                            d += 1
                    pos = end
                    code = code * (n + 1) + d

            out = None if q is None else links.get(key * n_code + code)
            if out is not None:
                phi = phia = out[0]
                Qn, nq = None, q + out[5]
            else:
                outcomes = dec[5]
                out = outcomes.get(code)
                if out is None:
                    out = outcomes[code] = _outcome(dec, code, K, run.radix)
                if Q is None:
                    Q = run.decode(q)
                Qn, nq, phia, clean = run.step(t, Q, dec, out)
                if clean and revisit and q is not None:
                    links[key * n_code + code] = out
                phi = out[0]
            tphi += phi
            tphia += phia
            if log is not None:
                if Q is None:
                    Q = run.decode(q)
                xi, yi = divmod(s, n_y)
                A, _, Z, P = dec[:4]
                row = (tuple(A), tuple(Z), tuple(P), tuple(out[1]), phi, phia)
                log.append((t, ids_x[xi], ids_y[yi], Q, *row, tphia / (t + 1)))
            Q, q = Qn, nq
    return tphi, tphia, run.decode(q) if Q is None else Q


def _refill(arr: np.ndarray, buf: list, pos: int, drawn: int, rng) -> tuple:
    """The demand buffer from pos on, with _CHUNK fresh uniforms drawn.

    Returns it as an array and a list, its start position 0 and the stream
    offset of its new end.
    """
    fresh = rng.random(_CHUNK)
    buf = buf[pos:] + fresh.tolist()
    return np.concatenate((arr[pos:], fresh)), buf, 0, drawn + _CHUNK


def _code_table(arr: np.ndarray, pos: int, sells) -> list:
    """codes[p]: the demand code of sells from each start p >= pos of arr.

    The code from start p is the slot loop's: product j of sells, with
    threshold pr and D_max n, counts the uniforms below pr in its window
    of n after the windows of the products before it, as one digit of
    radix n + 1.  Starts before pos, and those whose windows run past the
    end of arr, hold -1.  The codes must fit in int64 (_online_setup).
    """
    u = arr[pos:]
    width = sum(n for *_, n, _ in sells)
    starts = len(u) - width + 1
    code = np.zeros(starts, dtype=np.int64)
    hits = np.zeros(len(u) + 1, dtype=np.int64)
    off = 0
    for _, _, pr, n, _ in sells:
        np.cumsum(u < pr, out=hits[1:])
        code *= n + 1
        code += hits[off + n : off + n + starts]
        code -= hits[off : off + starts]
        off += n
    return [-1] * pos + code.tolist() + [-1] * width


def _play_blocks(
    model: Model, pick, decide, run: _Transitions, Q, xs, ys, rs, log
) -> tuple:
    """Oracle playback, a block of slots at a time: (tphi, tphia, final Q).

    A playback decision depends only on its slot's states and policy draws,
    and the demand only on the decision, so a block draws and decides all
    its slots at once and books them in arrays (_block_book), from the same
    draws as one slot at a time.  The queues follow Q plus the cumulative
    queue change; only short slots go through run.step (_block_queues).
    """
    cfg = model.cfg
    K = cfg.K
    ids_x = [x.id for x in model.supply_states]
    ids_y = [y.id for y in model.demand_states]
    policy = rs.generator(_CH_POLICY)
    demand = rs.generator(_CH_DEMAND)
    # A block holds at most 2**16 demand uniforms, however large D_max is.
    # Queues that could outgrow int64, or queue changes whose squares
    # could, stay Python integers.
    size = min(_CHUNK, max(1, 2**16 // sum(cfg.D_max)))
    change = max(*cfg.A_max, *model.mu_max)
    reach = max(Q) + len(xs) * change
    int_t = np.int64 if reach < 2**62 and change < 2**31 else object
    beta = np.array(cfg.beta, dtype=int_t)
    memo: dict = {}  # playback key -> decision
    tphi = 0.0
    tphia = 0.0
    for t0 in range(0, len(xs), size):
        x, y = xs[t0 : t0 + size], ys[t0 : t0 + size]
        u = policy.random((len(x), K + 1))
        decs, slot_dec = _block_decisions(pick(x, y, u), decide, memo)
        book = _block_book(decs, slot_dec, demand, beta)
        start = Q
        Q, after, stepped = _block_queues(run, t0, Q, decs, slot_dec, book)
        phi, D = book[:2]
        phia = phi.copy()
        if stepped:
            phia[list(stepped)] = list(stepped.values())
        # np.cumsum adds in slot order, as the slot loop does; np.sum would not
        ctot = np.cumsum(np.concatenate(([tphi], phi)))
        ctota = np.cumsum(np.concatenate(([tphia], phia)))
        tphi, tphia = float(ctot[-1]), float(ctota[-1])
        if log is not None:
            avg = (ctota[1:] / np.arange(t0 + 1, t0 + len(x) + 1)).tolist()
            starts = [start, *map(tuple, after[:-1].tolist())]
            rows = zip(x.tolist(), y.tolist(), slot_dec.tolist(), D.tolist(), phi.tolist())
            for i, (xi, yi, j, d, p) in enumerate(rows):
                A, cost, Z, P, _ = decs[j]
                # a slot with no sale books -cost as _outcome does, an int
                # under an integer cost
                p = p if any(d) else -cost
                row = (tuple(A), tuple(Z), tuple(P), tuple(d), p, stepped.get(i, p))
                log.append((t0 + i, ids_x[xi], ids_y[yi], starts[i], *row, avg[i]))
    return tphi, tphia, Q


def _block_decisions(keys: np.ndarray, decide, memo: dict) -> tuple:
    """(decisions, each slot's decision) of a block's playback keys.

    Each distinct key is decided once per run and kept in memo.
    """
    first, slot_dec = _distinct(keys)
    decs = []
    for key in map(tuple, keys[first].tolist()):
        dec = memo.get(key)
        if dec is None:
            dec = memo[key] = decide(key)
        decs.append(dec)
    return decs, slot_dec


def _block_book(decs: list, slot_dec, rng, beta: np.ndarray) -> tuple:
    """(phi, D, used, A - used, drift) of each slot of a block, as arrays.

    As in the slot loop, each offered product k takes D_max[k] uniforms
    from rng, in slot order and ascending k, and its demand is the count
    below its threshold: read row by row, the (slot, product) grid is that
    order when a withheld product takes no uniform.  The rest equal
    _outcome's, bit for bit.  phi starts at -cost and adds D[k] * margin
    for each product in ascending k, where a product with no demand adds
    -0.0: that leaves every float as it is, sign of zero included, as
    _outcome's skip does.  The drift 0.5 * sum (A - used)^2 adds the
    squares in _change's order.  The integer arrays take beta's dtype,
    object where int64 could overflow (_play_blocks).
    """
    M, K = beta.shape
    bought, width, terms = [], [], []  # A; widths; -cost, margins, thresholds
    for A, cost, _, _, sells in decs:
        # -cost is negated before the conversion, so an integer cost of 0
        # starts at 0.0 as it does in _outcome, where -0 is the int 0
        w, f = [0] * K, [-cost] + [0.0] * (2 * K)
        for k, margin, pr, n, _ in sells:
            w[k], f[1 + k], f[1 + K + k] = n, margin, pr
        bought.append(A)
        width.append(w)
        terms.append(f)
    terms = np.array(terms, dtype=float)[slot_dec]
    width = np.array(width, dtype=np.int64)[slot_dec].ravel()
    hits = np.zeros(width.sum() + 1, dtype=np.int64)
    below = rng.random(len(hits) - 1) < np.repeat(terms[:, 1 + K :], width)
    np.cumsum(below, out=hits[1:])
    end = np.cumsum(width)
    D = (hits[end] - hits[end - width]).reshape(-1, K)
    used = D @ beta.T
    diff = np.array(bought, dtype=beta.dtype)[slot_dec] - used
    phi = terms[:, 0]
    for k in range(K):
        d = D[:, k]
        phi += np.where(d != 0, d * terms[:, 1 + k], -0.0)
    bt = 0.0
    for m in range(M):
        bt = bt + diff[:, m] * diff[:, m]
    return phi, D, used, diff, 0.5 * bt


def _block_queues(run: _Transitions, t0, Q, decs, slot_dec, book) -> tuple:
    """(final Q, the queues after each slot, phi_actual of each stepped slot).

    The booked queue path is Q plus the cumulative queue change A - used
    of the booking.  A slot is short when the queues it starts from hold
    less than it uses, as in run.step.  The next short slot is searched in
    windows that double and runs through run.step alone; the queues after
    it less the booked ones are a correction that offsets the path from
    there on.  The other slots are booked into run's extremes and drift
    record here.
    """
    phi, D, used, diff, bt = book
    n, int_t = len(diff), diff.dtype
    path = np.cumsum(diff, axis=0)
    path += np.array(Q, dtype=int_t)
    # low[i] is slot i's booked start queues less its use; under the
    # correction so far, c, slot i is short where low[i] < lim = -c.
    low = path - diff - used
    lim = np.zeros(len(Q), dtype=int_t)
    fixes: dict = {}  # stepped slot -> the correction it adds
    stepped: dict = {}  # stepped slot -> phi_actual
    i, w = 0, 32
    while i < n:
        short = low[i : i + w] < lim
        f = int(short.argmax())  # the first short (slot, material), flat
        if not short.flat[f]:
            i, w = i + w, 2 * w
            continue
        i += f // len(Q)
        start = Q if i == 0 else tuple((path[i - 1] - lim).tolist())
        out = (phi[i], tuple(D[i].tolist()), tuple(used[i].tolist()), diff[i], bt[i], 0)
        Qn, _, stepped[i], _ = run.step(t0 + i, start, decs[slot_dec[i]], out)
        fix = path[i] - Qn  # the next lim
        fixes[i] = lim - fix
        lim = fix
        i, w = i + 1, 32

    if stepped:
        corr = np.zeros_like(path)
        corr[list(fixes)] = list(fixes.values())
        path += np.cumsum(corr, axis=0)
        bt = np.delete(bt, list(stepped))
    if len(bt):
        run.max_bt = max(run.max_bt, float(bt.max()))
    run.q_min[:] = map(min, run.q_min, path.min(axis=0).tolist())
    run.q_max[:] = map(max, run.q_max, path.max(axis=0).tolist())
    return tuple(path[-1].tolist()), path, stepped


def _distinct(rows: np.ndarray) -> tuple:
    """(first, inverse) of the distinct rows of a non-negative integer array.

    first[j] is a row index of distinct row j and inverse[t] the distinct
    row of row t.  Each row is packed into one integer, a Python one when
    int64 cannot hold it.
    """
    radix = (rows.max(axis=0) + 1).tolist()
    if math.prod(radix) > 2**63:
        rows = rows.astype(object)
    key = rows[:, 0]
    for c, r in zip(rows.T[1:], radix[1:]):
        key = key * r + c
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


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
    """The online controller: its decide, starting state and band."""
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

    decisions: dict = {}
    tables: dict = {}  # signature -> its demand-code table
    pr_n = itemgetter(2, 3)  # a sell entry's (threshold, D_max)

    def decide(Q, xi, yi):
        x = supply[xi]
        A = decide_purchase(Q, x, params, cfg)
        Z, P = decide_pricing(Q, demand[yi], params, cfg)
        dkey = (xi, yi, *A, *Z, *P)
        dec = decisions.get(dkey)
        if dec is None:
            sells = [o[p] for o, z, p in zip(offers[yi], Z, P) if z]
            # the demand-code table of the offers' (threshold, D_max) pairs:
            # [stream offset it was built at, codes, width, reads without
            # it], or None where the slot loop always counts: no offer, an
            # offer wider than _CHUNK, or codes that could outgrow int64
            sig = tuple(map(pr_n, sells))
            if sig not in tables:
                width = sum(n for _, n in sig)
                n_sig = math.prod(n + 1 for _, n in sig)
                tabled = 0 < width <= _CHUNK and n_sig <= 2**62
                tables[sig] = [-1, None, width, 0] if tabled else None
            tab = tables[sig]
            dec = decisions[dkey] = (A, purchase_cost(A, x), Z, P, sells, {}, tab)
        return dec

    return decide, state, queue_band(params, cfg)


def _oracle_setup(ec: EpisodeConfig, model: Model, sell):
    """Playback of a stationary policy: its pick, decide, starting state, band.

    pick(x, y, u) gives the playback key (x, y, purchase option, offer option
    of each product) of each slot of a block, from the slots' states and
    their 1 + K uniforms u of channel _CH_POLICY: the purchase draw, then
    each product's offer in ascending k.  decide makes the key's decision.
    There is no band and no fake unit; the queues start at Q0, by default
    mu_max, and the start rule check_start asks only for non-negative integers.
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

    buy_cum = _weight_table([cum for cum, _ in buy])
    offer_cum = [_weight_table([cum for cum, _ in rows]) for rows in offer]

    def pick(x, y, u):
        cols = [x, y, _bisect_rows(buy_cum, x, u[:, 0])]
        cols += [_bisect_rows(c, y, u[:, k + 1]) for k, c in enumerate(offer_cum)]
        return np.column_stack(cols)

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
        return A, cost, Z, P, sells

    Q0 = model.mu_max if ec.Q0 is None else ec.Q0
    Q0 = check_start("Q0", Q0, [0] * cfg.M, [math.inf] * cfg.M)
    return pick, decide, ControllerState(Q=Q0, fake=[0] * cfg.M), None


def _weight_table(cums: list) -> np.ndarray:
    """Rows of cumulative weights as one array, each padded with inf."""
    table = np.full((len(cums), max(map(len, cums))), np.inf)
    for s, cum in enumerate(cums):
        table[s, : len(cum)] = cum
    return table


def _bisect_rows(table: np.ndarray, states, u) -> np.ndarray:
    """bisect_right of each u in row states[i] of a _weight_table.

    A row's weights never decrease, so bisect_right is the count of those
    at most u; the inf padding, like _cumulative's inf last bucket, counts
    for no finite u.
    """
    return np.count_nonzero(table[states] <= u[:, None], axis=1)


def run_replications(ec: EpisodeConfig, model: Model, n: int) -> list[Metrics]:
    """Run n replications differing only in their stream id; the first keeps its log."""
    n = check_int("n", n, 1, message=f"need at least 1 replication, got {n!r}")
    log = ec.record_log  # one log only, however many replications
    return [
        run_episode(replace(ec, stream=ec.stream + i, record_log=log and not i), model)
        for i in range(n)
    ]


@dataclass
class ReplicationSummary:
    n: int
    mean: float
    se: float


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
    return ReplicationSummary(n=n, mean=mean, se=se)


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
    message = f"a bound check needs at least 2 replications, got {replications!r}"
    check_int("replications", replications, 2, message=message)
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
    init_term: float
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
    The report also gives the finite-horizon term init_term = L(mu_max) /
    (V * horizon) of the runs' start, which a finite run may fall short by
    (check_frame_bound subtracts it); the check does not use it.
    """
    message = f"need an integer T >= 1 and finite epsilon >= 0, got {T!r}, {epsilon!r}"
    check_int("T", T, 1, message=message)
    if not 0 <= epsilon < math.inf:
        raise InputError(message)
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
        init_term=_lyapunov(model, theta) / (V * horizon),
        epsilon=epsilon,
        T=T,
        violations=violations,
        n=replications,
        passed=s.mean >= rhs - 3 * s.se and violations == 0,
    )


def _lyapunov(model: Model, theta) -> float:
    """L(mu_max) = 0.5 * sum (mu_max - theta)^2 of a bound run's start."""
    return 0.5 * sum((q - th) ** 2 for q, th in zip(model.mu_max, theta))


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
    ids = ([x.id for x in model.supply_states], [y.id for y in model.demand_states])
    spec_x, spec_y = (
        StateProcessSpec(mode=TRACE, state_ids=i, trace=list(v[: J * T]))
        for i, v in zip(ids, (xs, ys))
    )
    s, _ = _bound_runs(model, spec_x, spec_y, V, J * T, replications, seed)
    frame_mean = sum(frames) / (J * T)
    theta = compute_theta(model.cfg, V)
    drift_term = drift_constant(model) * T / V
    init_term = _lyapunov(model, theta) / (V * J * T)
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
