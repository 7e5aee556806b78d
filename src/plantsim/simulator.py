"""Episode simulation, metrics and long-run bound checks.

run_episode runs the online controller through the slot loop and oracle
playback through the block driver.  A small setup per controller hands
them a decide function, the starting queues with their fake-unit ledger
and the queue band:

* the online controller decides by decide_purchase and decide_pricing,
  pure functions of (queues, supply state, demand state).  Its band is
  controller.queue_band, [mu_max, theta + A_max].
* oracle playback draws the purchase and the offers of a fixed stationary
  policy from the policy channel: each slot's options, drawn from its
  states, which do not depend on the queues.  It has no band.

Both share the rules of a slot.  Each offered product draws D_max[k]
uniforms from the demand channel, in slot order and ascending k, and its
demand is the count below its threshold.  _outcome books a demand code
under a decision, and each slot records its drift 0.5 * sum (A - used)^2
against its constant bound.  Online, _Transitions.step verifies the
controller's guarantees as it updates the queues: they stay inside the
band and no slot is short (the queues do not cover the demand).  A queue
below the band raises InvariantViolation, or is only counted when the
run sets allow_unsafe_theta.  A short slot, or a queue above theta +
A_max or below 0, only a faulty controller can reach (_Transitions), and
it raises in every run.  Playback has no band and no queue feedback, so
its slots can fall short: _short_slot serves each short slot by the
greedy fulfillment rule, the decision's fulfillment_order served by
serve_in_order, and the run counts it as a mismatch.

The slot loop keeps a decision table.  A decision (A, cost, Z, P, the
offered products' sell entries) is made once per (x, y, A, Z, P).  It
also carries the outcome table of its demand codes, each offered
product's demand as one digit of radix D_max[k] + 1, mapped by _outcome
to the profit, D, the material use and the queue change, none of which
depend on the queues; and its signature's demand-code table (below).
Playback keeps no decisions.  Its set-up builds option tables from the
policy's options and probabilities, which oracles reads and checks (this
module does not read the policy format): per supply state, each purchase
option's A and -cost; per demand state and product, each offer option's
D_max, margin and threshold.

The slot loop keeps a state table.  The online controller is a finite
chain on (Q, x, y): from a start in its band each queue stays in
[0, floor(theta[m] + A_max[m])], for safe and unsafe theta alike, so every
queue vector it reaches is one mixed-radix integer q over that box.  The
state code is s = (q * |X| + x) * |Y| + y, and the memo maps s to its
decision.  Once a transition from a revisited s under a demand code has
passed every check, it is linked: the link store maps s to one entry, its
signature's code table (below) and a dict from each linked demand code to
its outcome.  A first visit links nothing, since most states of a run
that misses the memo are never revisited.  Every online run links by
this rule; record_log only adds rows, which a logged run appends on
either path from the memo's decision, the outcome and the queues at the
slot's start.  A slot opens with one lookup in the store: when s has an
entry whose table is of the current buffer and whose code at the slot's
start is linked, the slot only books the outcome's profit and adds its
change to q.  The short-slot and band checks and the queue-extreme and
drift records it skips are functions of that transition and were done.
Every other slot takes the checked path: decide or the memo, counting its
demand code from the buffered uniforms, then _outcome and
_Transitions.step, unless the state's entry links that code, whose
outcome it books without a step.  Either way it adds the outcome's
change to q.  So a count-only run counts every queue below mu_max, and
only those, and links the clean transitions out of states below the band
too.

A slot's demand code depends only on its decision's signature, the
offered products' (threshold, D_max[k]) pairs in order, and on where the
slot starts in the demand stream.  The loop's demand buffer is one draw
of demand uniforms, in one array, and it keeps a code table per
signature: the code from every start in the buffer, computed in numpy.
Only the fast path reads a table, with one list index; a checked slot
counts its uniforms, in numpy until _TABLE_AFTER checked slots have read
the buffer, and then one by one from the buffer listed.  A window that
runs past the buffer is counted in two parts: its head there, in numpy,
and its tail in a fresh draw of _CHUNK uniforms, or of the tail when that
is longer, which becomes the buffer.  A table is built once checked slots
of revisited states have met its signature _TABLE_AFTER times without a
table of the current buffer, by the first of them whose windows fit the
buffer.  It is dated by the stream offset of the buffer's end, so a
refill leaves the old tables stale without touching them; the next
checked slot to meet a stale table drops it.  Only the slot that refills
the buffer rebuilds its own signature's table at once, if that table was
current, so that a state whose slots the fast path serves keeps being
served.  A signature wider than _CHUNK or one whose codes could outgrow
int64 never gets a table.  A signature with no offer gets one like any
other: its codes are all 0, and it lets the states that offer nothing
take the link store's fast path (above) too.

The block driver plays up to _CHUNK slots, and at most 2**16 demand
uniforms, at a time: it draws the block's policy and demand uniforms,
gathers each slot's rows from the option tables by its drawn options and
books every slot with array operations, _outcome's sums taken in the
same order.  The queues follow the start queues plus the cumulative
queue change; only a short slot, found by searching that path or, after
a short slot, by testing the next one, is served on its own
(_short_slot), and its correction offsets the path after it.  A short
slot is served from its plan: its purchase's A and cost, and the
fulfillment order and margins of its offers, which are built once per
run for each set of offer options a short slot meets.  Only a logged slot
rebuilds its decision (A, cost, Z, P).  Totals are summed in slot order,
so the results equal the slot loop's bit for bit.

Per run, each of these counts is at most the horizon and at most
* online states: the integer volume of [0, theta + A_max] times
  |X| * |Y|;
* decisions: the states;
* outcomes per online decision: the product of D_max[k] + 1 over offered
  products;
* link entries: the states, each with at most the outcomes of its
  decision.
The slot loop also holds the state index as an array, built in place of
the supply path, and as a list for _CHUNK slots, its demand buffer (one
draw of at most max(_CHUNK, max D_max) uniforms, as an array, and a list
once _TABLE_AFTER checked slots have read it) and a code table of one
entry per buffered uniform for each tabled signature, until its first
read after the next refill.  A one-state IID or MARKOV process's path is
all zeros and draws nothing from its channel.
Playback keeps its option tables, |X| rows of purchase options and
|Y| * K rows of offer options, each padded to the longest row of its
table, a plan half per set of offer options met by a short slot, and
_play_blocks one block's arrays, a few rows per slot and its demand
uniforms.

The check_* helpers run whole experiments: check_profit_bound compares
the controller's mean profit against the stationary optimum, for i.i.d.
states or, given a mixing window and tolerance, Markov-modulated ones;
check_frame_bound compares it against per-frame lookahead values on
arbitrary traces.  Monte Carlo comparisons carry a 3-standard-error
allowance; everything else is exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from operator import add, gt, itemgetter, mul, sub

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
    check_class,
    check_int,
    check_path,
    check_real,
    check_seq,
    fulfillment_order,
    purchase_cost,
    serve_in_order,
)
from plantsim.oracles import OraclePolicy, frame_values, optimal_profit
from plantsim.oracles import _read_offers, _read_purchases
from plantsim.processes import (
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
# The slot loop draws demand uniforms this many at a time, or a window's
# whole tail when that is longer, and reads its state index this many
# slots at a time; the block driver plays at most this many slots at a
# time.  numpy generators fill batched requests from the same bit stream as
# repeated scalar calls, so any grouping of the draws reproduces the plain
# call-by-call sequence.
_CHUNK = 1 << 12
# The slot loop tables a signature, for its fast path to read, when checked
# slots of revisited states have met it this many times without a table of
# the current buffer.  A build costs about as much as counting 100 slots one
# by one, so a signature met only a few times per buffer is cheaper to
# count.  By the same economics, a buffer is listed, for checked slots to
# count from one uniform at a time, once this many have counted in numpy.
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
    """Per-episode results and invariant accounting.

    bound_violations counts the queues below the band of a count-only
    online run.  phi_mismatch_slots counts playback's short slots, served
    in the decision's fulfillment_order by serve_in_order; it is 0 online,
    where a short slot raises.
    Online, every slot is served in full, so total_phi_actual is total_phi.
    """

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
    """The online chain's checked transitions, its state codes and records.

    step runs a slot that has no link.  With the band [lo, hi], queues Q
    have the code q = sum Q[m] * radix[m], where radix[m] is the product of
    the widths floor(hi[n]) + 1 for n < m.  Every queue vector an online
    run reaches has one: from a start in the band the controller buys only
    while Q < theta, at most A_max, and offers a product only while each
    of its feeders holds mu_max, the worst-case use over every product, so
    no slot uses more than Q and Q stays in [0, floor(hi)] whatever theta
    is.  A short slot or a queue outside that box comes only from a faulty
    controller and raises, in a count-only run too.  A theta that
    overflowed to inf codes as the largest float, which no queue reaches.
    Playback has no band: it keeps only the records, q_min, q_max, max_bt
    and mismatch, here (_block_queues).
    """

    def __init__(self, band, check: bool, Q: tuple) -> None:
        self.lo, self.hi = band or ((), ())
        self.width = [math.floor(min(b, sys.float_info.max)) + 1 for b in self.hi]
        self.radix = [math.prod(self.width[:m]) for m in range(len(self.hi))]
        self.check = check
        self.q_min = list(Q)
        self.q_max = list(Q)
        self.max_bt = 0.0
        self.violations = 0
        self.mismatch = 0

    def encode(self, Q) -> int:
        """The code of queues Q."""
        return sum(map(mul, Q, self.radix))

    def decode(self, q: int) -> tuple:
        """The queues of code q."""
        Q = []
        for w in self.width:
            q, r = divmod(q, w)
            Q.append(r)
        return tuple(Q)

    def step(self, t: int, Q: tuple, out) -> tuple:
        """(next Q, clean) of slot t from Q, under outcome out.

        The slot loop moves the state code q by out's change itself, so
        step computes no code.  A short slot (the queues do not cover the
        demand) always raises InvariantViolation.  A queue below the band
        raises too, or is counted in a count-only run; a queue outside
        [0, hi] always raises.  clean is true when nothing was counted, so
        the transition may be linked.
        """
        _, _, used, diff, bt, _ = out
        if any(map(gt, used, Q)):
            raise InvariantViolation(f"slot {t}: accepted demand exceeds stored material")
        lo, hi, q_min, q_max = self.lo, self.hi, self.q_min, self.q_max
        Qn = list(Q)
        clean = True
        for m in range(len(Qn)):
            q = Qn[m] + diff[m]
            Qn[m] = q
            if q < q_min[m]:
                q_min[m] = q
            elif q > q_max[m]:
                q_max[m] = q
            if not lo[m] <= q <= hi[m]:
                if self.check or not 0 <= q <= hi[m]:
                    raise InvariantViolation(
                        f"slot {t}: queue {m} left its band: {q} not in "
                        f"[{lo[m]}, {hi[m]}]"
                    )
                self.violations += 1
                clean = False
        if bt > self.max_bt:
            self.max_bt = bt
        return tuple(Qn), clean


def _check_state_ids(
    model: Model, process_x: StateProcessSpec, process_y: StateProcessSpec
) -> None:
    """Each process must list the model's states, in the model's order.

    A run plays a process's state indices as the model's states, so a
    process over other states, or over the same ones in another order,
    would run the wrong plant.  The model and both processes must first be
    of their classes (check_class).
    """
    check_class("model", Model, model)
    for name, spec, states in (
        ("process_x", process_x, model.supply_states),
        ("process_y", process_y, model.demand_states),
    ):
        check_class(name, StateProcessSpec, spec)
        ids = [s.id for s in states]
        if list(spec.state_ids) != ids:
            raise InputError(
                f"{name} lists states {list(spec.state_ids)}, not the model's {ids}"
            )


def run_episode(ec: EpisodeConfig, model: Model) -> Metrics:
    """Simulate one episode and return its metrics.

    A breach of the controller's queue band raises InvariantViolation
    immediately, unless the run sets allow_unsafe_theta: then a queue below
    the band is only counted, which supports deliberately unsafe threshold
    experiments.  Each flag (placeholder, assembly_delay, demand_blind,
    allow_unsafe_theta, record_log) must be a bool, checked before anything
    reads it.  A short slot, or a queue above theta + A_max, comes only from
    a faulty controller and raises in every run: the controller offers a
    product only while each of its feeders holds mu_max, the worst-case use
    over every product.  Oracle playback has no band: its short slots are
    served in the decision's fulfillment_order by serve_in_order and only
    counted as mismatches.  It rejects the online-only settings
    placeholder, demand_blind, theta and allow_unsafe_theta rather than
    ignore them, as an online run rejects oracle_policy, a malformed policy
    before its first slot (_oracle_setup), and a process whose states are
    not the model's (_check_state_ids).  The online controller runs the
    slot loop, playback the block driver; both keep the tables the module
    docstring describes, with results bit-identical to checking every slot.
    """
    check_class("ec", EpisodeConfig, ec)
    check_int("horizon", ec.horizon, 1)
    for name in ("placeholder", "assembly_delay", "demand_blind", "allow_unsafe_theta"):
        check_class(name, bool, getattr(ec, name))
    check_class("record_log", bool, ec.record_log)
    if ec.controller not in ("online", "oracle"):
        raise InputError(f"unknown controller {ec.controller!r}")
    if ec.controller == "oracle":
        if ec.oracle_policy is None:
            raise InputError("oracle controller needs oracle_policy")
        check_class("oracle_policy", OraclePolicy, ec.oracle_policy)
        for name in ("placeholder", "demand_blind", "theta", "allow_unsafe_theta"):
            if getattr(ec, name) not in (None, False):
                raise InputError(f"oracle playback does not use {name}")
    elif ec.oracle_policy is not None:
        raise InputError("the online controller does not use oracle_policy")
    _check_state_ids(model, ec.process_x, ec.process_y)
    cfg = model.cfg
    rs = RngStream(ec.seed, ec.stream)
    online = ec.controller == "online"
    if online:
        decide, state, band = _online_setup(ec, model)
    else:
        pick, decide, plan, state, band = _oracle_setup(ec, model)
    # A one-state IID or MARKOV process stays in state 0 and draws nothing:
    # its channel serves only its path, so no other draw moves.
    xs, ys = (
        np.zeros(ec.horizon, dtype=np.int64)
        if spec.mode != TRACE and len(spec.state_ids) == 1
        else generate_states(spec, ec.horizon, rs.generator(channel))
        for spec, channel in ((ec.process_x, _CH_X), (ec.process_y, _CH_Y))
    )
    # Units sold from the assembly-delay product queues are re-assembled by
    # the end of the slot, so the queues always start full and only their
    # initial stock costs anything.
    startup = sum(map(mul, cfg.D_max, cfg.alpha)) if ec.assembly_delay else 0.0
    Q = tuple(state.Q)
    run = _Transitions(band, not ec.allow_unsafe_theta, Q)
    log: list[tuple] | None = [] if ec.record_log else None
    if online:
        # the slot loop reads one state index x * |Y| + y per slot
        xs *= len(model.demand_states)
        xs += ys
        del ys
        tphi, Q = _slot_loop(model, decide, run, Q, xs, rs, log)
        tphia = tphi
    else:
        tphi, tphia, Q = _play_blocks(
            model, pick, decide, plan, run, Q, xs, ys, rs, log
        )

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
    """The online controller, one slot at a time: (tphi, final Q).

    states holds each slot's state index s = x * |Y| + y; the loop reads
    it as a list, _CHUNK slots at a time.  A slot first looks up its state
    code in the link store: an entry whose code table is of the current
    buffer, with the code at pos linked, serves the slot by advancing pos,
    booking the outcome's profit and moving q, without decoding the queues
    unless the run is logged.  Every other slot takes the checked path,
    which counts its demand code and reads no code table: in numpy, over
    each product's window, until the buffer has served _TABLE_AFTER
    checked slots, and then from its list, one uniform at a time.  A
    revisited state there only dates its signature's table and builds it
    (_code_table) from the _TABLE_AFTER-th slot without a current one on,
    once the slot's windows fit the buffer.
    A window that runs past the buffer counts its head there and its tail
    in a fresh draw of max(_CHUNK, tail) uniforms, the new buffer; the slot
    that draws it rebuilds its own signature's table at once if that table
    was current.
    A code the state's entry links books its outcome there too; otherwise
    _Transitions.step checks the slot, and a clean step out of a revisited
    state is linked.  Every slot moves q by its outcome's change.  A log
    changes no route: each path appends its slot's row (log_row) before q
    moves.
    """
    K = model.cfg.K
    n_y = len(model.demand_states)
    # the (x, y) state ids of each state index
    ids = [(x.id, y.id) for x in model.supply_states for y in model.demand_states]
    n_s = len(ids)
    demand = rs.generator(_CH_DEMAND)
    tphi = 0.0
    # Q is the queue tuple, or None after a link until a slot needs it; q
    # is its state code: every queue vector the loop reaches has one, below
    # the band too (_Transitions).
    q = run.encode(Q)
    memo: dict = {}  # q * n_s + s -> decision
    # q * n_s + s -> (its signature's code table, {demand code: outcome})
    # of a state revisited after a clean checked step; unlinked stands for
    # every other state, and an untabled signature's table is never current
    links: dict = {}
    unlinked = ((None,), {})
    # The demand buffer, one draw, as an array; drawn is the stream offset
    # of its end, which dates the tables.  reads counts its checked slots,
    # which count in numpy until the _TABLE_AFTER-th lists it as buf.
    arr = np.empty(0)
    buf = None
    pos = drawn = reads = 0

    def log_row(t, key, Q, q, out, tphi):
        # slot t's row; its queues at the slot's start are Q, or q's if Q is None
        A, _, Z, P = memo[key][:4]
        row = (tuple(A), tuple(Z), tuple(P), out[1], out[0], out[0], tphi / (t + 1))
        log.append((t, *ids[key % n_s], run.decode(q) if Q is None else Q, *row))

    for t0 in range(0, len(states), _CHUNK):
        for t, s in enumerate(states[t0 : t0 + _CHUNK].tolist(), t0):
            key = q * n_s + s
            tab, outs = links.get(key, unlinked)
            if tab[0] == drawn:
                out = outs.get(tab[1][pos])
                if out is not None:
                    pos += tab[2]
                    tphi += out[0]
                    if log is not None:
                        log_row(t, key, Q, q, out, tphi)
                    q += out[5]
                    Q = None
                    continue
            dec = memo.get(key)
            revisit = dec is not None
            if not revisit:
                if Q is None:
                    Q = run.decode(q)
                dec = memo[key] = decide(Q, *divmod(s, n_y))
            elif dec[6] is not None and dec[6][0] != drawn:
                # No table of this buffer: the signature is tabled, for the
                # fast path, on the _TABLE_AFTER-th such slot.
                tab = dec[6]
                tab[1] = None  # built before the last refill
                tab[3] += 1
                if tab[3] >= _TABLE_AFTER and pos + tab[2] <= len(arr):
                    tab[:] = drawn, _code_table(arr, pos, dec[4]), tab[2], 0
            reads += 1
            if reads == _TABLE_AFTER:
                buf = arr.tolist()
            # Each offered product's demand d as one digit of radix
            # D_max[k] + 1, the first product's the most significant.
            code = 0
            for _, _, pr, n, _ in dec[4]:
                end = pos + n
                d = 0
                if end > len(arr):
                    # the head is counted here and the tail in a fresh draw;
                    # the slot's own table, if current, is rebuilt on it
                    tab = dec[6] if dec[6] and dec[6][0] == drawn else None
                    d = int(np.count_nonzero(arr[pos:] < pr))
                    end -= len(arr)
                    arr = demand.random(max(_CHUNK, end))
                    buf, pos, drawn, reads = None, 0, drawn + len(arr), 0
                    if tab:
                        tab[:] = drawn, _code_table(arr, 0, dec[4]), tab[2], 0
                if buf is None:
                    d += int(np.count_nonzero(arr[pos:end] < pr))
                else:
                    for u in buf[pos:end]:
                        if u < pr:
                            d += 1
                pos = end
                code = code * (n + 1) + d

            out = outs.get(code)
            if out is not None:
                Qn = None
            else:
                outcomes = dec[5]
                out = outcomes.get(code)
                if out is None:
                    out = outcomes[code] = _outcome(dec, code, K, run.radix)
                if Q is None:
                    Q = run.decode(q)
                Qn, clean = run.step(t, Q, out)
                if clean and revisit:
                    links.setdefault(key, (dec[6] or unlinked[0], {}))[1][code] = out
            tphi += out[0]
            if log is not None:
                log_row(t, key, Q, q, out, tphi)
            Q, q = Qn, q + out[5]
    return tphi, run.decode(q) if Q is None else Q


def _code_table(arr: np.ndarray, pos: int, sells) -> list:
    """codes[p]: the demand code of sells from each start p >= pos of arr.

    The code from start p is the slot loop's: product j of sells, with
    threshold pr and D_max n, counts the uniforms below pr in its window
    of n after the windows of the products before it, as one digit of
    radix n + 1.  It holds len(arr) + 1 starts, filled in one int64 array
    and listed once; those before pos, and those whose windows run past
    the end of arr, hold -1.  The codes must fit in int64 (_online_setup).
    """
    u = arr[pos:]
    width = sum(n for *_, n, _ in sells)
    starts = len(u) - width + 1
    table = np.full(len(arr) + 1, -1, dtype=np.int64)
    code = table[pos : pos + starts]
    code[:] = 0
    hits = np.zeros(len(u) + 1, dtype=np.int64)
    off = 0
    for _, _, pr, n, _ in sells:
        np.cumsum(u < pr, out=hits[1:])
        code *= n + 1
        code += hits[off + n : off + n + starts]
        code -= hits[off : off + starts]
        off += n
    return table.tolist()


def _play_blocks(
    model: Model, pick, decide, plan, run: _Transitions, Q, xs, ys, rs, log
) -> tuple:
    """Oracle playback, a block of slots at a time: (tphi, tphia, final Q).

    A playback slot's options depend only on its states and policy draws,
    and its demand only on its options, so a block draws all its slots'
    options at once, gathers their booking rows from the option tables
    (pick) and books them in arrays (_block_book), from the same draws as
    one slot at a time.  The queues follow Q plus the cumulative queue
    change; only short slots are served one at a time (_block_queues),
    each from its plan (plan).  Only a logged slot rebuilds its decision
    (decide).
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
    tphi = 0.0
    tphia = 0.0
    for t0 in range(0, len(xs), size):
        x, y = xs[t0 : t0 + size], ys[t0 : t0 + size]
        u = policy.random((len(x), K + 1))
        b, o, bought, width, terms = pick(x, y, u)
        book = _block_book(bought, width, terms, demand, beta)
        start = Q
        Q, after, stepped = _block_queues(
            run, cfg, Q, lambda i: plan(int(b[i]), o[i].tolist()), book
        )
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
            rows = zip(*(a.tolist() for a in (x, y, b, o, D, phi)))
            for i, (xi, yi, bi, oi, d, p) in enumerate(rows):
                A, cost, Z, P = decide(bi, oi)
                # a slot with no sale books -cost as _outcome does, an int
                # under an integer cost
                p = p if any(d) else -cost
                row = (tuple(A), tuple(Z), tuple(P), tuple(d), p, stepped.get(i, p))
                log.append((t0 + i, ids_x[xi], ids_y[yi], starts[i], *row, avg[i]))
    return tphi, tphia, Q


def _block_book(bought, width, terms, rng, beta: np.ndarray) -> tuple:
    """(phi, D, used, A - used, drift) of each slot of a block, as arrays.

    Row t of each input is slot t's: bought its purchase A, width each
    product's D_max (0 where withheld), and terms its -cost, then each
    product's margin, then each product's threshold (0.0 where withheld).
    As in the slot loop, each offered product k takes D_max[k] uniforms
    from rng, in slot order and ascending k, and its demand is the count
    below its threshold: read row by row, the (slot, product) grid is that
    order when a withheld product takes no uniform.  The rest equal
    _outcome's, bit for bit.  phi starts at -cost and adds D[k] * margin
    for each product in ascending k, where a product with no demand adds
    -0.0: that leaves every float as it is, sign of zero included, as
    _outcome's skip does.  The drift 0.5 * sum (A - used)^2 adds the
    squares in _change's order.  used and A - used take beta's dtype,
    object where int64 could overflow (_play_blocks).
    """
    M, K = beta.shape
    width = width.ravel()
    hits = np.zeros(width.sum() + 1, dtype=np.int64)
    below = rng.random(len(hits) - 1) < np.repeat(terms[:, 1 + K :], width)
    np.cumsum(below, out=hits[1:])
    end = np.cumsum(width)
    D = (hits[end] - hits[end - width]).reshape(-1, K)
    used = D @ beta.T
    diff = bought - used
    sold = np.where(D != 0, D * terms[:, 1 : 1 + K], -0.0)
    phi = terms[:, 0]
    for k in range(K):
        phi += sold[:, k]
    bt = 0.0
    for m in range(M):
        bt = bt + diff[:, m] * diff[:, m]
    return phi, D, used, diff, 0.5 * bt


def _block_queues(run: _Transitions, cfg, Q, decision, book) -> tuple:
    """(final Q, the queues after each slot, phi_actual of each short slot).

    The booked queue path is Q plus the cumulative queue change A - used
    of the booking.  A slot is short when the queues it starts from hold
    less than it uses.  Short slots are searched in windows that double,
    under the correction so far: the booked queues less the served ones
    after the last short slot.  Each is served alone by _short_slot, under
    the plan that decision(i) gives slot i, and its drift replaces the
    booked one; the slot after it starts from the served queues and is
    tested against them in Python before the search resumes.  The path is
    then offset by each short slot's correction from that slot on, and
    every slot booked into run's extremes and drift record, the short ones
    into its mismatch count.
    """
    _, D, used, diff, bt = book
    n, int_t = len(diff), diff.dtype
    path = diff.copy()
    path[0] += Q
    np.cumsum(path, axis=0, out=path)
    # low[i] is slot i's booked start queues less its use; with lim the
    # booked queues less the served ones after the last short slot, slot i
    # is short where low[i] < lim.
    low = path - diff - used
    lim = np.zeros(len(Q), dtype=int_t)
    served: dict = {}  # short slot -> (next Q, phi_actual, drift)
    # start is the queues slot i starts from, known after a short slot
    i, w, start = 0, 32, None
    while i < n:
        if start is None:
            short = low[i : i + w] < lim
            f = int(short.argmax())  # the first short (slot, material), flat
            if not short.flat[f]:
                i, w = i + w, 2 * w
                continue
            i += f // len(Q)
            start = Q if i == 0 else tuple((path[i - 1] - lim).tolist())
        elif not any(map(gt, used[i].tolist(), start)):
            lim = path[i - 1] - start
            i, w, start = i + 1, 32, None
            continue
        served[i] = _short_slot(cfg, start, decision(i), D[i].tolist())
        start = served[i][0]
        i += 1

    stepped = {i: out[1] for i, out in served.items()}
    if served:
        rows = list(served)
        after, _, drift = zip(*served.values())
        bt[rows] = drift
        # each short slot's served queues less its booked ones, added from
        # there on in place of the last one's
        corr = np.zeros_like(path)
        corr[rows] = np.array(after, dtype=int_t) - path[rows]
        corr[rows] = np.diff(corr[rows], axis=0, prepend=0)
        path += np.cumsum(corr, axis=0)
        run.mismatch += len(served)
    run.max_bt = max(run.max_bt, float(bt.max()))
    # one row per material: numpy reduces a long last axis far faster
    by_m = np.ascontiguousarray(path.T)
    run.q_min[:] = map(min, run.q_min, by_m.min(axis=1).tolist())
    run.q_max[:] = map(max, run.q_max, by_m.max(axis=1).tolist())
    return tuple(path[-1].tolist()), path, stepped


def _short_slot(cfg, Q, plan, D) -> tuple:
    """(next Q, phi_actual, drift) of a short playback slot from Q.

    plan is the slot's (A, cost, order, margins): serve_in_order serves
    what it can of demand D from the queues in the decision's
    fulfillment_order, the two halves of the greedy fulfillment rule.
    phi_actual adds each product's served units times its margin P[k] -
    alpha[k] in ascending k, a withheld product's 0 * margin included, then
    subtracts the cost, as the sum of Z[k] * served[k] * (P[k] - alpha[k])
    less the cost does; the drift is the served change's.
    """
    A, cost, order, margins = plan
    served, residual = serve_in_order(Q, order, D, cfg.K)
    Qn = tuple(map(add, residual, A))
    return Qn, sum(map(mul, served, margins)) - cost, _change(Qn, Q)[1]


def _fulfillment(cfg, Z, P) -> tuple:
    """(order, margins): the half of a playback plan that its offers Z, P fix.

    order is their fulfillment_order, and margins each product's P[k] -
    alpha[k], a withheld product's at the price it posts.
    """
    return fulfillment_order(Z, P, cfg), tuple(map(sub, P, cfg.alpha))


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


def _sells(model: Model) -> list:
    """sells[yi][k][p]: the sell entry of product k at menu price p in state yi.

    Keyed by price, since the online decisions post prices; a menu is
    strictly ascending (validate_config), so its prices are distinct keys.
    The entry is (k, margin, threshold, D_max, feeders), where feeders lists
    the (m, beta[m][k]) of the materials k consumes: what the slot loop
    draws and books a sale by.  Playback's offer rows hold the margin,
    threshold and D_max of the same entries, computed alike.
    """
    cfg = model.cfg
    feeders = [[(m, b) for m, b in enumerate(col) if b > 0] for col in zip(*cfg.beta)]
    products = list(enumerate(zip(cfg.price_set, cfg.alpha, cfg.D_max, feeders)))
    return [
        [
            {p: (k, p - a, f / n, n, cols) for p, f in zip(ps, F)}
            for (k, (ps, a, n, cols)), F in zip(products, y.F)
        ]
        for y in model.demand_states
    ]


def _online_setup(ec: EpisodeConfig, model: Model):
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
    offers = _sells(model)

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
            # it], or None where the slot loop always counts: offers wider
            # than _CHUNK, or codes that could outgrow int64
            sig = tuple(map(pr_n, sells))
            if sig not in tables:
                width = sum(n for _, n in sig)
                n_sig = math.prod(n + 1 for _, n in sig)
                tabled = width <= _CHUNK and n_sig <= 2**62
                tables[sig] = [-1, None, width, 0] if tabled else None
            tab = tables[sig]
            dec = decisions[dkey] = (A, purchase_cost(A, x), Z, P, sells, {}, tab)
        return dec

    return decide, state, queue_band(params, cfg)


def _oracle_setup(ec: EpisodeConfig, model: Model):
    """Playback of a stationary policy: pick, decide, plan, starting state, band.

    The policy's checked options and probabilities come from oracles'
    readers, _read_purchases and _read_offers, one per part of the policy,
    which raise InputError on a malformed one.  From them it builds padded
    option tables: per supply state, each purchase option's cumulative
    weight, -cost and A; per demand state and product, each offer option's
    cumulative weight, margin, threshold and D_max, zeros where the product
    is withheld.  pick(x, y, u) draws each slot's options from its states
    and its 1 + K uniforms u of channel _CH_POLICY (the purchase draw, then
    each product's offer in ascending k) and gathers the rows _block_book
    takes: it returns (b, o, bought, width, terms), where b is each slot's
    row of the purchase table and o its K rows of the offer table.
    decide(b, o) makes the decision (A, cost, Z, P) of one slot's rows,
    and plan(b, o) its plan (A, cost, order, margins), which _short_slot
    serves: the second half (_fulfillment) is built once per run for each
    o that a short slot meets.  There is no band and no fake unit; the
    queues start at Q0, by default mu_max, and the start rule check_start
    asks only for non-negative integers.
    """
    cfg = model.cfg
    K, M = cfg.K, cfg.M
    # buy[xi][i]: (A, cost) of purchase option i in supply state xi, and
    # offer[yi * K + k][j]: (z, posted price) of offer option j of product k,
    # where a withheld product posts its lowest price.  Their table rows
    # are floats, which hold A and D_max exactly (validate_config bounds
    # them by 2**53); -cost is negated before its conversion, so an integer
    # cost of 0 starts at 0.0 as it does in _outcome, where -0 is the int 0.
    buy, buy_p = zip(*_read_purchases(ec.oracle_policy, model))
    buy_cum = list(map(_cumulative, buy_p))
    buy_rows = [[(-c, *A) for A, c in acts] for acts in buy]
    offer, offer_cum, offer_rows = [], [], []
    by_y = zip(*_read_offers(ec.oracle_policy, model))  # per demand state, then k
    for y, dists in zip(model.demand_states, by_y):
        products = zip(cfg.price_set, cfg.alpha, cfg.D_max, y.F, dists)
        for ps, a, n, F, (opts, p) in products:
            offer.append([(z, ps[j] if z else ps[0]) for z, j in opts])
            offer_cum.append(_cumulative(p))
            # the margin, threshold and D_max of _sells' entry
            row = [(ps[j] - a, F[j] / n, n) if z else (0.0, 0.0, 0) for z, j in opts]
            offer_rows.append(row)
    # Option i of supply state xi is row xi * n_i + i of buys, and offer
    # option j of product k in demand state yi row (yi * K + k) * n_j + j of
    # offers; buy and offer become flat lists of the same rows.
    buy_cum, offer_cum = _weight_table(buy_cum), _weight_table(offer_cum)
    n_i, n_j = len(buy_cum), len(offer_cum)
    buys = _padded(buy_rows, (0.0,) * (1 + M)).reshape(-1, 1 + M)
    offers = _padded(offer_rows, (0.0, 0.0, 0)).reshape(-1, 3)
    buy = [a for acts in buy for a in (*acts, *[None] * (n_i - len(acts)))]
    offer = [o for opts in offer for o in (*opts, *[None] * (n_j - len(opts)))]
    # the offer_cum column yi * K + k of each demand state yi and product k
    cols = np.arange(len(model.demand_states) * K).reshape(-1, K)

    def pick(x, y, u):
        r = cols.take(y, axis=0)
        b = x * n_i + _bisect_rows(buy_cum, x, u[:, 0])
        o = r * n_j + _bisect_rows(offer_cum, r, u[:, 1:])
        rb, ro = buys.take(b, axis=0), offers.take(o, axis=0)
        terms = np.concatenate((rb[:, :1], ro[..., 0], ro[..., 1]), axis=1)
        bought, width = rb[:, 1:].astype(np.int64), ro[..., 2].astype(np.int64)
        return b, o, bought, width, terms

    def decide(b, o):
        A, cost = buy[b]
        Z, P = zip(*map(offer.__getitem__, o))
        return A, cost, Z, P

    fills: dict = {}  # a slot's offers rows -> their fulfillment order and margins

    def plan(b, o):
        key = tuple(o)
        if key not in fills:
            fills[key] = _fulfillment(cfg, *decide(b, o)[2:])
        return (*buy[b], *fills[key])

    Q0 = model.mu_max if ec.Q0 is None else ec.Q0
    Q0 = check_start("Q0", Q0, [0] * cfg.M, [math.inf] * cfg.M)
    return pick, decide, plan, ControllerState(Q=Q0, fake=[0] * cfg.M), None


def _padded(rows: list, fill) -> np.ndarray:
    """Rows of unequal length as one float array, each padded with fill."""
    width = max(map(len, rows))
    return np.array([row + [fill] * (width - len(row)) for row in rows], dtype=float)


def _weight_table(cums: list) -> np.ndarray:
    """Rows of cumulative weights as the columns of one array, padded with inf."""
    return np.ascontiguousarray(_padded(cums, np.inf).T)


def _bisect_rows(table: np.ndarray, states, u) -> np.ndarray:
    """bisect_right of each u in column states[i] of a _weight_table.

    A column's weights never decrease, so bisect_right is the count of
    those at most u; the inf padding, like _cumulative's inf last bucket,
    counts for no finite u.  states and u have one shape.  The count runs
    over the table's first axis, which numpy reduces far faster than a
    short last one.
    """
    return np.count_nonzero(table.take(states, axis=1) <= u, axis=0)


def run_replications(ec: EpisodeConfig, model: Model, n: int) -> list[Metrics]:
    """Run n replications differing only in their stream id; the first keeps its log."""
    check_class("ec", EpisodeConfig, ec)
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
    if len(check_seq("metrics", metrics)) == 0:
        raise InputError("summarize needs the metrics of at least 1 episode")
    check_class("metrics entry", Metrics, *metrics)
    check_class("net", bool, net)
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
) -> ReplicationSummary:
    """Run a bound check's episodes and summarize them.

    Bound checks allow 3 standard errors, which take 2 runs to estimate.
    """
    message = f"a bound check needs at least 2 replications, got {replications!r}"
    check_int("replications", replications, 2, message=message)
    ec = EpisodeConfig(
        horizon=horizon, seed=seed, V=V, process_x=process_x, process_y=process_y
    )
    return summarize(run_replications(ec, model, replications))


@dataclass
class ProfitBoundReport:
    """Long-run profit of the controller vs the stationary optimum.

    violations is 0 in every report: a bound run keeps the band, so a
    breach raises InvariantViolation before a report exists.  It stays
    because the benchmark's sim-decide gate reads it.
    """

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
    This is the t -> infinity form of the bound.  Over t slots from Q(0)
    the drift argument also subtracts L(Q(0)) / (V * t).  The report gives
    that finite-horizon term of the runs' start, init_term = L(mu_max) /
    (V * horizon), but rhs leaves it out, so a finite run may fall short
    of rhs by up to init_term and still meet the finite form.  On one
    seeded mid plant of the benchmark (sim-decide, seed 2008), two runs of
    15,000 slots fall 0.195 short of rhs, with init_term 1.292.
    check_frame_bound subtracts its own initial-condition term.
    """
    message = f"need an integer T >= 1 and finite epsilon >= 0, got {T!r}, {epsilon!r}"
    check_int("T", T, 1, message=message)
    check_real("epsilon", epsilon, message=message)
    _check_state_ids(model, process_x, process_y)
    pi_x = stationary_distribution(process_x)
    pi_y = stationary_distribution(process_y)
    phi_opt, _, _ = optimal_profit(model, pi_x, pi_y)
    # the runs check V before it divides the allowances below
    s = _bound_runs(model, process_x, process_y, V, horizon, replications, seed)
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
        violations=0,
        n=replications,
        passed=s.mean >= rhs - 3 * s.se,
    )


def _lyapunov(model: Model, theta) -> float:
    """L(mu_max) = 0.5 * sum (mu_max - theta)^2 of a bound run's start."""
    return 0.5 * sum((q - th) ** 2 for q, th in zip(model.mu_max, theta))


# perfbench calls the rule by this name.
process_distribution = stationary_distribution


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
    This is the finite-horizon form: bound subtracts init_term =
    L(mu_max) / (V * J * T), which check_profit_bound only reports.
    """
    frames = frame_values(model, xs, ys, T, J)
    ids = ([x.id for x in model.supply_states], [y.id for y in model.demand_states])
    spec_x, spec_y = (
        StateProcessSpec(mode=TRACE, state_ids=i, trace=list(v[: J * T]))
        for i, v in zip(ids, (xs, ys))
    )
    s = _bound_runs(model, spec_x, spec_y, V, J * T, replications, seed)
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
    check_path("path", path)
    check_class("model", Model, model)
    check_class("metrics", Metrics, metrics)
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
