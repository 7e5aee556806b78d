"""Online purchasing and pricing controller.

The controller keeps every material queue inside a deterministic band using
only the current queue levels and the current exogenous states; it needs no
statistics of the supply or demand processes.  Each slot it

* buys material m up to its cap while the queue sits below a threshold
  theta[m] discounted by V times the current unit cost, solving an exact
  bounded knapsack when the budget binds, and
* offers product k at the price maximizing V-weighted margin plus queue
  relief, withholding the product when that score is not strictly positive
  or when any feeder queue is too low to serve worst-case demand.

The parameter V >= 0 trades queue size for profit: larger V tracks the best
achievable profit more closely at the cost of proportionally larger buffers.
With thresholds from compute_theta the queues provably stay inside
queue_band on every sample path, and every accepted slot of demand can be
served in full.

Everything the decisions read besides Q is tabulated once per
ControllerParams, on first use (_Tables): for pricing, each product's
column of beta, its feeders, the first menu prices and each demand
state's scores per menu price; for purchasing, V * unit_cost per supply
state and, per (supply state, buy set), the caps, whether they fit the
budget and, when they do not, a knapsack plan and the plan's maximal
vectors (at most _CANDIDATE_CAP of them).  The plan holds only the
budgets reachable from the full budget, so the knapsack's time and memory
scale with those, not with c_max or with the cap of a material that
costs nothing in that state.  One walk over those budgets builds the
plan, and the search for the maximal vectors runs on the plan.  A call
does only the arithmetic that depends on Q.  Pricing does it in the
order the untabulated rule does, up to the sign of a zero relief; a
knapsack call takes the best maximal vector when it leads every other by
a proven rounding margin and runs the DP otherwise (_scan).  So the
decisions are bit-identical to the untabulated rule's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import lt, mul, sub

import numpy as np

from plantsim.model import (
    DemandState,
    InputError,
    PlantConfig,
    SupplyState,
    check_class,
    check_int,
    check_real,
    check_seq,
)


class InvariantViolation(RuntimeError):
    """A controller guarantee broke; this indicates a bug, not bad input.

    A queue left its guaranteed band, or a slot accepted more demand than
    its queues hold.
    """


class InitOutOfRange(InputError):
    """Requested initial inventory is outside the band the controller maintains."""


class ThetaTooSmall(InputError):
    """An override threshold is below the safe value and was not forced."""


@dataclass(frozen=True)
class ControllerParams:
    """Controller tuning, frozen so its tables never go stale: V, theta, blind mode.

    make_params is the checked way to build one: it checks V and each
    theta entry, which the decisions read unchecked from one built
    directly.
    """

    V: float
    theta: tuple[float, ...]
    demand_blind: bool = False
    _cache: _Tables | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(self.theta))


class _Tables:
    """What the decisions read besides the queues, for one (params, cfg) pair.

    columns[k] is product k's column of beta, feeders[k] lists the
    materials it consumes and first_prices[k] is its lowest menu price.
    demand(y) gives per product (p, V * (p - alpha) * F, F) for each menu
    price p, with F = y.F, or y.F_hat in blind mode (None if y lacks it).
    supply(x) gives V * unit_cost and the purchase plans of x, one per buy
    set (see _purchase_plan).  Built per state object on first use and
    keyed by its id; each entry holds its state, so the id cannot be
    reused while the table lives.  States must not change after first
    use; params cannot.
    """

    def __init__(self, params: ControllerParams, cfg: PlantConfig):
        check_class("cfg", PlantConfig, cfg)
        self.cfg, self.V, self.blind = cfg, params.V, params.demand_blind
        self.mu_max = cfg.mu_max()
        self.first_prices = [prices[0] for prices in cfg.price_set]
        self.columns = [tuple(row[k] for row in cfg.beta) for k in range(cfg.K)]
        self.feeders = [[m for m, b in enumerate(col) if b > 0] for col in self.columns]
        self._rows: dict[int, tuple] = {}  # id(y) -> (y, rows)
        self._supply: dict[int, tuple] = {}  # id(x) -> (x, V * unit_cost, plans)

    def demand(self, y: DemandState) -> list[list[tuple]] | None:
        hit = self._rows.get(id(y))
        if hit is None:
            table = y.F_hat if self.blind else y.F
            rows = table and [
                [(p, self.V * (p - a) * f, f) for p, f in zip(prices, row)]
                for prices, a, row in zip(self.cfg.price_set, self.cfg.alpha, table)
            ]
            hit = self._rows[id(y)] = (y, rows)
        return hit[1]

    def supply(self, x: SupplyState) -> tuple:
        hit = self._supply.get(id(x))
        if hit is None:
            vc = [self.V * c for c in x.unit_cost]
            hit = self._supply[id(x)] = (x, vc, {})
        return hit


def _tables(params: ControllerParams, cfg: PlantConfig) -> _Tables:
    t = params._cache
    if t is None or t.cfg is not cfg:
        t = _Tables(params, cfg)
        object.__setattr__(params, "_cache", t)
    return t


@dataclass
class ControllerState:
    """Per-run controller state: material queues and the fake-unit ledger.

    Q is what the controller steers on.  In place-holder mode fake[m]
    units of it are book entries rather than physical stock, so the real
    inventory is Q[m] - fake[m].
    """

    Q: list[int]
    fake: list[int]


def compute_theta(cfg: PlantConfig, V: float) -> list[float]:
    """Safe queue thresholds for a given V.

    For each material the threshold covers the best margin any consuming
    product could justify at weight V, the worst-case spend of the other
    materials feeding that product, and two slots of worst-case consumption.
    Materials no product consumes get threshold 0; they are never bought.
    V may be 0 here, which leaves the buffer terms alone.
    """
    check_real("V", V)
    check_class("cfg", PlantConfig, cfg)
    mu_max = cfg.mu_max()
    theta = []
    for m in range(cfg.M):
        best = 0.0
        for k in range(cfg.K):
            b = cfg.beta[m][k]
            if b == 0:
                continue
            others = sum(
                cfg.beta[i][k] * cfg.A_max[i] for i in range(cfg.M) if i != m
            )
            margin = V * (cfg.price_set[k][-1] - cfg.alpha[k])
            best = max(best, margin / b + others / b + 2 * mu_max[m])
        theta.append(best)
    return theta


def make_params(
    cfg: PlantConfig,
    V: float,
    theta: list[float] | None = None,
    demand_blind: bool = False,
    allow_unsafe_theta: bool = False,
) -> ControllerParams:
    """Build controller parameters, defaulting theta to the safe thresholds.

    Larger overrides are accepted (the queue band just widens); smaller ones
    raise ThetaTooSmall unless allow_unsafe_theta is set, because they void
    the full-fulfillment guarantee.  V and each theta entry go through
    check_real, and the two flags must be bools.
    """
    message = f"V must be a positive finite number, got {V!r}"
    if check_real("V", V, message=message) == 0:
        raise InputError(message)
    check_class("demand_blind", bool, demand_blind)
    check_class("allow_unsafe_theta", bool, allow_unsafe_theta)
    safe = compute_theta(cfg, V)
    if theta is None:
        return ControllerParams(V=V, theta=safe, demand_blind=demand_blind)
    message = "theta must have one finite entry per material"
    for th in check_seq("theta", theta, cfg.M, message=message):
        check_real("theta", th, -math.inf, message=message)
    if not allow_unsafe_theta:
        for m in range(cfg.M):
            if theta[m] < safe[m] - 1e-12:
                raise ThetaTooSmall(
                    f"theta[{m}] = {theta[m]} is below the safe value {safe[m]}"
                )
    return ControllerParams(V=V, theta=theta, demand_blind=demand_blind)


def decide_purchase(
    Q: list[int], x: SupplyState, params: ControllerParams, cfg: PlantConfig
) -> list[int]:
    """Choose this slot's purchase vector.

    Minimizes V * spend + sum_m A[m] * (Q[m] - theta[m]) over the feasible
    purchases under supply state x.  Only materials with negative linear
    weight w[m] = V * unit_cost[m] + Q[m] - theta[m] are worth buying; they
    are bought at their caps when the budget allows, otherwise an exact
    bounded knapsack over integer cost units decides (see _knapsack_solve
    for its tie rule).  What does not depend on Q is built once per (x,
    buy set) and kept on the params' tables: V * unit_cost, the caps,
    whether they fit the budget and, if not, the knapsack plan and the
    maximal vectors found on it (see _candidates).  A knapsack call first
    reads the answer off those vectors (_scan), which gives the DP's
    vector whenever the best one leads by a proven rounding margin, and
    runs the DP (_knapsack_solve) only when it does not or when the plan
    has too many maximal vectors to keep.
    """
    _, vc, plans = _tables(params, cfg).supply(x)
    w = [v + q - th for v, q, th in zip(vc, Q, params.theta)]
    buy = tuple([m for m, wm in enumerate(w) if wm < 0])
    plan = plans.get(buy)
    if plan is None:
        plan = plans[buy] = _purchase_plan(x, buy, cfg)
    A, knapsack, cands = plan
    A = A[:]
    if knapsack is not None:
        values = [-w[m] for m in buy]
        counts = None if cands is None else _scan(cands, values)
        if counts is None:
            counts = _knapsack_solve(knapsack, values)
        for m, a in zip(buy, counts):
            A[m] = a
    return A


def _purchase_plan(x: SupplyState, buy: tuple[int, ...], cfg: PlantConfig) -> tuple:
    """What decide_purchase does under x for the materials buy, before values.

    Returns (A, None, None) when buying each material of buy at its cap
    fits the budget, A being that decision; otherwise (A, knapsack plan,
    candidates) with A all zeros, the template the knapsack's counts are
    written into, and the candidates _candidates finds on that plan.
    """
    caps = [min(cfg.A_max[m], x.available[m]) for m in buy]
    costs = [x.unit_cost[m] for m in buy]
    A = [0] * cfg.M
    if sum(c * a for c, a in zip(costs, caps)) > cfg.c_max:
        knapsack = _knapsack_plan(costs, caps, cfg.c_max)
        return A, knapsack, _candidates(costs, caps, knapsack)
    for m, a in zip(buy, caps):
        A[m] = a
    return A, None, None


# A plan keeps at most this many maximal vectors; a wider one (many
# materials, a large budget) decides through the DP alone.
_CANDIDATE_CAP = 64


def _candidates(costs: list[int], caps: list[int], plan: tuple) -> tuple | None:
    """The knapsack's feasible count vectors that no single extra unit extends.

    A vector a with 0 <= a <= caps and sum costs[i] * a[i] <= budget is
    maximal when every item below its cap costs more than the budget a
    leaves; every feasible vector lies below a maximal one.  Returns them
    all as (float matrix, one row each; list of tuples), which is what
    _scan reads, or None when there are more than _CANDIDATE_CAP.  The
    search runs on plan, the _knapsack_plan of (costs, caps, budget), and
    walks no budgets of its own: least[i][j], the least budget items i..
    can leave from the j-th budget of level i, is taken over the plan's
    moves up from the budgets its last level leaves, and prunes every
    prefix that no maximal vector extends (a least-leaving completion of
    an unpruned prefix is maximal).  So the work is the size of the plan
    plus about _CANDIDATE_CAP * n * max(caps) steps before the search
    gives up.
    """
    moves, _, _, left = plan
    n = len(costs)
    least: list = [None] * n + [left]
    for i in range(n - 1, -1, -1):
        nxt = least[i + 1]
        least[i] = nxt if moves[i] is None else [
            min([nxt[r] for r in js]) for js in moves[i]
        ]
    out: list = []
    # (item, position of the budget left, the least cost of an earlier
    # item below its cap, counts so far); the leftover must end below that
    # cost
    stack = [(0, 0, math.inf, ())]
    while stack:
        i, j, need, counts = stack.pop()
        if i == n:
            out.append(counts)
            if len(out) > _CANDIDATE_CAP:
                return None
            continue
        u, nxt = caps[i], least[i + 1]
        below = min(need, costs[i])  # the bound once item i stops below its cap
        # an item of cost 0 takes its cap and leaves the budget where it is
        for a, r in ((u, j),) if moves[i] is None else enumerate(moves[i][j]):
            bound = need if a == u else below
            if nxt[r] < bound:
                stack.append((i + 1, r, bound, counts + (a,)))
    return np.array(out, dtype=float), out


def _scan(cands: tuple, values: list[float]) -> tuple[int, ...] | None:
    """The knapsack's answer read off a plan's maximal vectors, or None.

    cands is (matrix, vectors) from _candidates, and the scores are
    matrix.dot(values).  The top vector is returned only when its score
    leads the runner-up's by more than the margin (n + 1) * 2**-50 * top +
    2**-1000, n = len(values), and every value exceeds that margin;
    otherwise the caller runs the DP.  That answer is exactly the DP's:

    * With values v >= 0, the DP's best[i][b] is the largest of its float
      nested sums over the item-i.. vectors that fit b, since fl(v * a + s)
      is monotone in s; its traceback takes, level by level, the smallest
      count that reaches that largest sum.
    * A float sum of n non-negative products, in any order and with or
      without fused multiply-adds, is within gamma_n = n u / (1 - n u) of
      the exact sum, u = 2**-53 (Higham, Accuracy and Stability of
      Numerical Algorithms, ch. 3).  So if every other feasible vector's
      exact value trails the top vector's by more than 2 gamma_n times
      it, the top vector's suffix is the strict float maximum at every
      level, and the traceback returns the top vector.
    * That gap holds for every other maximal vector, because the scores,
      each within gamma_n of exact, differ by more than 4 gamma_n * top;
      the margin is twice that.  A vector below the top one trails it by
      at least the smallest value, and any other vector lies below some
      other maximal vector.
    * The 2**-1000 term keeps every product and sum clear of underflow.
      An overflow gives an infinite top and margin, and so the DP.

    The scores need not be summed in the DP's order: the rule reads only
    how far apart they are, never which way a near-tie rounds.
    """
    matrix, vectors = cands
    scores = matrix.dot(values).tolist()
    top = max(scores)
    i = scores.index(top)
    scores[i] = -math.inf
    margin = (len(values) + 1) * 2.0**-50 * top + 2.0**-1000
    if top - max(scores) > margin and min(values) > margin:
        return vectors[i]
    return None


def _knapsack_plan(costs: list[int], caps: list[int], budget: int) -> tuple:
    """The part of the knapsack (_knapsack_solve) that does not depend on values.

    Returns (moves, steps, zeros, left).  For an item i of positive cost,
    moves[i][j] lists, for the j-th budget b that items 0..i-1 can leave,
    the position of b - costs[i] * a among the budgets item i can leave, for
    each count a from 0 to min(caps[i], b // costs[i]); position 0 is always
    the full budget.  steps[i] is what the DP of item i reads per budget:
    for the last item its top count, since every budget after it is worth
    0.0; for the others the position of count 0 and the (count, position)
    pairs of the rest, in count order.  An item of cost 0 leaves every
    budget where it is: moves[i] is None and steps[i] is its cap, so no
    list grows with the cap.  left lists the budgets the last item can
    leave, in position order, and zeros is the all-0.0 row after it.
    """
    moves: list = []
    steps: list = []
    reach = [budget]
    for i, (c, u) in enumerate(zip(costs, caps)):
        if c == 0:
            moves.append(None)
            steps.append(u)
            continue
        pos: dict[int, int] = {}  # remaining budget -> its position
        level = [
            [pos.setdefault(b - c * a, len(pos)) for a in range(min(u, b // c) + 1)]
            for b in reach
        ]
        moves.append(level)
        if i == len(costs) - 1:
            steps.append([len(js) - 1 for js in level])
        else:
            steps.append([(js[0], tuple(enumerate(js))[1:]) for js in level])
        reach = list(pos)
    return moves, steps, [0.0] * len(reach), reach


def _knapsack_solve(plan: tuple, values: list[float]) -> list[int]:
    """Maximize sum values[i]*a[i] st sum costs[i]*a[i] <= budget, 0 <= a <= caps.

    The DP and traceback on a _knapsack_plan of the costs, caps and budget,
    which decide_purchase keeps and reruns per call.  best[i][b], the
    optimum over items i.. with budget b, is evaluated only at the budgets
    that items 0..i-1 can leave, so time and memory scale with those
    reachable budgets, not with the budget itself nor with the cap of an
    item of cost 0.  Item i then takes the smallest count whose score,
    recomputed with the identical arithmetic, equals best[i][b]: where
    rounding absorbs a small value, later items still maximize their own
    suffix, so values [100, 1e-15], costs [3, 0], caps [4, 1] and budget
    13 give [4, 1], not the tied [4, 0].

    rows[i][j] is best[i][b] at the j-th budget b of level i.  Each score is
    v * a + best[i + 1][b - cost * a], compared in count order with
    cand > m from m = best[i + 1][b].  For an item of cost 0 the score
    v * a + m is monotone in a, as rounding is, so the DP compares count 0
    with the cap alone and the traceback bisects the counts; both give what
    the scan over every count gives.  The last item's scores are
    v * a + 0.0 against a start of 0.0, so its row is closed: for v > 0 the
    rounded products v * a never decrease in a, and the scan ends at
    v * top for a top count top > 0 (an overflow to inf included); for
    v <= 0, NaN or top = 0 no score beats 0.0.  top = 0 is kept apart
    because inf * 0 is NaN.
    """
    moves, steps, zeros, _ = plan
    n = len(moves)
    rows: list = [None] * n + [zeros]
    for i in range(n - 1, -1, -1):
        v, step, nxt = values[i], steps[i], rows[i + 1]
        if moves[i] is None:
            row = []
            for m in nxt:
                cand = v * step + m
                row.append(cand if cand > m else m)
        elif i == n - 1:
            row = [v * top if v > 0 and top else 0.0 for top in step]
        else:
            va = [v * a for a in range(len(moves[i][0]))]
            row = []
            for j0, rest in step:
                m = nxt[j0]
                for a, j in rest:
                    cand = va[a] + nxt[j]
                    if cand > m:
                        m = cand
                row.append(m)
        rows[i] = row
    out = [0] * n
    j = 0
    for i in range(n):
        v, nxt, target = values[i], rows[i + 1], rows[i][j]
        if moves[i] is None:
            m, cap = nxt[j], steps[i]
            if v * 0 + m != target:
                a = bisect_left(range(cap + 1), target, 1, key=lambda a: v * a + m)
                if a <= cap and v * a + m == target:
                    out[i] = a
            continue
        js = moves[i][j]
        j = js[0]
        for a, r in enumerate(js):
            if v * a + nxt[r] == target:
                out[i] = a
                j = r
                break
    return out


def decide_pricing(
    Q: list[int], y: DemandState, params: ControllerParams, cfg: PlantConfig
) -> tuple[list[int], list[float]]:
    """Choose offer flags Z and prices P for this slot.

    Product k scores each price p by V * (p - alpha[k]) * F + F * relief,
    where relief is the queue headroom sum_m beta[m][k] * (Q[m] - theta[m])
    and F is the mean demand at p.  The best strictly positive score wins
    (ties go to the smaller price); otherwise the product is withheld, as it
    is whenever a feeder queue is below its worst-case one-slot consumption.
    In demand-blind mode the state-independent base table F_hat replaces F,
    which leaves the decision unchanged whenever the true tables are the
    base table scaled by a positive state factor.  Every relief comes from
    one pass d = Q - theta, as sum(map(mul, beta column, d)): the
    materials product k does not consume add a zero product, so the sum
    equals the one over the feeders alone except perhaps for the sign of
    a zero, which no comparison below can see.
    """
    t = _tables(params, cfg)
    rows = t.demand(y)
    low = any(map(lt, Q, t.mu_max))  # false inside the queue band
    d = list(map(sub, Q, params.theta))
    Z = [0] * cfg.K
    P = t.first_prices[:]
    for k, col in enumerate(t.columns):
        if low and any(Q[m] < t.mu_max[m] for m in t.feeders[k]):
            continue
        if rows is None:
            raise InputError(
                f"demand state {y.id!r} has no base table for blind pricing"
            )
        relief = sum(map(mul, col, d))
        best = -np.inf
        for p, vm, f in rows[k]:
            g = vm + f * relief
            if g > best:
                best = g
                P[k] = p
        if best > 0:
            Z[k] = 1
    return Z, P


def queue_band(
    params: ControllerParams, cfg: PlantConfig
) -> tuple[list[int], list[float]]:
    """The band [mu_max[m], theta[m] + A_max[m]] the controller keeps Q[m] in."""
    mu_max = _tables(params, cfg).mu_max
    return list(mu_max), [th + a for th, a in zip(params.theta, cfg.A_max)]


def check_start(name: str, Q0, lo, hi) -> list[int]:
    """The start rule of every run: Q0 as one integer per material in [lo, hi]."""
    message = f"{name} must have one entry per material"
    check_seq(name, Q0, len(lo), error=InitOutOfRange, message=message)
    return [
        check_int(f"{name}[{m}]", q, a, b, error=InitOutOfRange)
        for m, (q, a, b) in enumerate(zip(Q0, lo, hi))
    ]


def init_state(
    cfg: PlantConfig, params: ControllerParams, Q0: list[int] | None = None
) -> ControllerState:
    """Start a run with physical inventory Q0 (default: exactly mu_max).

    The initial queues must already lie in queue_band, otherwise
    InitOutOfRange is raised.
    """
    lo, hi = queue_band(params, cfg)
    Q = check_start("Q0", lo if Q0 is None else Q0, lo, hi)
    return ControllerState(Q=Q, fake=[0] * cfg.M)


def init_placeholder(
    cfg: PlantConfig, params: ControllerParams, Q_actual_0: list[int]
) -> ControllerState:
    """Start a run that backs an arbitrary small physical stock with fake units.

    mu_max[m] fake units are booked into every queue, so control starts from
    Q[m] = Q_actual_0[m] + mu_max[m] and the plant can open with as little
    as zero physical inventory.  Because the controller never lets Q[m] drop
    below mu_max[m], the fake units are never consumed.
    """
    mu_max, hi = queue_band(params, cfg)
    room = [b - u for u, b in zip(mu_max, hi)]
    Q = check_start("Q_actual_0", Q_actual_0, [0] * cfg.M, room)
    return ControllerState(Q=[q + u for q, u in zip(Q, mu_max)], fake=mu_max)
