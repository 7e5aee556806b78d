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
[mu_max[m], theta[m] + A_max[m]] on every sample path, and every accepted
slot of demand can be served in full.  The rest of what pricing reads is
fixed per model and tabulated once per ControllerParams, on first use; the
knapsack evaluates only the budgets reachable from the full budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from plantsim.model import DemandState, PlantConfig, SupplyState


class InvariantViolation(RuntimeError):
    """A queue left its guaranteed band; this indicates a bug, not bad input."""


class InitOutOfRange(ValueError):
    """Requested initial inventory is outside the band the controller maintains."""


class ThetaTooSmall(ValueError):
    """An override threshold is below the safe value and was not forced."""


@dataclass
class ControllerParams:
    """Tuning of the controller: V, per-material thresholds, demand-blind mode."""

    V: float
    theta: list[float]
    demand_blind: bool = False
    _cache: _Tables | None = field(default=None, init=False, repr=False, compare=False)


class _Tables:
    """What pricing reads besides the queues, for one (params, cfg) pair.

    demand(y) gives per product (p, V * (p - alpha) * F, F) for each menu
    price p, with F = y.F, or y.F_hat in blind mode (None if y lacks it).
    Built per state object on first use; y and params must not change after.
    """

    def __init__(self, params: ControllerParams, cfg: PlantConfig):
        self.cfg, self.V, self.blind = cfg, params.V, params.demand_blind
        self.mu_max = cfg.mu_max()
        # feeders[k]: (m, beta[m][k]) for each material product k consumes
        self.feeders = [
            [(m, row[k]) for m, row in enumerate(cfg.beta) if row[k] > 0]
            for k in range(cfg.K)
        ]
        self._rows: dict[int, tuple] = {}  # id(y) -> (y, rows); y keeps its id

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


def _tables(params: ControllerParams, cfg: PlantConfig) -> _Tables:
    t = params._cache
    if t is None or t.cfg is not cfg:
        t = params._cache = _Tables(params, cfg)
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

    def actual_inventory(self) -> list[int]:
        return [q - f for q, f in zip(self.Q, self.fake)]


def compute_theta(cfg: PlantConfig, V: float) -> list[float]:
    """Safe queue thresholds for a given V.

    For each material the threshold covers the best margin any consuming
    product could justify at weight V, the worst-case spend of the other
    materials feeding that product, and two slots of worst-case consumption.
    Materials no product consumes get threshold 0; they are never bought.
    """
    mu_max = cfg.mu_max()
    theta = []
    for m in range(cfg.M):
        best = 0.0
        found = False
        for k in range(cfg.K):
            b = cfg.beta[m][k]
            if b == 0:
                continue
            found = True
            others = sum(
                cfg.beta[i][k] * cfg.A_max[i] for i in range(cfg.M) if i != m
            )
            cand = (
                V * (cfg.max_price(k) - cfg.alpha[k]) / b
                + others / b
                + 2 * mu_max[m]
            )
            best = max(best, cand)
        theta.append(best if found else 0.0)
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
    the full-fulfillment guarantee.
    """
    if V <= 0:
        raise ValueError("V must be positive")
    safe = compute_theta(cfg, V)
    if theta is None:
        theta = safe
    elif len(theta) != cfg.M:
        raise ValueError("theta must have one entry per material")
    elif not allow_unsafe_theta:
        for m in range(cfg.M):
            if theta[m] < safe[m] - 1e-12:
                raise ThetaTooSmall(
                    f"theta[{m}] = {theta[m]} is below the safe value {safe[m]}"
                )
    return ControllerParams(V=V, theta=list(theta), demand_blind=demand_blind)


def decide_purchase(
    Q: list[int], x: SupplyState, params: ControllerParams, cfg: PlantConfig
) -> list[int]:
    """Choose this slot's purchase vector.

    Minimizes V * spend + sum_m A[m] * (Q[m] - theta[m]) over the feasible
    purchases under supply state x.  Only materials with negative linear
    weight w[m] = V * unit_cost[m] + Q[m] - theta[m] are worth buying; they
    are bought at their caps when the budget allows, otherwise an exact
    bounded knapsack over integer cost units decides (see
    _bounded_knapsack_lex_min for its tie rule).
    """
    w = [params.V * c + q - th for c, q, th in zip(x.unit_cost, Q, params.theta)]
    items = [m for m, wm in enumerate(w) if wm < 0]
    picked = [min(cfg.A_max[m], x.available[m]) for m in items]
    if sum(x.unit_cost[m] * a for m, a in zip(items, picked)) > cfg.c_max:
        values = [-w[m] for m in items]
        costs = [x.unit_cost[m] for m in items]
        picked = _bounded_knapsack_lex_min(values, costs, picked, cfg.c_max)
    A = [0] * cfg.M
    for m, a in zip(items, picked):
        A[m] = a
    return A


def _bounded_knapsack_lex_min(
    values: list[float], costs: list[int], caps: list[int], budget: int
) -> list[int]:
    """Maximize sum values[i]*a[i] st sum costs[i]*a[i] <= budget, 0 <= a <= caps.

    best[i][b], the optimum over items i.. with budget b, is evaluated only at
    the budgets reach[i] that items 0..i-1 can leave.  Item i then takes the
    smallest count whose score, recomputed with the identical arithmetic,
    equals best[i][b]: where rounding absorbs a small value, later items still
    maximize their own suffix, so values [100, 1e-15], costs [3, 0], caps
    [4, 1] and budget 13 give [4, 1], not the tied [4, 0].
    """
    n = len(values)
    reach = [{budget}]
    for c, u in zip(costs[: n - 1], caps):
        reach.append({b - c * a for b in reach[-1] for a in range(u + 1) if c * a <= b})
    best = [[0.0] * (budget + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        v, cost, cap = values[i], costs[i], caps[i]
        nxt = best[i + 1]
        row = best[i]
        for b in reach[i]:
            top = b // cost if cost else cap
            if top > cap:
                top = cap
            m = nxt[b]
            for a in range(1, top + 1):
                cand = v * a + nxt[b - cost * a]
                if cand > m:
                    m = cand
            row[b] = m
    out = [0] * n
    b = budget
    for i in range(n):
        v, cost, cap = values[i], costs[i], caps[i]
        top = cap if cost == 0 else min(cap, b // cost)
        target = best[i][b]
        for a in range(top + 1):
            if v * a + best[i + 1][b - cost * a] == target:
                out[i] = a
                b -= cost * a
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
    base table scaled by a positive state factor.
    """
    t = _tables(params, cfg)
    rows = t.demand(y)
    low = any(q < u for q, u in zip(Q, t.mu_max))  # false inside the queue band
    head = [q - th for q, th in zip(Q, params.theta)]
    Z = [0] * cfg.K
    P = [prices[0] for prices in cfg.price_set]
    for k, feed in enumerate(t.feeders):
        if low and any(Q[m] < t.mu_max[m] for m, _ in feed):
            continue
        if rows is None:
            raise ValueError(
                f"demand state {y.id!r} has no base table for blind pricing"
            )
        relief = sum([b * head[m] for m, b in feed])
        best = -np.inf
        for p, vm, f in rows[k]:
            g = vm + f * relief
            if g > best:
                best = g
                P[k] = p
        if best > 0:
            Z[k] = 1
    return Z, P


def init_state(
    cfg: PlantConfig, params: ControllerParams, Q0: list[int] | None = None
) -> ControllerState:
    """Start a run with physical inventory Q0 (default: exactly mu_max).

    The initial queues must already lie in the band the controller
    maintains, otherwise InitOutOfRange is raised.
    """
    mu_max = _tables(params, cfg).mu_max
    if Q0 is None:
        Q0 = list(mu_max)
    if len(Q0) != cfg.M:
        raise InitOutOfRange("Q0 must have one entry per material")
    for m in range(cfg.M):
        hi = params.theta[m] + cfg.A_max[m]
        if not mu_max[m] <= Q0[m] <= hi:
            raise InitOutOfRange(
                f"Q0[{m}] = {Q0[m]} outside [{mu_max[m]}, {hi}]"
            )
    return ControllerState(Q=list(Q0), fake=[0] * cfg.M)


def init_placeholder(
    cfg: PlantConfig, params: ControllerParams, Q_actual_0: list[int]
) -> ControllerState:
    """Start a run that backs an arbitrary small physical stock with fake units.

    mu_max[m] fake units are booked into every queue, so control starts from
    Q[m] = Q_actual_0[m] + mu_max[m] and the plant can open with as little
    as zero physical inventory.  Because the controller never lets Q[m] drop
    below mu_max[m], the fake units are never consumed.
    """
    mu_max = _tables(params, cfg).mu_max
    if len(Q_actual_0) != cfg.M:
        raise InitOutOfRange("Q_actual_0 must have one entry per material")
    Q = []
    for m in range(cfg.M):
        if Q_actual_0[m] < 0:
            raise InitOutOfRange(f"Q_actual_0[{m}] is negative")
        total = Q_actual_0[m] + mu_max[m]
        hi = params.theta[m] + cfg.A_max[m]
        if total > hi:
            raise InitOutOfRange(
                f"Q_actual_0[{m}] + mu_max[{m}] = {total} exceeds {hi}"
            )
        Q.append(total)
    return ControllerState(Q=Q, fake=list(mu_max))
