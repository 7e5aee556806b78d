"""Optimality oracles for the plant control problem.

The central object is a linear program over stationary randomized policies:
a distribution over feasible purchase vectors for every supply state and a
distribution over offer/price options for every product and demand state,
tied together by a per-material balance between mean purchases and mean
consumption.  Its optimum is the best long-run average profit any policy
can achieve, which online controllers are measured against.  Its columns
form one block per supply state and per (product, demand state) pair.

Also provided: an exhaustive search over pure and exactly-mixed policies
(an independent cross-check of the LP), extraction of the optimal
policy from the LP solution, a reduction of any per-state price
distribution to at most two support points without losing revenue, and the
clairvoyant value of a frame of an arbitrary state trace.  The frame program
couples its slots only through per-material totals, so slots in the same
state pool onto one distribution without loss: a frame of T slots is worth
T times the stationary optimum of the full model on its state histogram.

A stationary policy given from outside, to be played back by the
simulator or reduced here, is read and checked here, by one reader per
part of the policy: _read_purchases and _read_offers.  Each takes an entry
of plain lists, tuples, Python ints and floats that passes a short inline
test as it is, and reads any other through the check_* rules, which name
its fault.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from plantsim.model import (
    InputError,
    Model,
    PlantConfig,
    SupplyState,
    check_class,
    check_int,
    check_seq,
    purchase_cost,
)
from plantsim.processes import check_distribution, empirical_distribution
from plantsim.simplex import LinearProgram, LpSolution, solve_lp


class ActionSpaceTooLarge(InputError):
    """A supply state admits more purchase vectors than the enumeration cap."""


class InstanceTooLarge(InputError):
    """The instance is beyond what the exhaustive search is meant for."""


class TargetOutsideHull(RuntimeError):
    """A mean demand target cannot be expressed by the available price options."""


class NormalizationFailure(RuntimeError):
    """An LP solution block did not form a probability distribution."""


ACTION_CAP = 100_000

# Offer options for one product: withhold, or offer at the j-th menu price.
IDLE = (0, -1)


def product_options(cfg: PlantConfig, k: int) -> list[tuple[int, int]]:
    return [IDLE] + [(1, j) for j in range(len(cfg.price_set[k]))]


def enumerate_actions(x: SupplyState, cfg: PlantConfig) -> list[tuple[int, ...]]:
    """All feasible purchase vectors under supply state x, lexicographically.

    Feasible means 0 <= A[m] <= min(A_max[m], available[m]) per material and
    total spend at most c_max.  Raises ActionSpaceTooLarge past the cap.

    The vectors are built one material at a time, each prefix carrying its
    unspent budget until the last material.  Every prefix extends at least
    by A[m] = 0, so no level is longer than the last; the cap is checked on
    each level's length before that level is built.
    """
    level: list[tuple[tuple[int, ...], int]] = [((), cfg.c_max)]
    for m in range(cfg.M):
        ub, cost = min(cfg.A_max[m], x.available[m]), x.unit_cost[m]
        tops = [ub if cost == 0 else min(ub, budget // cost) for _, budget in level]
        if len(tops) + sum(tops) > ACTION_CAP:
            raise ActionSpaceTooLarge(
                f"supply state {x.id!r} admits more than {ACTION_CAP} "
                "purchase vectors"
            )
        if m == cfg.M - 1:
            return [(*vec, a) for (vec, _), top in zip(level, tops) for a in range(top + 1)]
        level = [
            ((*vec, a), budget - cost * a)
            for (vec, budget), top in zip(level, tops)
            for a in range(top + 1)
        ]
    return [()]  # no materials: only the empty purchase


@dataclass
class ProfitLp:
    """The stationary-profit LP plus the layout needed to read its solution.

    blocks lists, in column order, the labels of each block's columns: the
    purchase vectors of every supply state, then the product_options of
    every (product k, demand state) pair, k outer.  Each non-empty block
    sums to one in its own equality row, in order; a state of probability 0
    has an empty block and no row.  The M balance rows follow.
    """

    lp: LinearProgram
    model: Model
    pi_x: np.ndarray
    pi_y: np.ndarray
    blocks: list[list]


def build_profit_lp(model: Model, pi_x, pi_y) -> ProfitLp:
    """Assemble the stationary-profit LP for given state distributions.

    Variables are the per-supply-state purchase distributions and the
    per-(product, demand state) offer distributions.  The objective is mean
    revenue net of assembly cost minus mean purchase spend; each block sums
    to one and mean purchases equal mean consumption per material.  Balance
    is written as an equality, which costs no optimality: any slack purchase
    mass can be shifted onto smaller vectors without raising the objective.
    A state of probability 0 adds nothing to either, so its block is empty
    and its purchase vectors are never enumerated.

    The purchase columns of all supply states come from one int64 array of
    their vectors: spend is an exact integer (at most c_max <= 2**53), so
    -w * spend and w * A round as the per-vector Python arithmetic did.
    """
    check_class("model", Model, model)
    cfg = model.cfg
    pi_x = check_distribution(pi_x, len(model.supply_states), "pi_x")
    pi_y = check_distribution(pi_y, len(model.demand_states), "pi_y")

    blocks = [
        enumerate_actions(x, cfg) if w > 0 else []
        for x, w in zip(model.supply_states, pi_x.tolist())
    ]
    w, spend, acts = _purchase_columns(model, pi_x, blocks)
    obj, flow = [], []
    for labels, c_block, flow_block in _offer_blocks(model, pi_y):
        blocks.append(labels)
        obj += c_block
        flow += flow_block
    rows = [labels for labels in blocks if labels]
    n_buy = len(w)
    c = np.concatenate([-w * spend, obj])
    a_eq = np.zeros((len(rows) + cfg.M, len(c)))
    np.multiply(acts.T, w, out=a_eq[len(rows) :, :n_buy])
    a_eq[len(rows) :, n_buy:] = np.array(flow).reshape(-1, cfg.M).T
    b_eq = np.concatenate([np.ones(len(rows)), np.zeros(cfg.M)])
    col = 0
    for i, labels in enumerate(rows):
        a_eq[i, col : col + len(labels)] = 1.0
        col += len(labels)
    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq)
    return ProfitLp(lp=lp, model=model, pi_x=pi_x, pi_y=pi_y, blocks=blocks)


def _purchase_columns(model: Model, pi_x: np.ndarray, blocks: list) -> tuple:
    """(weight, spend, vectors) of every purchase column, in column order.

    blocks holds each supply state's purchase vectors; all of them go
    through one int64 array, filled in one pass of exactly its length.  A
    column's weight is its state's probability and its spend the vector
    times its state's unit costs.
    """
    sizes, M = [len(acts) for acts in blocks], model.cfg.M
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(blocks))
    acts = np.fromiter(flat, np.int64, sum(sizes) * M).reshape(-1, M)
    spend = np.empty(len(acts), dtype=np.int64)
    col = 0
    for x, size in zip(model.supply_states, sizes):
        if size:
            np.matmul(acts[col : col + size], x.unit_cost, out=spend[col : col + size])
            col += size
    return np.repeat(pi_x, sizes), spend, acts


def _offer_blocks(model: Model, pi_y: np.ndarray):
    """Yield each offer block's labels, objective entries and flows (M per column)."""
    # Plain floats: an offer block has a handful of columns, too few to pay
    # for numpy calls of its own.  The purchase columns, which are many, go
    # through _purchase_columns in one array instead.
    cfg = model.cfg
    for k in range(cfg.K):
        opts = product_options(cfg, k)
        net = [p - cfg.alpha[k] for p in cfg.price_set[k]]
        beta = [cfg.beta[m][k] for m in range(cfg.M)]
        for y, w in zip(model.demand_states, pi_y.tolist()):
            labels = opts if w > 0 else []
            f = [y.F[k][j] if z else 0.0 for z, j in labels]
            yield (
                labels,
                [(w * net[j]) * f_j if z else 0.0 for (z, j), f_j in zip(labels, f)],
                # 0.0 - x rather than -x, so that a zero flow stays +0.0.
                [0.0 - (w * b) * f_j for f_j in f for b in beta],
            )


def optimal_profit(model: Model, pi_x, pi_y) -> tuple[float, ProfitLp, LpSolution]:
    """Convenience wrapper: build and solve the stationary-profit LP."""
    plp = build_profit_lp(model, pi_x, pi_y)
    sol = solve_lp(plp.lp)
    return sol.value, plp, sol


@dataclass
class OraclePolicy:
    """A stationary randomized policy keyed by the current exogenous states.

    purchase_dist[xi] lists (purchase vector, probability); price_dist[k][yi]
    lists (z, price index, probability) with price index -1 meaning withheld.
    The aggregates are the policy's exact means under (pi_x, pi_y).
    """

    purchase_dist: list[list[tuple[tuple[int, ...], float]]]
    price_dist: list[list[list[tuple[int, int, float]]]]
    c_hat: float
    r_hat: float
    a_hat: list[float]
    mu_hat: list[float]
    phi: float


# The readers take these containers, and Python ints and floats in them, as
# they are; anything else goes through the check_* rules, which accept what
# they accept and read it to the same result.
_PLAIN = (list, tuple)


def _read_purchases(policy: OraclePolicy, model: Model) -> list[tuple[list, list]]:
    """The purchases of a policy: per supply state, (options, probabilities).

    Each option is the (A, cost) of its entry, checked feasible as in
    enumerate_actions: integers 0 <= A[m] <= min(A_max[m], available[m])
    whose spend is at most c_max.  A list or tuple of M Python ints in
    range is taken as it is; any other entry goes through check_seq and
    check_int, which name its fault.  Every distribution is read
    (_read_dists) before any option.
    """
    cfg, states = model.cfg, model.supply_states
    dists = _read_dists("purchase_dist", policy.purchase_dist, len(states), 2)
    out = []
    for x, (i, entries, p) in zip(states, dists):
        caps = list(map(min, cfg.A_max, x.available))
        opts = []
        for a, _ in entries:
            A = None
            if type(a) in _PLAIN and len(a) == cfg.M:
                for v, c in zip(a, caps):
                    if type(v) is not int or not 0 <= v <= c:
                        break
                else:
                    A = list(a)
            if A is None:
                at = f"purchase_dist[{i}] purchase"
                A = [check_int(at, v, 0, c) for v, c in zip(check_seq(at, a, cfg.M), caps)]
            cost = purchase_cost(A, x)
            if cost > cfg.c_max:
                raise InputError(
                    f"purchase_dist[{i}] purchase {A} spends {cost}, above c_max {cfg.c_max}"
                )
            opts.append((A, cost))
        out.append((opts, p))
    return out


def _read_offers(policy: OraclePolicy, model: Model) -> list[list[tuple[list, list]]]:
    """The offers of a policy: per product k, per demand state, (options,
    probabilities).

    Each option is the (z, j) of its entry: (1, a menu index) or (0, -1).
    A pair of Python ints of that form is taken as it is; any other goes
    through _offer_option, which names its fault.  Each product's
    distributions are read (_read_dists) before its options.  Only
    price_dist is read, so a policy without purchases, as two_price_reduce
    may be given, passes.
    """
    cfg, n_y = model.cfg, len(model.demand_states)
    out = []
    for k, dists in enumerate(check_seq("price_dist", policy.price_dist, cfg.K)):
        n = len(cfg.price_set[k])
        per_y = []
        for i, entries, p in _read_dists("price_dist", dists, n_y, 3, k):
            opts = []
            for z, j, _ in entries:
                ints = type(z) is int and type(j) is int
                if ints and (z == 1 and 0 <= j < n or z == 0 and j == -1):
                    opts.append((z, j))
                else:
                    opts.append(_offer_option(f"price_dist[{k}][{i}]", z, j, n))
            per_y.append((opts, p))
        out.append(per_y)
    return out


def _read_dists(name: str, dists, n: int, fields: int, k=None) -> list[tuple]:
    """(i, entries, probabilities) of each of the n distributions in dists.

    Distribution i lists entries of fields values each, an option then its
    probability; the caller reads the options.  A list or tuple of lists
    and tuples of fields values, whose probabilities are Python floats, sum
    to 1 within 1e-9 and are non-negative, is taken as it is.  Any other
    goes through check_seq and check_distribution, which name its first
    fault under name[i], and its probabilities come back as floats.  With
    k given, name[k] names dists, and a name is built only for a fault.
    """
    if type(dists) not in _PLAIN or len(dists) != n:
        check_seq(name if k is None else f"{name}[{k}]", dists, n)
    out = []
    for i, dist in enumerate(dists):
        if type(dist) in _PLAIN:
            p = []
            for e in dist:
                if type(e) not in _PLAIN or len(e) != fields or type(e[-1]) is not float:
                    break
                p.append(e[-1])
            else:
                # the sum first: it fails on a NaN or an infinite entry, and
                # on an empty distribution, which min would refuse
                if abs(sum(p) - 1.0) <= 1e-9 and min(p) >= 0:
                    out.append((i, dist, p))
                    continue
        at = f"{name}[{i}]" if k is None else f"{name}[{k}][{i}]"
        entries = [check_seq(at + " entry", e, fields) for e in check_seq(at, dist)]
        p = [e[-1] for e in entries]
        p = check_distribution(p, len(p), f"{at} probabilities").tolist()
        out.append((i, entries, p))
    return out


def _offer_option(name: str, z, j, n_prices: int) -> tuple:
    """(z, j) of an offer option: z in {0, 1}; j a menu index if z, else -1."""
    if check_int(f"{name} z", z, 0, 1):
        return 1, check_int(f"{name} price index", j, 0, n_prices - 1)
    message = f"{name}: a withheld product has price index -1, got {j!r}"
    return 0, check_int(name, j, -1, -1, message=message)


def extract_xy_policy(plp: ProfitLp, sol: LpSolution) -> OraclePolicy:
    """Read the optimal policy out of a solved stationary-profit LP.

    Each variable block is clipped of solver noise and renormalized; blocks
    whose mass strays from one raise NormalizationFailure.  The recomputed
    aggregates must reproduce the LP value and balance purchases against
    consumption to within 1e-9, which guards the bookkeeping end to end.
    A state of probability 0 (an empty block) comes out idle.
    """
    check_class("plp", ProfitLp, plp)
    check_class("sol", LpSolution, sol)
    model, cfg = plp.model, plp.model.cfg
    n_x, n_y = len(model.supply_states), len(model.demand_states)

    x = np.maximum(sol.x, 0.0)  # clipped of solver noise
    # Only the support of the solution, a few entries per block, is read
    # into Python; a block's probabilities are its entries over its total.
    support = np.flatnonzero(sol.x)
    cols, vals = support.tolist(), sol.x[support].tolist()
    negative = any(v < -1e-7 for v in vals)
    dists, col, a = [], 0, 0
    for i, labels in enumerate(plp.blocks):
        if not labels:
            dists.append([((0,) * cfg.M if i < n_x else IDLE, 1.0)])
            continue
        end = col + len(labels)
        b = bisect_left(cols, end, a)
        total = x[col:end].sum()
        bad = negative and any(v < -1e-7 for v in vals[a:b])
        if bad or abs(total - 1.0) > 1e-6:
            k = (i - n_x) // n_y
            what = f"offers of product {k}" if i >= n_x else f"purchases of state {i}"
            if bad:
                raise NormalizationFailure(f"{what}: negative probability mass")
            raise NormalizationFailure(f"{what}: mass {total} instead of 1")
        t = float(total)
        entries = zip(cols[a:b], vals[a:b])
        dists.append([(labels[j - col], p) for j, v in entries if (p := v / t) > 1e-12])
        col, a = end, b
    purchase_dist = dists[:n_x]
    offers = [[(z, j, p) for (z, j), p in d] for d in dists[n_x:]]
    price_dist = [offers[k * n_y : (k + 1) * n_y] for k in range(cfg.K)]

    c_hat = 0.0
    a_hat = [0.0] * cfg.M
    for xi, dist in enumerate(purchase_dist):
        w = plp.pi_x[xi]
        for a, p in dist:
            c_hat += w * p * purchase_cost(list(a), model.supply_states[xi])
            for m in range(cfg.M):
                a_hat[m] += w * p * a[m]
    r_hat = 0.0
    mu_hat = [0.0] * cfg.M
    for k in range(cfg.K):
        for yi, dist in enumerate(price_dist[k]):
            w = plp.pi_y[yi]
            y = model.demand_states[yi]
            for z, j, p in dist:
                if not z:
                    continue
                f = y.F[k][j]
                r_hat += w * p * (cfg.price_set[k][j] - cfg.alpha[k]) * f
                for m in range(cfg.M):
                    mu_hat[m] += w * p * cfg.beta[m][k] * f
    phi = r_hat - c_hat

    scale = 1.0 + abs(sol.value)
    if abs(phi - sol.value) > 1e-9 * scale:
        raise NormalizationFailure(
            f"policy profit {phi} does not reproduce the LP value {sol.value}"
        )
    for m in range(cfg.M):
        if abs(a_hat[m] - mu_hat[m]) > 1e-9 * (1.0 + abs(mu_hat[m])):
            raise NormalizationFailure(
                f"material {m}: mean purchases {a_hat[m]} do not balance "
                f"mean consumption {mu_hat[m]}"
            )
    return OraclePolicy(
        purchase_dist=purchase_dist,
        price_dist=price_dist,
        c_hat=c_hat,
        r_hat=r_hat,
        a_hat=a_hat,
        mu_hat=mu_hat,
        phi=phi,
    )


@dataclass
class BruteForceResult:
    value: float
    pure_value: float
    is_pure: bool


def brute_force_opt(model: Model, pi_x, pi_y) -> BruteForceResult:
    """Search pure and mixed stationary policies exhaustively.

    Every pure policy (one purchase vector per supply state, one offer
    option per product and demand state) is evaluated exactly.  Mixtures
    are then searched with exact weights rather than on a grid: for every
    pair of pure policies the feasible weight interval is computed in
    closed form and the profit evaluated at its endpoints, and with two
    materials every triple is additionally checked at the point where both
    material balances are tight.  Only distinct undominated (profit, slack)
    points are mixed: rounded to 12 decimals, deduplicated by one
    lexicographic sort and cut by _pareto_max, since replacing a point by
    one that dominates it never lowers a mixture's profit or slack.  An
    optimal stationary policy mixes at most one extra policy per material
    balance, so this search attains the true optimum and the best value
    found both lower-bounds and, within rounding, matches the LP.  Meant
    for tiny instances only; raises InstanceTooLarge beyond two states per
    process, two products, two materials or three prices.
    """
    check_class("model", Model, model)
    cfg = model.cfg
    if (
        len(model.supply_states) > 2
        or len(model.demand_states) > 2
        or cfg.M > 2
        or cfg.K > 2
        or any(len(ps) > 3 for ps in cfg.price_set)
    ):
        raise InstanceTooLarge("exhaustive search is limited to tiny instances")
    pi_x = check_distribution(pi_x, len(model.supply_states), "pi_x")
    pi_y = check_distribution(pi_y, len(model.demand_states), "pi_y")

    # Combined purchase choices across supply states: (mean cost, mean A).
    blocks = [enumerate_actions(x, cfg) for x in model.supply_states]
    w, spend, acts = _purchase_columns(model, pi_x, blocks)
    cost, mean_a = w * spend, w[:, None] * acts
    per_x, col = [], 0
    for labels in blocks:
        per_x.append((cost[col : col + len(labels)], mean_a[col : col + len(labels)]))
        col += len(labels)
    buy_pts = _combine(per_x, cfg.M, cap=2000)

    # Combined offer choices across (product, demand state): (mean net
    # revenue, mean consumption).
    per_ky = []
    for k in range(cfg.K):
        beta_col = np.array([cfg.beta[m][k] for m in range(cfg.M)], dtype=float)
        for yi, y in enumerate(model.demand_states):
            rev, use = [0.0], [np.zeros(cfg.M)]  # IDLE, then each menu price
            for j, price in enumerate(cfg.price_set[k]):
                f = y.F[k][j]
                rev.append(pi_y[yi] * (price - cfg.alpha[k]) * f)
                use.append(pi_y[yi] * f * beta_col)
            per_ky.append((np.array(rev), np.array(use)))
    sell_pts = _combine(per_ky, cfg.M, cap=2000)

    if len(buy_pts[0]) * len(sell_pts[0]) > 200_000:
        raise InstanceTooLarge("too many pure policies to enumerate")

    buy_cost, buy_a = buy_pts
    sell_rev, sell_mu = sell_pts
    profit = -buy_cost[:, None] + sell_rev[None, :]
    slack = buy_a[:, None, :] - sell_mu[None, :, :]
    feasible = (slack >= -1e-12).all(axis=2)
    pure_value = float(profit[feasible].max())

    pts = np.concatenate(
        [profit[..., None], slack], axis=2
    ).reshape(-1, 1 + cfg.M)
    pts = _pareto_max(_distinct_rows(np.round(pts, 12)))
    if len(pts) > 600:
        raise InstanceTooLarge("too many undominated policies to mix exactly")

    best = pure_value
    if len(pts) >= 2:
        best = max(best, _best_pair_mix(pts))
    if cfg.M == 2 and len(pts) >= 3:
        best = max(best, _best_triple_mix(pts))

    return BruteForceResult(
        value=best, pure_value=pure_value, is_pure=pure_value >= best - 1e-12
    )


def _best_pair_mix(pts: np.ndarray) -> float:
    """Exact best profit over two-point mixtures with nonnegative slack.

    For points p, q the mixture (1-eta)p + eta*q is feasible on a weight
    interval found from the linear slack constraints; the profit is linear
    in eta, so only the interval endpoints need evaluating.
    """
    prof = pts[:, 0]
    s = pts[:, 1:]
    base = s[:, None, :]
    d = s[None, :, :] - base
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -base / d
    eps = 1e-14
    lo = np.maximum(np.where(d > eps, ratio, 0.0).max(axis=2), 0.0)
    hi = np.minimum(np.where(d < -eps, ratio, 1.0).min(axis=2), 1.0)
    dead = ((np.abs(d) <= eps) & (base < -1e-12)).any(axis=2)
    ok = ~dead & (lo <= hi + 1e-12)
    if not ok.any():
        return -np.inf
    dp = prof[None, :] - prof[:, None]
    at_lo = prof[:, None] + lo * dp
    at_hi = prof[:, None] + hi * dp
    return float(np.maximum(at_lo, at_hi)[ok].max())


def _best_triple_mix(pts: np.ndarray) -> float:
    """Exact best profit over three-point mixtures with both slacks tight.

    With two materials an optimal mixture can need three policies, but any
    such optimum not already covered by the pair search has both material
    balances active.  That leaves one candidate point per triple, found by
    a 2x2 linear solve and kept when it lies in the weight simplex.  The
    triples' index array is filled in one pass of exact length.
    """
    n = len(pts)
    count = n * (n - 1) * (n - 2) // 6
    if count > 2_000_000:
        raise InstanceTooLarge("too many policy triples to mix exactly")
    triples = itertools.chain.from_iterable(itertools.combinations(range(n), 3))
    idx = np.fromiter(triples, np.intp, 3 * count).reshape(-1, 3)
    p = pts[idx]  # (n_triples, 3, 1 + 2)
    pk, pi_, pj = p[:, 2], p[:, 0], p[:, 1]
    a11 = pi_[:, 1] - pk[:, 1]
    a12 = pj[:, 1] - pk[:, 1]
    a21 = pi_[:, 2] - pk[:, 2]
    a22 = pj[:, 2] - pk[:, 2]
    b1 = -pk[:, 1]
    b2 = -pk[:, 2]
    det = a11 * a22 - a12 * a21
    ok = np.abs(det) > 1e-12
    if not ok.any():
        return -np.inf
    det = np.where(ok, det, 1.0)
    e1 = (b1 * a22 - b2 * a12) / det
    e2 = (a11 * b2 - a21 * b1) / det
    ok &= (e1 >= -1e-12) & (e2 >= -1e-12) & (e1 + e2 <= 1.0 + 1e-12)
    if not ok.any():
        return -np.inf
    val = pk[:, 0] + e1 * (pi_[:, 0] - pk[:, 0]) + e2 * (pj[:, 0] - pk[:, 0])
    return float(val[ok].max())


def _combine(blocks, M: int, cap: int):
    """Cartesian sums of per-block contributions, (scalars, M-vectors) arrays each."""
    scalars = np.array([0.0])
    vectors = np.zeros((1, M))
    for s, v in blocks:
        scalars = (scalars[:, None] + s[None, :]).ravel()
        vectors = (vectors[:, None, :] + v[None, :, :]).reshape(-1, M)
        if len(scalars) > cap:
            raise InstanceTooLarge("too many pure policies to enumerate")
    return scalars, vectors


def _distinct_rows(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of a non-empty pts in lexicographic order, by one sort.

    The rows of np.unique(pts, axis=0) in its order.  Like np.unique it
    compares by value, so rows that differ only in the sign of a zero are
    one row; the stable sort keeps the first of them in input order, where
    np.unique's unstable sort may keep another.
    """
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]


def _pareto_max(pts: np.ndarray) -> np.ndarray:
    """Rows of pts not dominated coordinate-wise by another row."""
    keep = np.ones(len(pts), dtype=bool)
    step = max(1, 1_000_000 // max(pts.size, 1))  # rows compared at once
    for i in range(0, len(pts), step):
        p = pts[i : i + step, None, :]
        ge = (pts >= p - 1e-15).all(axis=2)
        gt = (pts > p + 1e-15).any(axis=2)
        keep[i : i + step] = ~(ge & gt).any(axis=1)
    return pts[keep]


@dataclass
class TwoPriceEntry:
    """Reduced offer distribution for one (product, demand state) pair."""

    support: list[tuple[int, int, float]]
    r_star: float
    d_target: float
    r_orig: float


@dataclass
class TwoPricePolicy:
    entries: list[list[TwoPriceEntry]]


def two_price_reduce(policy: OraclePolicy, model: Model) -> TwoPricePolicy:
    """Compress every per-state offer distribution to at most two options.

    For each (product, demand state) the achievable (mean demand, mean net
    revenue) pairs of the single options span a set whose upper concave
    envelope dominates every randomization.  The original mean demand is
    located on that envelope and expressed as a mix of the two bracketing
    options (one when it sits on a vertex), preserving mean demand exactly
    and never losing revenue.  The offers and their probabilities are read
    and checked as playback reads them (_read_offers); purchase_dist is not
    read.
    """
    check_class("policy", OraclePolicy, policy)
    check_class("model", Model, model)
    cfg = model.cfg
    entries: list[list[TwoPriceEntry]] = []
    for k, (ps, dists) in enumerate(zip(cfg.price_set, _read_offers(policy, model))):
        margin = [p - cfg.alpha[k] for p in ps]
        per_y = []
        for y, (opts, probs) in zip(model.demand_states, dists):
            F, offered = y.F[k], list(zip(opts, probs))
            d_hat = sum(p * F[j] for (z, j), p in offered if z)
            r_hat = sum(p * margin[j] * F[j] for (z, j), p in offered if z)
            pts = [(0.0, 0.0, IDLE)]
            pts += [(f, m * f, (1, j)) for j, (f, m) in enumerate(zip(F, margin))]
            per_y.append(_reduce_one(pts, d_hat, r_hat))
        entries.append(per_y)
    return TwoPricePolicy(entries=entries)


def _reduce_one(pts, d_hat: float, r_hat: float) -> TwoPriceEntry:
    """Reduce to the envelope of (mean demand, net revenue, label) points.

    The target's demand must lie in the envelope's range, and the envelope
    revenue reach r_hat, each to 1e-9 * (1 + scale): the rounding allowed
    in the probabilities (check_distribution) grows with the demand and
    revenue it weighs.
    """
    hull = _upper_hull(pts)
    ds = [h[0] for h in hull]
    tol = 1e-9 * (1.0 + max(abs(ds[0]), abs(ds[-1])))
    if d_hat < ds[0] - tol or d_hat > ds[-1] + tol:
        raise TargetOutsideHull(
            f"mean demand {d_hat} outside the achievable range "
            f"[{ds[0]}, {ds[-1]}]"
        )
    d = min(max(d_hat, ds[0]), ds[-1])
    i = bisect_left(ds, d)
    lo, hi = hull[i - 1], hull[i]
    # d on vertex i takes it alone, as eta = 1 (lo is then not read).
    eta = 1.0 if ds[i] == d else (d - lo[0]) / (hi[0] - lo[0])
    if eta <= 1e-12:
        support = [(lo[2][0], lo[2][1], 1.0)]
        r_star = lo[1]
    elif eta >= 1.0 - 1e-12:
        support = [(hi[2][0], hi[2][1], 1.0)]
        r_star = hi[1]
    else:
        support = [
            (lo[2][0], lo[2][1], 1.0 - eta),
            (hi[2][0], hi[2][1], eta),
        ]
        r_star = (1.0 - eta) * lo[1] + eta * hi[1]
    if r_star < r_hat - 1e-9 * (1.0 + abs(r_hat)):
        raise TargetOutsideHull(
            f"envelope revenue {r_star} fell below the original {r_hat}"
        )
    return TwoPriceEntry(support, r_star, d_hat, r_hat)


def _upper_hull(pts):
    """Upper concave envelope vertices of (d, r, label) points, d ascending."""
    best: dict[float, tuple[float, float, tuple[int, int]]] = {}
    for d, r, lab in pts:
        cur = best.get(d)
        if cur is None or r > cur[1]:
            best[d] = (d, r, lab)
    ordered = [best[d] for d in sorted(best)]
    hull: list[tuple[float, float, tuple[int, int]]] = []
    for p in ordered:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


@dataclass
class LookaheadResult:
    phi_T: float


def lookahead_value(model: Model, xs, ys) -> LookaheadResult:
    """Best expected profit over a known frame of exogenous states.

    xs and ys are state indices for the frame's T slots.  The clairvoyant
    program picks purchase and offer distributions for every slot under one
    per-material constraint: total expected purchases over the frame equal
    total expected consumption, so materials may be bought in any slot for
    use in any other.  Slots in the same state have the same coefficients,
    so replacing their distributions by their average changes neither the
    objective nor the material totals.  The optimum is therefore T times
    the stationary optimum of the full model on the frame's state
    histogram; unvisited states get empty blocks, so the program grows
    with the distinct states, not with T.  Staying idle is feasible, so the
    value is never negative.  An entry that is not an index in [0, n) raises InputError.
    """
    check_class("model", Model, model)
    value, _, _ = optimal_profit(model, *_histograms(model, xs, ys))
    return LookaheadResult(phi_T=len(xs) * value)


def _histograms(model: Model, xs, ys) -> list[np.ndarray]:
    """The supply and demand state frequencies of a frame, its entries checked."""
    message = "xs and ys must be equally long and non-empty"
    n = len(check_seq("xs", xs, message=message))
    check_seq("ys", ys, n, message=message)
    if not n:
        raise InputError(message)
    message = "xs or ys holds an entry outside the state indices [0, n)"
    pis = []
    for v, states in ((xs, model.supply_states), (ys, model.demand_states)):
        v = [check_int("index", s, 0, len(states) - 1, message=message) for s in v]
        pis.append(empirical_distribution(v, len(states)))
    return pis


def frame_values(model: Model, xs, ys, T: int, J: int) -> list[float]:
    """Lookahead values of the J consecutive T-slot frames of a trace.

    A frame's value depends only on its two state histograms, so
    lookahead_value runs once per distinct pair; every frame's entries are
    checked all the same.
    """
    n = min(len(check_seq("xs", xs)), len(check_seq("ys", ys)))
    message = (
        f"frame split T={T!r} J={J!r} does not fit the {n}-slot trace "
        f"(needs integers T, J >= 1 and J*T <= {n})"
    )
    T = check_int("T", T, 1, n, message=message)
    J = check_int("J", J, 1, n // T, message=message)
    check_class("model", Model, model)
    values = {}
    out = []
    for j in range(J):
        fx, fy = xs[j * T : (j + 1) * T], ys[j * T : (j + 1) * T]
        key = tuple(pi.tobytes() for pi in _histograms(model, fx, fy))
        if key not in values:
            values[key] = lookahead_value(model, fx, fy).phi_T
        out.append(values[key])
    return out
