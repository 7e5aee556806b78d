"""The executable specification: the package's rules, written out slowly.

Each function here transcribes one rule the plain way, as the package
wrote it before it was made fast: the controller's purchase decision (a
bounded knapsack) and menu-price argmax, the oracles' enumeration of
purchase vectors, stationary-profit LP and per-slot frame program, the
simplex's pivot loop, the state processes' draws one slot at a time, the
oracle policy readers entry by entry, a short playback slot with its
fulfillment rule, and an episode's slot loop.  The tests hold the package
to these functions, most of them bit for bit; the package never imports
this module.

The reference slot loop looks decide_purchase, decide_pricing and
queue_band up on plantsim.simulator, so a test that patches them there
reaches both loops; bland_solve and tableau_solve swap their pivot loop
in for simplex._iterate.
"""

import itertools
import math
from bisect import bisect_right
from operator import add, mul, sub
from unittest import mock

import numpy as np

import plantsim.simulator as sim
from plantsim import oracles, simplex
from plantsim.controller import (
    ControllerParams,
    ControllerState,
    InitOutOfRange,
    InvariantViolation,
    init_placeholder,
    init_state,
    make_params,
)
from plantsim.model import (
    DemandState,
    InputError,
    PlantConfig,
    SupplyState,
    check_int,
    check_seq,
    material_usage,
    purchase_cost,
    schedule_fulfillment,
)
from plantsim.oracles import ActionSpaceTooLarge, enumerate_actions, product_options
from plantsim.processes import (
    IID,
    RngStream,
    StateProcessSpec,
    _cumulative,
    check_distribution,
    generate_states,
)
from plantsim.simplex import LinearProgram, Unbounded, solve_lp
from plantsim.simulator import (
    _CH_DEMAND,
    _CH_POLICY,
    _CH_X,
    _CH_Y,
    EpisodeConfig,
    Metrics,
    drift_constant,
)


# -- controller decisions ----------------------------------------------------
# The decisions as they were before the per-model tables and the
# reachable-budget knapsack, kept verbatim (renamed) so the tests can show
# the table-driven versions return exactly the same results.


def _ref_decide_purchase(
    Q: list[int], x: SupplyState, params: ControllerParams, cfg: PlantConfig
) -> list[int]:
    """Choose this slot's purchase vector.

    Minimizes V * spend + sum_m A[m] * (Q[m] - theta[m]) over the feasible
    purchases under supply state x.  Only materials with negative linear
    weight w[m] = V * unit_cost[m] + Q[m] - theta[m] are worth buying; they
    are bought at their caps when the budget allows, otherwise an exact
    bounded knapsack over integer cost units decides, returning the
    lexicographically smallest optimal vector.
    """
    M = cfg.M
    w = [params.V * x.unit_cost[m] + Q[m] - params.theta[m] for m in range(M)]
    ub = [min(cfg.A_max[m], x.available[m]) for m in range(M)]
    want = [ub[m] if w[m] < 0 else 0 for m in range(M)]
    if purchase_cost(want, x) <= cfg.c_max:
        return want

    items = [m for m in range(M) if w[m] < 0]
    values = [-w[m] for m in items]
    costs = [x.unit_cost[m] for m in items]
    caps = [ub[m] for m in items]
    picked = _ref_knapsack(values, costs, caps, cfg.c_max)
    A = [0] * M
    for m, a in zip(items, picked):
        A[m] = a
    return A


def _ref_knapsack(
    values: list[float], costs: list[int], caps: list[int], budget: int
) -> list[int]:
    """Maximize sum values[i]*a[i] st sum costs[i]*a[i] <= budget, 0 <= a <= caps.

    Returns the lexicographically smallest maximizer.  best[i][b] holds the
    optimum over items i.. with budget b; the reconstruction pass recomputes
    candidate scores with the identical arithmetic, so exact float equality
    identifies optimal choices.
    """
    n = len(values)
    best = [[0.0] * (budget + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        v, cost, cap = values[i], costs[i], caps[i]
        nxt = best[i + 1]
        row = best[i]
        for b in range(budget + 1):
            top = cap if cost == 0 else min(cap, b // cost)
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


def _ref_compute_indicators(Q: list[int], cfg: PlantConfig) -> list[int]:
    """Flag products whose feeder queues cannot cover worst-case demand.

    indicator[k] == 1 when some material m with beta[m][k] > 0 holds fewer
    than mu_max[m] units; such products must not be offered this slot.
    """
    mu_max = cfg.mu_max()
    low = [Q[m] < mu_max[m] for m in range(cfg.M)]
    return [
        int(any(low[m] and cfg.beta[m][k] > 0 for m in range(cfg.M)))
        for k in range(cfg.K)
    ]


def _ref_decide_pricing(
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
    ind = _ref_compute_indicators(Q, cfg)
    Z = [0] * cfg.K
    P = [0.0] * cfg.K
    for k in range(cfg.K):
        prices = cfg.price_set[k]
        if ind[k]:
            P[k] = prices[0]
            continue
        relief = sum(
            cfg.beta[m][k] * (Q[m] - params.theta[m]) for m in range(cfg.M)
        )
        if params.demand_blind:
            if y.F_hat is None:
                raise ValueError(
                    f"demand state {y.id!r} has no base table for blind pricing"
                )
            row = y.F_hat[k]
        else:
            row = y.F[k]
        best = -np.inf
        best_j = 0
        for j, p in enumerate(prices):
            f = row[j]
            g = params.V * (p - cfg.alpha[k]) * f + f * relief
            if g > best:
                best = g
                best_j = j
        P[k] = prices[best_j]
        if best > 0:
            Z[k] = 1
    return Z, P


def _maximal_by_brute_force(costs, caps, budget):
    """The maximal vectors _candidates keeps: in budget, no item can gain a unit."""
    out = set()
    for a in itertools.product(*(range(u + 1) for u in caps)):
        spend = sum(map(mul, costs, a))
        if spend <= budget and all(
            ai == u or spend + c > budget for ai, u, c in zip(a, caps, costs)
        ):
            out.add(a)
    return out


# -- the oracles' programs ---------------------------------------------------


def _ref_enumerate_actions(x, cfg):
    """enumerate_actions as a depth-first recursion over the materials.

    Kept as the reference for the level-by-level enumeration: it appends
    the vectors one at a time and raises when one more would pass the cap.
    """
    ub = [min(cfg.A_max[m], x.available[m]) for m in range(cfg.M)]
    out = []
    vec = [0] * cfg.M

    def rec(m, budget):
        if m == cfg.M:
            if len(out) >= oracles.ACTION_CAP:
                raise ActionSpaceTooLarge(
                    f"supply state {x.id!r} admits more than {oracles.ACTION_CAP} "
                    "purchase vectors"
                )
            out.append(tuple(vec))
            return
        cost = x.unit_cost[m]
        top = ub[m] if cost == 0 else min(ub[m], budget // cost)
        for a in range(top + 1):
            vec[m] = a
            rec(m + 1, budget - cost * a)
        vec[m] = 0

    rec(0, cfg.c_max)
    return out


def _reference_profit_lp(model, pi_x, pi_y) -> LinearProgram:
    """The stationary-profit LP as build_profit_lp wrote it, pass by pass.

    Kept as the reference for the block layout: it tracks a purchase offset
    per supply state and an option offset per (product, demand state), and
    fills the objective and each row kind in a separate loop.
    """
    cfg = model.cfg
    pi_x = np.asarray(pi_x, dtype=float)
    pi_y = np.asarray(pi_y, dtype=float)

    actions = [enumerate_actions(x, cfg) for x in model.supply_states]
    purchase_offset = []
    n = 0
    for acts in actions:
        purchase_offset.append(n)
        n += len(acts)
    option_offset: dict[tuple[int, int], int] = {}
    for k in range(cfg.K):
        n_opts = len(product_options(cfg, k))
        for yi in range(len(model.demand_states)):
            option_offset[(k, yi)] = n
            n += n_opts

    c = np.zeros(n)
    for xi, x in enumerate(model.supply_states):
        base = purchase_offset[xi]
        for ai, a in enumerate(actions[xi]):
            c[base + ai] = -pi_x[xi] * purchase_cost(list(a), x)
    for k in range(cfg.K):
        opts = product_options(cfg, k)
        for yi, y in enumerate(model.demand_states):
            base = option_offset[(k, yi)]
            for oi, (z, j) in enumerate(opts):
                if z:
                    c[base + oi] = (
                        pi_y[yi] * (cfg.price_set[k][j] - cfg.alpha[k]) * y.F[k][j]
                    )

    n_eq = len(actions) + cfg.K * len(model.demand_states) + cfg.M
    a_eq = np.zeros((n_eq, n))
    b_eq = np.zeros(n_eq)
    row = 0
    for xi, acts in enumerate(actions):
        a_eq[row, purchase_offset[xi] : purchase_offset[xi] + len(acts)] = 1.0
        b_eq[row] = 1.0
        row += 1
    for k in range(cfg.K):
        n_opts = len(product_options(cfg, k))
        for yi in range(len(model.demand_states)):
            base = option_offset[(k, yi)]
            a_eq[row, base : base + n_opts] = 1.0
            b_eq[row] = 1.0
            row += 1
    for m in range(cfg.M):
        for xi, acts in enumerate(actions):
            base = purchase_offset[xi]
            for ai, a in enumerate(acts):
                a_eq[row, base + ai] = pi_x[xi] * a[m]
        for k in range(cfg.K):
            if cfg.beta[m][k] == 0:
                continue
            opts = product_options(cfg, k)
            for yi, y in enumerate(model.demand_states):
                base = option_offset[(k, yi)]
                for oi, (z, j) in enumerate(opts):
                    if z:
                        a_eq[row, base + oi] -= (
                            pi_y[yi] * cfg.beta[m][k] * y.F[k][j]
                        )
        row += 1

    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq)


def _per_slot_lookahead(model, xs, ys) -> float:
    """Reference frame value: one purchase and offer block per slot.

    This is the frame program written out slot by slot, as lookahead_value
    built it before it solved the stationary program on the frame's state
    histogram.  Its size grows with T.
    """
    cfg = model.cfg
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equally long and non-empty")
    T = len(xs)
    states_x = [model.supply_states[i] for i in xs]
    states_y = [model.demand_states[i] for i in ys]

    actions = [enumerate_actions(x, cfg) for x in states_x]
    buy_offset = []
    n = 0
    for acts in actions:
        buy_offset.append(n)
        n += len(acts)
    opt_offset: dict[tuple[int, int], int] = {}
    for t in range(T):
        for k in range(cfg.K):
            opt_offset[(t, k)] = n
            n += len(product_options(cfg, k))

    c = np.zeros(n)
    for t in range(T):
        base = buy_offset[t]
        for ai, a in enumerate(actions[t]):
            c[base + ai] = -purchase_cost(list(a), states_x[t])
        for k in range(cfg.K):
            obase = opt_offset[(t, k)]
            for oi, (z, j) in enumerate(product_options(cfg, k)):
                if z:
                    c[obase + oi] = (
                        cfg.price_set[k][j] - cfg.alpha[k]
                    ) * states_y[t].F[k][j]

    n_eq = T + T * cfg.K + cfg.M
    a_eq = np.zeros((n_eq, n))
    b_eq = np.zeros(n_eq)
    row = 0
    for t in range(T):
        a_eq[row, buy_offset[t] : buy_offset[t] + len(actions[t])] = 1.0
        b_eq[row] = 1.0
        row += 1
    for t in range(T):
        for k in range(cfg.K):
            base = opt_offset[(t, k)]
            a_eq[row, base : base + len(product_options(cfg, k))] = 1.0
            b_eq[row] = 1.0
            row += 1
    for m in range(cfg.M):
        for t in range(T):
            base = buy_offset[t]
            for ai, a in enumerate(actions[t]):
                a_eq[row, base + ai] = a[m]
            for k in range(cfg.K):
                if cfg.beta[m][k] == 0:
                    continue
                obase = opt_offset[(t, k)]
                for oi, (z, j) in enumerate(product_options(cfg, k)):
                    if z:
                        a_eq[row, obase + oi] -= cfg.beta[m][k] * states_y[t].F[k][j]
        row += 1

    return solve_lp(LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq)).value


# -- the simplex's pivot loop ------------------------------------------------


def _bland_iterate(T, basis, obj, phase):
    """Reference pivot loop: Bland's rule in both phases.

    The smallest-index column with a positive reduced cost enters; the
    ratio test is the solver's own.  Slow on wide programs but simple, so
    test_simplex.py's equivalence tests compare solve_lp against it.
    """
    count = 0
    width = len(obj)
    while True:
        reduced = obj - obj[basis] @ T[:, :width]
        enter = -1
        for j in range(width):
            if reduced[j] > simplex._TOL:
                enter = j
                break
        if enter < 0:
            return count
        col = T[:, enter]
        best = -1
        best_ratio = np.inf
        for i in range(T.shape[0]):
            if col[i] > simplex._PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and best >= 0
                    and basis[i] < basis[best]
                ):
                    best = i
                    best_ratio = ratio
        if best < 0:
            if phase == 2:
                raise Unbounded(f"column {enter} can grow without bound")
            raise RuntimeError("phase 1 unbounded; this should be impossible")
        simplex._pivot(T, best, enter)
        basis[best] = enter
        count += 1
        if count > simplex._MAX_ITER:
            raise RuntimeError("simplex exceeded the iteration guard")


def bland_solve(lp):
    """solve_lp with Bland's rule in both phases: _bland_iterate for simplex._iterate."""
    with mock.patch.object(simplex, "_iterate", _bland_iterate):
        return solve_lp(lp)


def _tableau_pivot(T, row, col):
    """Reference pivot: divide the pivot row, then re-read the column and
    update each other non-zero row with a temporary of its own."""
    T[row] /= T[row, col]
    pivot_row = T[row]
    for i, f in enumerate(T[:, col].tolist()):
        if f != 0.0 and i != row:
            T[i] -= f * pivot_row


def _tableau_iterate(T, basis, obj, phase):
    """Reference pivot loop: solve_lp's pricing and ratio test, computed the
    plain way.

    It prices with obj[basis] taken afresh each iteration, reads the
    entering column once for the ratio test and once more for the
    elimination, and updates each row with T[i] -= f * pivot_row.  The
    kernel tests of test_simplex.py require solve_lp to match it bit for bit.
    """
    count = 0
    degenerate = 0
    width = len(obj)
    while True:
        reduced = obj - obj[basis] @ T[:, :width]
        enter = int(reduced.argmax())
        if reduced[enter] <= simplex._TOL:
            return count
        if phase == 1 or degenerate >= simplex._DEGENERATE_RUN:
            enter = int((reduced > simplex._TOL).argmax())
        rhs = T[:, -1].tolist()
        best = -1
        best_ratio = np.inf
        for i, a in enumerate(T[:, enter].tolist()):
            if a > simplex._PIVOT_TOL:
                ratio = rhs[i] / a
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and best >= 0
                    and basis[i] < basis[best]
                ):
                    best = i
                    best_ratio = ratio
        if best < 0:
            if phase == 2:
                raise Unbounded(f"column {enter} can grow without bound")
            raise RuntimeError("phase 1 unbounded; this should be impossible")
        degenerate = degenerate + 1 if best_ratio <= simplex._DEGENERATE_STEP else 0
        _tableau_pivot(T, best, enter)
        basis[best] = enter
        count += 1
        if count > simplex._MAX_ITER:
            raise RuntimeError("simplex exceeded the iteration guard")


def tableau_solve(lp):
    """solve_lp on the plain tableau kernel: _tableau_iterate for simplex._iterate."""
    with mock.patch.object(simplex, "_iterate", _tableau_iterate):
        return solve_lp(lp)


# -- state processes ---------------------------------------------------------


class StateProcess:
    """Stepwise reference sampler for the IID and Markov modes.

    next_state(t, rng) must be called with consecutive t starting at 0; it
    draws one uniform per IID slot and per Markov transition, which is the
    draw order generate_states must reproduce in one batch.
    """

    def __init__(self, spec: StateProcessSpec):
        self.spec = spec
        if spec.mode == IID:
            self._cum = _cumulative(spec.probs)
        else:
            self._rows = [_cumulative(row) for row in spec.transition]
        self._current = spec.initial

    def next_state(self, t: int, rng: np.random.Generator) -> int:
        if self.spec.mode == IID:
            return bisect_right(self._cum, rng.random())
        if t > 0:
            self._current = bisect_right(self._rows[self._current], rng.random())
        return self._current


# -- oracle policy readers --------------------------------------------------
# The readers of an OraclePolicy as they were before the fast test of plain
# entries: every entry through check_seq, check_int and check_distribution,
# named as it is read.  The package readers must return what these return,
# or raise the same InputError.


def _ref_read_purchases(policy, model) -> list[tuple[list, list]]:
    """Per supply state, ((A, cost) per entry, probabilities as floats)."""
    cfg, states = model.cfg, model.supply_states
    dists = _ref_read_dists("purchase_dist", policy.purchase_dist, len(states), 2)
    return [
        ([_ref_purchase_option(f"{at} purchase", a, x, cfg) for a, _ in e], p)
        for x, (at, e, p) in zip(states, dists)
    ]


def _ref_read_offers(policy, model) -> list[list[tuple[list, list]]]:
    """Per product and demand state, ((z, j) per entry, probabilities)."""
    cfg, n_y = model.cfg, len(model.demand_states)
    out = []
    for k, dists in enumerate(check_seq("price_dist", policy.price_dist, cfg.K)):
        n = len(cfg.price_set[k])
        dists = _ref_read_dists(f"price_dist[{k}]", dists, n_y, 3)
        out.append(
            [([_ref_offer_option(at, z, j, n) for z, j, _ in e], p) for at, e, p in dists]
        )
    return out


def _ref_read_dists(name: str, dists, n: int, fields: int) -> list[tuple]:
    """(name[i], entries, probabilities) of each of the n distributions."""
    out = []
    for i, dist in enumerate(check_seq(name, dists, n)):
        at = f"{name}[{i}]"
        entry = at + " entry"
        entries = [check_seq(entry, e, fields) for e in check_seq(at, dist)]
        p = [e[-1] for e in entries]
        p = check_distribution(p, len(p), f"{at} probabilities").tolist()
        out.append((at, entries, p))
    return out


def _ref_purchase_option(name: str, a, x: SupplyState, cfg: PlantConfig) -> tuple:
    """(A, cost) of purchase vector a in supply state x, checked feasible."""
    a = check_seq(name, a, cfg.M)
    A = [check_int(name, v, 0, min(c, n)) for v, c, n in zip(a, cfg.A_max, x.available)]
    cost = purchase_cost(A, x)
    if cost > cfg.c_max:
        raise InputError(f"{name} {A} spends {cost}, above c_max {cfg.c_max}")
    return A, cost


def _ref_offer_option(name: str, z, j, n_prices: int) -> tuple:
    """(z, j) of an offer option: z in {0, 1}; j a menu index if z, else -1."""
    if check_int(f"{name} z", z, 0, 1):
        return 1, check_int(f"{name} price index", j, 0, n_prices - 1)
    message = f"{name}: a withheld product has price index -1, got {j!r}"
    return 0, check_int(name, j, -1, -1, message=message)


# -- a short playback slot before its cached plan ----------------------------
# Playback served each short slot by sorting the offered products on every
# call; below are that rule and that slot, kept verbatim (renamed), which the
# cached fulfillment order and the plan must match bit for bit.


def _ref_schedule_fulfillment(Q, Z, P, D, cfg: PlantConfig) -> list[int]:
    """Demand D served greedily from queues Q: descending margin, ties by k."""
    K, alpha, beta = cfg.K, cfg.alpha, cfg.beta
    order = sorted(
        (k for k in range(K) if Z[k] == 1 and D[k] > 0),
        key=lambda k: (-(P[k] - alpha[k]), k),
    )
    residual = list(Q)
    out = [0] * K
    for k in order:
        n = D[k]
        for m, row in enumerate(beta):
            b = row[k]
            if b > 0:
                n = min(n, residual[m] // b)
        if n > 0:
            out[k] = n
            for m, row in enumerate(beta):
                residual[m] -= row[k] * n
    return out


def _ref_short_slot(cfg: PlantConfig, Q, dec, D) -> tuple:
    """(next Q, phi_actual, drift) of a short playback slot under (A, cost, Z, P)."""
    A, cost, Z, P = dec
    d_tilde = _ref_schedule_fulfillment(Q, Z, P, D, cfg)
    alpha = cfg.alpha
    phia = sum(Z[k] * d_tilde[k] * (P[k] - alpha[k]) for k in range(cfg.K)) - cost
    diff = tuple(map(sub, A, material_usage(d_tilde, cfg)))
    return tuple(map(add, Q, diff)), phia, 0.5 * sum(map(mul, diff, diff), 0.0)


# -- the slot loop before it memoized each draw's outcome --------------------
#
# run_episode memoizes what a (decision, demand draw) pair leads to and, for
# the online controller, the queues it leads to.  Below is the loop as it was
# before, slot by slot with every check, kept as the reference the memoized
# loop must match bit for bit.  It looks the controller functions up on the
# simulator module, so a test can patch them for both loops at once.


class _RefUniformBuffer:
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


def _reference_run_episode(ec: EpisodeConfig, model) -> Metrics:
    """run_episode as it was before it memoized what each draw leads to."""
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
    online = ec.controller == "online"
    if online:
        decide, state, band = _ref_online_setup(ec, model, sell)
    else:
        decide, state, band = _ref_oracle_setup(ec, model, sell, rs)
    xs = generate_states(ec.process_x, ec.horizon, rs.generator(_CH_X)).tolist()
    ys = generate_states(ec.process_y, ec.horizon, rs.generator(_CH_Y)).tolist()
    dbuf = _RefUniformBuffer(rs.generator(_CH_DEMAND))

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


def _ref_online_setup(ec: EpisodeConfig, model, sell):
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
        sim._check_blind_tables(model)
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
        A = sim.decide_purchase(Q, x, params, cfg)
        Z, P = sim.decide_pricing(Q, demand[yi], params, cfg)
        sells = [offers[yi][k][P[k]] for k in range(K) if Z[k]]
        return A, purchase_cost(A, x), Z, P, sells

    return decide, state, sim.queue_band(params, cfg)


def _ref_oracle_setup(ec: EpisodeConfig, model, sell, rs: RngStream):
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
    take = _RefUniformBuffer(rs.generator(_CH_POLICY)).take

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
