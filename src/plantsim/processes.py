"""Exogenous state processes and seeded randomness.

Supply and demand conditions evolve independently of the plant's actions.
Three process kinds are supported: i.i.d. draws from a fixed distribution,
a finite Markov chain, and a fixed recorded trace.  All randomness flows
through named streams derived from a single 64-bit seed, so runs and
replications are reproducible bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from plantsim.model import REAL_TYPES, DemandState, InputError, PlantConfig
from plantsim.model import check_class, check_int, check_seq

IID = "IID"
MARKOV = "MARKOV"
TRACE = "TRACE"

_MODES = (IID, MARKOV, TRACE)


class TraceExhausted(InputError):
    """A trace-driven process was asked for a slot beyond the recorded trace."""


class NotErgodic(InputError):
    """The chain has no unique stationary distribution reachable from everywhere."""


@dataclass(frozen=True)
class RngStream:
    """A named, seedable source of randomness.

    Streams with the same seed but different (stream, channel) pairs are
    statistically independent; identical triples always reproduce the same
    draw sequence.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        message = f"need integers seed, stream >= 0, got {self.seed!r}, {self.stream!r}"
        for v in (self.seed, self.stream):
            check_int("seed or stream", v, message=message)

    def generator(self, channel: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, channel))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass
class StateProcessSpec:
    """How one exogenous process (supply or demand side) evolves.

    state_ids lists the states in index order.  For IID, probs holds the
    sampling distribution over those indices.  For MARKOV, transition is a
    row-stochastic matrix and initial the starting index.  For TRACE, trace
    is the explicit finite sequence of state indices to replay.
    """

    mode: str
    state_ids: list[str]
    probs: list[float] | None = None
    transition: list[list[float]] | None = None
    initial: int = 0
    trace: list[int] | None = None

    def __post_init__(self) -> None:
        n = len(check_seq("state_ids", self.state_ids))
        if self.mode not in _MODES:
            raise InputError(f"unknown process mode {self.mode!r}")
        if n == 0:
            raise InputError("process needs at least one state")
        if self.mode == IID:
            check_distribution(self.probs, n, "IID probabilities")
        elif self.mode == MARKOV:
            message = "MARKOV process needs an n-by-n transition matrix"
            rows = check_seq("transition", self.transition, n, message=message)
            for row in rows:
                check_seq("transition row", row, n, message=message)
            for i, row in enumerate(rows):
                check_distribution(row, n, f"transition row {i}")
            message = "MARKOV initial state out of range"
            check_int("initial", self.initial, 0, n - 1, message=message)
        else:
            message = "TRACE process needs a non-empty trace"
            if not len(check_seq("trace", self.trace, message=message)):
                raise InputError(message)
            message = "trace contains an out-of-range state index"
            for s in self.trace:
                check_int("trace entry", s, 0, n - 1, message=message)


def check_distribution(p, n: int, name: str) -> np.ndarray:
    """p as an array, checked to be a probability vector over n states.

    Its entries must be numbers (REAL_TYPES, never bools or strings; an
    int or float array passes as it is), finite and non-negative, and sum
    to 1 within 1e-9; otherwise InputError names the first rule broken.
    """
    # A list of plain ints and floats, the common case, skips the entry loop.
    plain = isinstance(p, (list, tuple)) and {float, int}.issuperset(map(type, p))
    if not plain and not (isinstance(p, np.ndarray) and p.dtype.kind in "iuf"):
        shape = f"{name} must have length {n}"
        for v in check_seq(name, p, n, message=shape):
            if isinstance(v, (list, tuple)):
                raise InputError(shape)
            if isinstance(v, bool) or not isinstance(v, REAL_TYPES):
                raise InputError(f"{name} must be numbers, got {v!r}")
    try:
        p = np.asarray(p, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise InputError(f"{name} must be finite") from None
    if p.shape != (n,):
        raise InputError(f"{name} must have length {n}")
    # Plain floats: numpy calls cost more than they save on a few entries.
    # A NaN or infinite entry makes the sum NaN or infinite, so the entries
    # are tested one by one only when the sum is.
    v = p.tolist()
    total = sum(v)
    if not math.isfinite(total) and not all(map(math.isfinite, v)):
        raise InputError(f"{name} must be finite")
    if min(v, default=0.0) < 0:
        raise InputError(f"{name} must be non-negative")
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"{name} must sum to 1")
    return p


def constant_process(state_id: str) -> StateProcessSpec:
    """A degenerate process that stays in one state forever."""
    return StateProcessSpec(mode=IID, state_ids=[state_id], probs=[1.0])


def _cumulative(probs: list[float]) -> list[float]:
    # The last bucket is inf, so that rounding never lets bisect fall off the end.
    return [*accumulate(probs[:-1]), math.inf]


def generate_states(
    spec: StateProcessSpec, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample slots 0..horizon-1 of the process in one go.

    IID and Markov modes consume one uniform per slot (Markov none for slot
    0, which is the initial state) in slot order, exactly as a stepwise
    sampler drawing one uniform per transition would.  The path is a fresh
    array in every mode, never a view of a TRACE spec's own array, so the
    caller may change it in place.
    """
    check_class("spec", StateProcessSpec, spec)
    check_class("rng", np.random.Generator, rng)
    horizon = check_int("horizon", horizon)
    if spec.mode == IID:
        cum = _cumulative(spec.probs)
        return np.searchsorted(cum, rng.random(horizon), side="right").astype(np.int64)
    if spec.mode == MARKOV:
        rows = [_cumulative(row) for row in spec.transition]
        u = rng.random(horizon - 1).tolist() if horizon > 1 else []
        cur = spec.initial
        path = [cur]
        for v in u:
            cur = bisect_right(rows[cur], v)
            path.append(cur)
        return np.array(path[:horizon], dtype=np.int64)
    n = len(spec.trace)
    message = f"trace has {n} slots, {horizon} requested"
    check_int("horizon", horizon, 0, n, error=TraceExhausted, message=message)
    return np.array(spec.trace[:horizon], dtype=np.int64)


def stationary_distribution(spec: StateProcessSpec) -> np.ndarray:
    """Stationary distribution of a MARKOV process spec.

    Raises NotErgodic when the chain is reducible or periodic, which is
    decided from the transition graph.  Otherwise pi solves pi (T - I) = 0
    with one equation replaced by sum(pi) = 1, a nonsingular system for an
    irreducible chain, so slowly mixing chains cost no more than fast ones.
    Rounding negatives are clipped and the result renormalized.
    """
    check_class("spec", StateProcessSpec, spec)
    if spec.mode != MARKOV:
        raise InputError("stationary_distribution applies to MARKOV processes")
    T = np.asarray(spec.transition, dtype=float)
    _check_ergodic(T)
    n = T.shape[0]
    a = T.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(a, b), 0.0)
    return pi / pi.sum()


def _check_ergodic(T: np.ndarray) -> None:
    n = T.shape[0]
    edges = [[j for j in range(n) if T[i, j] > 0] for i in range(n)]
    redges = [[i for i in range(n) if T[i, j] > 0] for j in range(n)]
    level = _levels(edges)
    if len(level) < n or len(_levels(redges)) < n:
        raise NotErgodic("transition graph is not strongly connected")
    # Period of an irreducible chain via BFS levels: gcd over all edges of
    # level(u) + 1 - level(v); the chain is aperiodic iff the gcd is 1.
    g = 0
    for u in range(n):
        for v in edges[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    if g != 1:
        raise NotErgodic(f"chain is periodic with period {g}")


def _levels(edges: list[list[int]]) -> dict[int, int]:
    """The BFS level of each state that state 0 reaches along edges."""
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in edges[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def empirical_distribution(states: np.ndarray, n_states: int) -> np.ndarray:
    """Occupancy frequencies of a sampled state sequence."""
    return np.bincount(states, minlength=n_states) / len(states)


def realize_demand(
    k: int,
    price: float,
    y: DemandState,
    cfg: PlantConfig,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw the demand for product k offered at the given price in state y.

    The draw is binomial with D_max[k] trials and success probability
    F[k][price] / D_max[k], realized as a count of uniform variates below
    the success probability.  The mean is exactly the table entry and the
    support is {0, ..., D_max[k]}.  With size=n an array of n independent
    draws is returned, consuming the same uniforms as n scalar calls.
    """
    k = check_int("product index k", k, 0, cfg.K - 1)
    size = size if size is None else check_int("size", size)
    prices = cfg.price_set[k]
    try:
        j = prices.index(price)
    except ValueError:
        raise InputError(f"price {price} is not in price_set[{k}]") from None
    n = cfg.D_max[k]
    p = y.F[k][j] / n
    if size is None:
        u = rng.random(n)
        return int(np.count_nonzero(u < p))
    u = rng.random((size, n))
    return (u < p).sum(axis=1).astype(np.int64)
