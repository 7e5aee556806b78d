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

import numpy as np

from plantsim.model import DemandState, PlantConfig

IID = "IID"
MARKOV = "MARKOV"
TRACE = "TRACE"

_MODES = (IID, MARKOV, TRACE)


class TraceExhausted(RuntimeError):
    """A trace-driven process was asked for a slot beyond the recorded trace."""


class NotErgodic(ValueError):
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
        n = len(self.state_ids)
        if self.mode not in _MODES:
            raise ValueError(f"unknown process mode {self.mode!r}")
        if n == 0:
            raise ValueError("process needs at least one state")
        if self.mode == IID:
            if self.probs is None or len(self.probs) != n:
                raise ValueError("IID process needs one probability per state")
            if any(p < 0 for p in self.probs):
                raise ValueError("IID probabilities must be non-negative")
            if abs(sum(self.probs) - 1.0) > 1e-9:
                raise ValueError("IID probabilities must sum to 1")
        elif self.mode == MARKOV:
            t = self.transition
            if t is None or len(t) != n or any(len(row) != n for row in t):
                raise ValueError("MARKOV process needs an n-by-n transition matrix")
            for i, row in enumerate(t):
                if any(p < 0 for p in row):
                    raise ValueError(f"transition row {i} has a negative entry")
                if abs(sum(row) - 1.0) > 1e-9:
                    raise ValueError(f"transition row {i} does not sum to 1")
            if not 0 <= self.initial < n:
                raise ValueError("MARKOV initial state out of range")
        else:
            if not self.trace:
                raise ValueError("TRACE process needs a non-empty trace")
            if any(not 0 <= s < n for s in self.trace):
                raise ValueError("trace contains an out-of-range state index")


def constant_process(state_id: str) -> StateProcessSpec:
    """A degenerate process that stays in one state forever."""
    return StateProcessSpec(mode=IID, state_ids=[state_id], probs=[1.0])


def _cumulative(probs: list[float]) -> list[float]:
    cum = []
    acc = 0.0
    for p in probs:
        acc += p
        cum.append(acc)
    # Guard the final bucket against rounding so bisect never falls off the end.
    cum[-1] = math.inf
    return cum


def generate_states(
    spec: StateProcessSpec, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample slots 0..horizon-1 of the process in one go.

    IID and Markov modes consume one uniform per slot (Markov none for slot
    0, which is the initial state) in slot order, exactly as a stepwise
    sampler drawing one uniform per transition would.
    """
    if spec.mode == IID:
        cum = np.cumsum(spec.probs)
        cum[-1] = np.inf
        return np.searchsorted(cum, rng.random(horizon), side="right").astype(np.int64)
    if spec.mode == MARKOV:
        rows = [_cumulative(row) for row in spec.transition]
        u = rng.random(horizon - 1).tolist() if horizon > 1 else []
        out = np.empty(horizon, dtype=np.int64)
        cur = spec.initial
        for t in range(horizon):
            if t > 0:
                cur = bisect_right(rows[cur], u[t - 1])
            out[t] = cur
        return out
    if horizon > len(spec.trace):
        raise TraceExhausted(
            f"trace has {len(spec.trace)} slots, {horizon} requested"
        )
    return np.asarray(spec.trace[:horizon], dtype=np.int64)


def stationary_distribution(spec: StateProcessSpec) -> np.ndarray:
    """Stationary distribution of a MARKOV process spec.

    Raises NotErgodic when the chain is reducible or periodic, which is
    decided from the transition graph.  Otherwise pi solves pi (T - I) = 0
    with one equation replaced by sum(pi) = 1, a nonsingular system for an
    irreducible chain, so slowly mixing chains cost no more than fast ones.
    Rounding negatives are clipped and the result renormalized.
    """
    if spec.mode != MARKOV:
        raise ValueError("stationary_distribution applies to MARKOV processes")
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
    if len(_reachable(edges, 0)) < n or len(_reachable(redges, 0)) < n:
        raise NotErgodic("transition graph is not strongly connected")
    # Period of an irreducible chain via BFS levels: gcd over all edges of
    # level(u) + 1 - level(v); the chain is aperiodic iff the gcd is 1.
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
    g = 0
    for u in range(n):
        for v in edges[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    if g != 1:
        raise NotErgodic(f"chain is periodic with period {g}")


def _reachable(edges: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in edges[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


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
    prices = cfg.price_set[k]
    try:
        j = prices.index(price)
    except ValueError:
        raise ValueError(f"price {price} is not in price_set[{k}]") from None
    n = cfg.D_max[k]
    p = y.F[k][j] / n
    if size is None:
        u = rng.random(n)
        return int(np.count_nonzero(u < p))
    u = rng.random((size, n))
    return (u < p).sum(axis=1).astype(np.int64)
