"""Seeded instance generators for the benchmark.

Every generator takes a numpy Generator built from the workload seed and
returns plain scenario data (the JSON the ``plantsim`` scenario format
reads), so the program under test only ever sees generated input files.
"""

from __future__ import annotations

import numpy as np


def _iid(ids, rng):
    w = rng.uniform(0.5, 1.5, size=len(ids))
    w = w / w.sum()
    probs = [float(p) for p in w]
    probs[-1] = 1.0 - sum(probs[:-1])
    return {"mode": "IID", "probs": dict(zip(ids, probs))}


def _beta(M, K, hi, rng):
    """Integer bill of materials in [0, hi] with no orphan product or material."""
    beta = [[int(rng.integers(0, hi + 1)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    for m in range(M):
        if all(beta[m][k] == 0 for k in range(K)):
            beta[m][int(rng.integers(0, K))] = 1
    return beta


def _demand_row(prices, d_max, rng):
    """Mean demand per menu price, non-increasing in price, at most d_max."""
    f = np.sort(rng.uniform(0.0, d_max, size=len(prices)))[::-1]
    return [round(float(v), 3) for v in f]


def mid_instance(rng: np.random.Generator, name: str = "mid") -> dict:
    """M=3, K=4, 4 supply x 4 demand IID states, V=100.

    c_max=12 against up to 6 units of three materials at unit costs 1-3
    makes the purchase budget bind on most queue states that want to buy,
    so the controller's bounded-knapsack path runs on most memo misses.
    """
    M, K = 3, 4
    d_max = [3] * K
    price_set = [
        [float(p) for p in sorted(rng.choice(np.arange(4, 15), size=3, replace=False))]
        for _ in range(K)
    ]
    supply = [
        {
            "id": f"x{i}",
            "unit_cost": [int(rng.integers(1, 4)) for _ in range(M)],
            "available": [int(rng.integers(2, 7)) for _ in range(M)],
        }
        for i in range(4)
    ]
    demand = [
        {"id": f"y{i}", "F": [_demand_row(price_set[k], d_max[k], rng) for k in range(K)]}
        for i in range(4)
    ]
    return {
        "name": name,
        "beta": _beta(M, K, 2, rng),
        "alpha": [1.0] * K,
        "price_set": price_set,
        "D_max": d_max,
        "A_max": [6] * M,
        "c_max": 12,
        "supply_states": supply,
        "demand_states": demand,
        "process_x": _iid([s["id"] for s in supply], rng),
        "process_y": _iid([d["id"] for d in demand], rng),
        "V": 100.0,
    }


def small_instance(rng: np.random.Generator, for_brute: bool, name: str) -> dict:
    """A random small plant: M, K <= 3 and at most 3 states per process.

    With for_brute set it is cheap for the exhaustive search: M <= 2, K = 1, at
    most 2 supply states, one demand state and at most 3 prices.  With two
    products or two demand states the search's exact mixing step took up to
    2.6 s and 300 MB on single instances and refused one of 1,500 sampled
    instances with InstanceTooLarge.
    """
    lim = 2 if for_brute else 3
    M = int(rng.integers(1, lim + 1))
    K = 1 if for_brute else int(rng.integers(1, lim + 1))
    menu = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    price_set = [
        [menu[i] for i in sorted(rng.choice(len(menu), size=int(rng.integers(1, 4)), replace=False))]
        for _ in range(K)
    ]
    d_max = [int(rng.integers(1, 3)) for _ in range(K)]
    supply = [
        {
            "id": f"x{i}",
            "unit_cost": [int(rng.integers(0, 3)) for _ in range(M)],
            "available": [int(rng.integers(0, 3)) for _ in range(M)],
        }
        for i in range(int(rng.integers(1, lim + 1)))
    ]
    demand = [
        {"id": f"y{i}", "F": [_demand_row(price_set[k], d_max[k], rng) for k in range(K)]}
        for i in range(1 if for_brute else int(rng.integers(1, lim + 1)))
    ]
    return {
        "name": name,
        "beta": _beta(M, K, 2, rng),
        "alpha": [float(rng.choice([0.0, 0.5])) for _ in range(K)],
        "price_set": price_set,
        "D_max": d_max,
        "A_max": [int(rng.integers(1, 3)) for _ in range(M)],
        "c_max": int(rng.integers(0, 4)),
        "supply_states": supply,
        "demand_states": demand,
        "process_x": _iid([s["id"] for s in supply], rng),
        "process_y": _iid([d["id"] for d in demand], rng),
    }


def wide_instance(unit_cost: list[int], name: str) -> dict:
    """The wide-budget stationary LP: 8 rows, over 10k purchase columns."""
    return {
        "name": name,
        "beta": [[1, 1]] * 5,
        "alpha": [0.0, 0.0],
        "price_set": [[1.0, 50.0, 100.0]] * 2,
        "D_max": [2, 2],
        "A_max": [8] * 5,
        "c_max": 30,
        "supply_states": [{"id": "s0", "unit_cost": unit_cost, "available": [8] * 5}],
        "demand_states": [{"id": "d0", "F": [[2.0, 1.0, 0.5], [2.0, 1.0, 0.5]]}],
        "process_x": {"mode": "IID", "probs": {"s0": 1.0}},
        "process_y": {"mode": "IID", "probs": {"d0": 1.0}},
    }


WIDE_OK_COST = [3, 1, 2, 1, 3]
WIDE_FAIL_COST = [2, 2, 1, 1, 3]
