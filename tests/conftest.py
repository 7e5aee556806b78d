"""Shared instances for the test suite.

i1 is the single-material, single-product plant used throughout: beta=1,
alpha=0, prices {1, 2}, D_max=2, A_max=2, c_max=2, one supply state (cost
1, two units available) and one demand state (expected demand 2 at price
1, 1 at price 2).  Its stationary optimum is exactly 1 per slot.
"""

import signal

import numpy as np
import pytest

from plantsim.model import DemandState, PlantConfig, SupplyState, validate_config
from plantsim.simplex import LinearProgram


def make_i1_cfg():
    return PlantConfig(
        beta=[[1]],
        alpha=[0.0],
        price_set=[[1.0, 2.0]],
        D_max=[2],
        A_max=[2],
        c_max=2,
    )


def make_i1():
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="d0", F=[[2.0, 1.0]], h=1.0, F_hat=[[2.0, 1.0]])
    ]
    return validate_config(cfg, supply, demand)


def make_two_phase():
    """i1 plus an unaffordable supply state and a dead demand state.

    With c_max=2 the expensive state (unit cost 3) cannot fund a single
    unit, so traces alternating cheap-supply/no-demand with
    dear-supply/hot-demand force cross-slot planning.
    """
    cfg = make_i1_cfg()
    supply = [
        SupplyState(id="cheap", unit_cost=[1], available=[2]),
        SupplyState(id="dear", unit_cost=[3], available=[2]),
    ]
    demand = [
        DemandState(id="hot", F=[[2.0, 1.0]]),
        DemandState(id="cold", F=[[0.0, 0.0]]),
    ]
    return validate_config(cfg, supply, demand)


def make_blind():
    """Two demand states sharing one base table, scaled by 0.5 and 1.0."""
    cfg = make_i1_cfg()
    supply = [SupplyState(id="s0", unit_cost=[1], available=[2])]
    demand = [
        DemandState(id="lo", F=[[1.0, 0.5]], h=0.5, F_hat=[[2.0, 1.0]]),
        DemandState(id="hi", F=[[2.0, 1.0]], h=1.0, F_hat=[[2.0, 1.0]]),
    ]
    return validate_config(cfg, supply, demand)


def random_tiny_instance(rng):
    """A random instance small enough for the exhaustive oracle."""
    M = int(rng.integers(1, 3))
    K = int(rng.integers(1, 3))
    beta = [[int(rng.integers(0, 3)) for _ in range(K)] for _ in range(M)]
    for k in range(K):
        if all(beta[m][k] == 0 for m in range(M)):
            beta[int(rng.integers(0, M))][k] = 1
    for m in range(M):
        if all(beta[m][k] == 0 for k in range(K)):
            beta[m][int(rng.integers(0, K))] = 1
    menu = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    price_set = []
    for _ in range(K):
        n = int(rng.integers(1, 4))
        picks = sorted(rng.choice(len(menu), size=n, replace=False))
        price_set.append([menu[i] for i in picks])
    alpha = [float(rng.choice([0.0, 0.5])) for _ in range(K)]
    D_max = [int(rng.integers(1, 3)) for _ in range(K)]
    A_max = [int(rng.integers(1, 3)) for _ in range(M)]
    c_max = int(rng.integers(0, 4))
    cfg = PlantConfig(
        beta=beta,
        alpha=alpha,
        price_set=price_set,
        D_max=D_max,
        A_max=A_max,
        c_max=c_max,
    )
    n_x = int(rng.integers(1, 3))
    supply = [
        SupplyState(
            id=f"x{i}",
            unit_cost=[int(rng.integers(0, 3)) for _ in range(M)],
            available=[int(rng.integers(0, 3)) for _ in range(M)],
        )
        for i in range(n_x)
    ]
    n_y = int(rng.integers(1, 3))
    demand = [
        DemandState(
            id=f"y{i}",
            F=[
                [
                    round(float(rng.uniform(0, D_max[k])), 2)
                    for _ in price_set[k]
                ]
                for k in range(K)
            ],
        )
        for i in range(n_y)
    ]
    model = validate_config(cfg, supply, demand)
    pi_x = rng.uniform(0.2, 1.0, size=n_x)
    pi_x = pi_x / pi_x.sum()
    pi_y = rng.uniform(0.2, 1.0, size=n_y)
    pi_y = pi_y / pi_y.sum()
    return model, pi_x, pi_y


def doubled_rows(lp):
    """lp with every row and its right-hand side times 2.0: the same program.

    The scaling is exact, so the copy has the same feasible set and optimum.
    Where lp has a column whose only non-zero is 1.0, the copy has 2.0, so
    solve_lp starts the copy's rows on artificial columns.
    """
    return LinearProgram(
        c=lp.c,
        a_eq=np.asarray(lp.a_eq, dtype=float) * 2.0,
        b_eq=np.asarray(lp.b_eq, dtype=float) * 2.0,
    )


acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


# Seconds any one test may take.  The slowest take about 1 s; a fault
# that loops forever (say, a window search that stops advancing) fails
# its test here instead of stalling the suite with no message.
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test, by its node id, once it has run TEST_TIME_LIMIT seconds."""

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran over {TEST_TIME_LIMIT} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def i1_model():
    return make_i1()


@pytest.fixture
def i1_cfg():
    return make_i1_cfg()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
