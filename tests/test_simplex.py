from unittest import mock

import numpy as np
import pytest

from plantsim import simplex
from plantsim.oracles import build_profit_lp
from plantsim.simplex import Infeasible, LinearProgram, Unbounded, solve_lp

from conftest import random_tiny_instance


def _bland_iterate(T, basis, obj, phase):
    """Reference pivot loop: Bland's rule in both phases.

    The smallest-index column with a positive reduced cost enters; the
    ratio test is the solver's own.  Slow on wide programs but simple, so
    the equivalence tests below compare solve_lp against it.
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
    with mock.patch.object(simplex, "_iterate", _bland_iterate):
        return solve_lp(lp)


def test_single_variable_box():
    lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_degenerate_optimum_face():
    lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)


def test_equality_constraints():
    # max x + 2y  s.t. x + y = 1
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(2.0)
    assert sol.x.tolist() == pytest.approx([0.0, 1.0])


def test_upper_bounds():
    lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(2.0)


def test_negative_rhs_normalized():
    # -x <= -2  means x >= 2; minimize nothing else, so value is -2 for c=[-1]
    lp = LinearProgram(c=[-1.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 5.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(-2.0)
    assert sol.x[0] == pytest.approx(2.0)


def test_infeasible_detected():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_unbounded_detected():
    lp = LinearProgram(c=[1.0])
    with pytest.raises(Unbounded):
        solve_lp(lp)


def test_redundant_equalities_ok():
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)


def test_deterministic_resolve():
    lp = LinearProgram(
        c=[3.0, 1.0, 2.0],
        a_ub=[[1.0, 1.0, 3.0], [2.0, 2.0, 5.0], [4.0, 1.0, 2.0]],
        b_ub=[30.0, 24.0, 36.0],
    )
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.value == pytest.approx(28.0)  # classic textbook optimum


def test_cycling_guard_degenerate_lp():
    # a well-known degenerate instance that cycles under naive pivoting
    lp = LinearProgram(
        c=[10.0, -57.0, -9.0, -24.0],
        a_ub=[
            [0.5, -5.5, -2.5, 9.0],
            [0.5, -1.5, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)


def test_random_lps_against_feasible_enumeration(rng):
    # small random LPs with box bounds: compare to dense vertex sampling
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        c = rng.uniform(-2, 2, size=n)
        A = rng.uniform(0.2, 1.5, size=(m, n))
        b = rng.uniform(1.0, 4.0, size=m)
        lp = LinearProgram(
            c=c.tolist(),
            a_ub=A.tolist(),
            b_ub=b.tolist(),
            upper=[2.0] * n,
        )
        sol = solve_lp(lp)
        # grid check: no feasible grid point beats the reported optimum
        grid = np.linspace(0, 2.0, 9)
        best = 0.0
        pts = np.stack(np.meshgrid(*([grid] * n)), axis=-1).reshape(-1, n)
        ok = (pts @ A.T <= b[None, :] + 1e-9).all(axis=1)
        vals = pts @ c
        best = vals[ok].max()
        assert sol.value >= best - 1e-9


def test_beale_cycling_example():
    # Beale (1955): cycles under largest-coefficient pricing without an
    # anti-cycling rule; the degenerate-run fallback must end the cycle.
    lp = LinearProgram(
        c=[0.75, -20.0, 0.5, -6.0],
        a_ub=[
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.25)
    assert sol.x.tolist() == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert sol.iterations < 500


@pytest.mark.parametrize(
    "lp, where",
    [
        (
            LinearProgram(c=[3.0, 1.0], a_ub=[[1.0, 1.0], [2.0, 1.0]], b_ub=[4.0, 6.0]),
            "phase 2, 2x4",
        ),
        (
            LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]),
            "phase 1, 1x3",
        ),
    ],
)
def test_guard_message_names_phase_and_size(monkeypatch, lp, where):
    monkeypatch.setattr(simplex, "_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="iteration guard") as err:
        solve_lp(lp)
    assert str(err.value) == f"simplex exceeded the iteration guard (0 pivots, {where})"


def _random_feasible_lp(rng):
    """A feasible, bounded program with equality and <= rows.

    Feasibility comes from a planted point x0 >= 0; boundedness from finite
    upper bounds on every variable.  Small integer data and zero right-hand
    sides make degenerate vertices and tied optima common.
    """
    n = int(rng.integers(2, 9))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 5))
    x0 = rng.integers(0, 3, size=n).astype(float)
    a_eq = rng.integers(-2, 3, size=(m_eq, n)).astype(float)
    a_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
    b_ub = a_ub @ x0 + rng.integers(0, 2, size=m_ub)
    return LinearProgram(
        c=rng.integers(-4, 5, size=n).astype(float),
        a_eq=a_eq,
        b_eq=a_eq @ x0,
        a_ub=a_ub,
        b_ub=b_ub,
        upper=x0 + rng.integers(0, 3, size=n),
    )


def test_matches_bland_reference_on_random_programs(rng):
    for _ in range(200):
        lp = _random_feasible_lp(rng)
        got = solve_lp(lp).value
        want = bland_solve(lp).value
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_matches_bland_reference_on_profit_lps(rng):
    for _ in range(60):
        model, pi_x, pi_y = random_tiny_instance(rng)
        lp = build_profit_lp(model, pi_x, pi_y).lp
        got = solve_lp(lp).value
        want = bland_solve(lp).value
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
