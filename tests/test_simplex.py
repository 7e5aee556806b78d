import dataclasses
import hashlib

import numpy as np
import pytest

from plantsim import simplex
from plantsim.oracles import build_profit_lp
from plantsim.simplex import Infeasible, LinearProgram, Unbounded, solve_lp

from plants import (
    _m3_k4_plant,
    _t8_frame_programs,
    doubled_rows,
    make_i1,
    random_tiny_instance,
)
from reference import _tableau_pivot, bland_solve, tableau_solve


def _equality_form(c, a_eq=(), b_eq=(), a_ub=(), b_ub=(), upper=np.inf):
    """max c @ x  s.t.  a_eq @ x == b_eq, a_ub @ x <= b_ub, x <= upper, x >= 0.

    Returned as a LinearProgram of equality rows: each <= row, then each
    finite bound, gets a slack column, in that order after the program's
    own columns.  upper is np.inf where a column has no bound.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), n)
    bounded = np.flatnonzero(np.isfinite(upper))
    a_eq = np.reshape(np.asarray(a_eq, dtype=float), (-1, n))
    a_ub = np.reshape(np.asarray(a_ub, dtype=float), (-1, n))
    a_le = np.vstack((a_ub, np.eye(n)[bounded]))
    b_le = np.concatenate((np.asarray(b_ub, dtype=float), upper[bounded]))
    m_eq, s = len(a_eq), len(a_le)
    return LinearProgram(
        c=np.concatenate((c, np.zeros(s))),
        a_eq=np.block([[a_eq, np.zeros((m_eq, s))], [a_le, np.eye(s)]]),
        b_eq=np.concatenate((np.asarray(b_eq, dtype=float), b_le)),
    )


def test_one_program_form():
    assert [f.name for f in dataclasses.fields(LinearProgram)] == ["c", "a_eq", "b_eq"]


def test_single_variable_box():
    lp = _equality_form(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_degenerate_optimum_face():
    lp = _equality_form(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)


def test_equality_constraints():
    # max x + 2y  s.t. x + y = 1
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(2.0)
    assert sol.x.tolist() == pytest.approx([0.0, 1.0])


def test_upper_bounds():
    lp = _equality_form(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(2.0)


def test_negative_rhs_normalized():
    # -x <= -2  means x >= 2; minimize nothing else, so value is -2 for c=[-1]
    lp = _equality_form(c=[-1.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 5.0])
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(-2.0)
    assert sol.x[0] == pytest.approx(2.0)


def test_infeasible_detected():
    lp = _equality_form(c=[1.0], a_eq=[[1.0]], b_eq=[2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_unbounded_detected():
    lp = LinearProgram(c=[1.0])
    with pytest.raises(Unbounded):
        solve_lp(lp)


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(c=np.zeros(0)),
        LinearProgram(c=np.zeros(0), a_eq=np.zeros((1, 0)), b_eq=[0.0]),
    ],
    ids=["no-rows", "zero-row"],
)
def test_program_without_columns_solves(lp):
    # pricing over zero columns used to take the argmax of an empty array
    sol = solve_lp(lp)
    assert (sol.value, sol.x.shape, sol.iterations) == (0.0, (0,), 0)


def test_program_without_columns_is_infeasible():
    # every row starts on an artificial, which phase 1 cannot drive out
    lp = LinearProgram(c=np.zeros(0), a_eq=np.zeros((1, 0)), b_eq=[1.0])
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_phase_one_unbounded_is_an_internal_fault():
    # phase 1's objective is bounded by the artificials' sum, so a phase-1
    # column with no ratio-test row is a fault of the tableau, never of the
    # program: one row [0, 1 | 5], basis column 1, column 0 entering
    T = np.array([[0.0, 1.0, 5.0]])
    with pytest.raises(RuntimeError, match="phase 1 unbounded"):
        simplex._iterate(T, np.array([1]), np.array([1.0, 0.0]), phase=1)


def test_redundant_equalities_ok():
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0)


def test_deterministic_resolve():
    lp = _equality_form(
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
    lp = _equality_form(
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
        lp = _equality_form(
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
    # Beale (1955): from its slack basis, where solve_lp starts it, it
    # cycles under largest-coefficient pricing without an anti-cycling rule;
    # the degenerate-run fallback ends the cycle.
    lp = _equality_form(
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
    assert sol.x[:4].tolist() == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert sol.iterations < 500


@pytest.mark.parametrize(
    "lp, where",
    [
        (
            doubled_rows(
                _equality_form(
                    c=[3.0, 1.0], a_ub=[[1.0, 1.0], [2.0, 1.0]], b_ub=[4.0, 6.0]
                )
            ),
            "phase 1, 2x6",
        ),
        (
            LinearProgram(c=[1.0, 2.0], a_eq=[[2.0, 2.0]], b_eq=[2.0]),
            "phase 1, 1x3",
        ),
        (
            LinearProgram(c=[1.0, 3.0], a_eq=[[-1.0, -1.0]], b_eq=[0.0]),
            "phase 2, 1x2",
        ),
        (
            # every row starts on its slack, so no phase 1 runs
            _equality_form(
                c=[3.0, 1.0], a_ub=[[1.0, 1.0], [2.0, 1.0]], b_ub=[4.0, 6.0]
            ),
            "phase 2, 2x4",
        ),
    ],
)
def test_guard_message_names_phase_and_size(monkeypatch, lp, where):
    monkeypatch.setattr(simplex, "_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="iteration guard") as err:
        solve_lp(lp)
    assert str(err.value) == f"simplex exceeded the iteration guard (0 pivots, {where})"


def _random_feasible_lp(rng):
    """A feasible, bounded program with equality and <= rows, in equality form.

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
    return _equality_form(
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


def _unit_columns(a):
    """(row, column) of each column of a whose only non-zero is 1.0."""
    out = []
    for j, col in enumerate(np.asarray(a, dtype=float).T.tolist()):
        rows = [i for i, v in enumerate(col) if v != 0.0]
        if len(rows) == 1 and col[rows[0]] == 1.0:
            out.append((rows[0], j))
    return out


def _as_solved(lp):
    """lp's rows as solve_lp reads them: negated where the rhs is negative."""
    sign = np.where(np.ravel(lp.b_eq) < 0, -1.0, 1.0)
    return np.asarray(lp.a_eq, dtype=float) * sign[:, None]


# Column 0 is no unit column: its only non-zero is 2.0 in the first program,
# and its 1.0 has a second non-zero beside it in the second.
_NOT_UNIT = [
    LinearProgram(c=[1.0, 0.0, 0.0], a_eq=[[2.0, 1.0, 1.0]], b_eq=[4.0]),
    LinearProgram(
        c=[0.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], b_eq=[1.0, 2.0]
    ),
]


def test_crash_start_matches_artificial_start(rng):
    # Each program is solved as given, its rows starting on unit columns
    # where they have one, and doubled, every row starting on an artificial.
    lps = [_random_feasible_lp(rng) for _ in range(150)] + _NOT_UNIT
    assert [solve_lp(lp).value for lp in _NOT_UNIT] == [2.0, 3.0]
    for lp in lps:
        ref = doubled_rows(lp)
        assert not _unit_columns(_as_solved(ref))
        got, want = solve_lp(lp).value, solve_lp(ref).value
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
    # profit LPs reach the very same vertex from either start
    for _ in range(40):
        lp = build_profit_lp(*random_tiny_instance(rng)).lp
        got, want = solve_lp(lp), solve_lp(doubled_rows(lp))
        assert got.value.hex() == want.value.hex()
        assert got.x.tobytes() == want.x.tobytes()


def test_i1_starts_on_its_idle_columns():
    # the zero purchase and IDLE are the convexity rows' unit columns; the
    # balance row has none and starts on the one artificial
    lp = build_profit_lp(make_i1(), [1.0], [1.0]).lp
    assert _unit_columns(lp.a_eq) == [(0, 0), (1, 3)]
    assert solve_lp(lp).iterations == 3
    assert solve_lp(doubled_rows(lp)).iterations == 5


# sha256 over (value.hex(), x.tobytes(), iterations) of _pinned_programs(),
# recorded with each row starting on its first unit column, else on an
# artificial.  A change of column order, starting basis, pricing or ratio
# test moves a vertex or a pivot count, and shows up here.
PIVOT_PATH_DIGEST = "8a3b9fcda3382b87c3e92b47fc35eca8e861a4506a9fcf3b4b9d1f5cabfae967"


def _pinned_programs():
    rng = np.random.default_rng(1963)
    lps = [_random_feasible_lp(rng) for _ in range(300)]
    for _ in range(60):
        model, pi_x, pi_y = random_tiny_instance(rng)
        lps.append(build_profit_lp(model, pi_x, pi_y).lp)
    return lps


def test_pivot_paths_are_pinned():
    digest = hashlib.sha256()
    for lp in _pinned_programs():
        sol = solve_lp(lp)
        digest.update(repr((sol.value.hex(), sol.x.tobytes(), sol.iterations)).encode())
    assert digest.hexdigest() == PIVOT_PATH_DIGEST


def _kernel_programs():
    """Programs for the kernel test: random feasible programs, tiny profit
    LPs, _m3_k4_plant programs and T = 8 frames of _m3_k4_plant."""
    rng = np.random.default_rng(4242)
    lps = [_random_feasible_lp(rng) for _ in range(200)]
    lps += [build_profit_lp(*random_tiny_instance(rng)).lp for _ in range(60)]
    lps += [build_profit_lp(*_m3_k4_plant(rng)).lp for _ in range(20)]
    return lps + _t8_frame_programs()


def test_kernel_matches_tableau_reference():
    # The same floats in the same order: value, vertex and pivot count.
    for lp in _kernel_programs():
        got, want = solve_lp(lp), tableau_solve(lp)
        assert got.value.hex() == want.value.hex()
        assert got.x.tobytes() == want.x.tobytes()
        assert got.iterations == want.iterations


def test_pivot_reads_its_own_column():
    # Called without a column, as _drive_out_artificials calls it, _pivot
    # reads the column itself and updates the rows as the reference does.
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = rng.integers(-3, 4, size=(4, 7)).astype(float)
        T[1, 2] = 2.0
        want = T.copy()
        simplex._pivot(T, 1, 2)
        _tableau_pivot(want, 1, 2)
        assert T.tobytes() == want.tobytes()
