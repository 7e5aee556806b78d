"""Dense linear programming via the two-phase tableau simplex method.

Every program has one form: equality rows over non-negative columns.  A
caller with a <= row or a bound writes its slack column in.  Each row is
negated if its right-hand side is negative.  Then a row with a unit column
(one whose only non-zero is 1.0, in that row) starts on its first one: a
slack, or in a profit LP a block's idle column.  The other rows start on
artificial columns, numbered in row order after the program's columns, and
phase 1 runs only if there are any.

Pricing differs by phase.  Phase 1 (driving the artificials out) uses
Bland's rule: the smallest-index column with a positive reduced cost
enters.  Phase 2 uses Dantzig's rule: the column with the largest reduced
cost enters, ties going to the smallest index.  On the package's wide
programs (a handful of rows, tens of thousands of purchase columns) that
takes tens of pivots where Bland's rule takes thousands or more.  In both
phases the ratio test breaks ties towards the smallest-index basic variable.

Dantzig's rule alone can cycle on degenerate vertices, so after
_DEGENERATE_RUN consecutive degenerate pivots (step length at most
_DEGENERATE_STEP) phase 2 falls back to Bland's rule until the next
non-degenerate pivot.  This terminates on every input: each non-degenerate
pivot strictly raises the objective, so no basis recurs across one, and
within a degenerate run Bland's rule cannot cycle.  _MAX_ITER therefore
trips only on numerical trouble.

The package's programs have tens of rows and hundreds to thousands of
columns, and a pivot changes only the few rows with a non-zero entry in the
entering column.  So each pivot reads the entering column and the
right-hand side once, as Python lists, for the ratio test, and the
elimination reads the pivot column once more and updates the non-zero rows
one at a time, in row order.  Updating them as one fancy-indexed block was
measured slower on such programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Infeasible(RuntimeError):
    """The constraint system admits no feasible point."""


class Unbounded(RuntimeError):
    """The objective can be driven to +infinity over the feasible set."""


@dataclass
class LinearProgram:
    """maximize c @ x  subject to  a_eq @ x == b_eq,  x >= 0.

    The only form: a <= row or a bound is an equality with a slack column
    that the caller adds.  After negating the row if its right-hand side is
    negative, each row starts on its first unit column, else on an
    artificial column of its own.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    # Not fields: perfbench's tracer still reads lp.a_ub and lp.upper to
    # count rows.  ROADMAP item 1 deletes these with that read.
    a_ub = upper = None


@dataclass
class LpSolution:
    value: float
    x: np.ndarray
    iterations: int = 0


_TOL = 1e-9  # optimality and phase-1 feasibility tolerance
_PIVOT_TOL = 1e-10
_MAX_ITER = 100_000
_DEGENERATE_STEP = 1e-12
_DEGENERATE_RUN = 50


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program to optimality.

    Raises Infeasible or Unbounded where appropriate.  The reported value is
    accurate to roughly _TOL relative to the problem's coefficient scale;
    the same program always yields the same value and the same vertex,
    since the pivot order is deterministic.
    """
    c = np.asarray(lp.c, dtype=float)
    n = c.shape[0]
    if lp.a_eq is None or not len(lp.a_eq):
        a_eq, rhs = np.zeros((0, n)), np.zeros(0)
    else:
        a_eq = np.atleast_2d(np.asarray(lp.a_eq, dtype=float))
        rhs = np.ravel(lp.b_eq).astype(float)
    m = len(a_eq)

    T = np.zeros((m, n + m + 1))
    T[:, :n] = a_eq
    neg = rhs < 0
    if np.count_nonzero(neg):
        T[neg, :n] *= -1.0
        rhs[neg] *= -1.0
    basis, k = _start_basis(T, n)
    T = T[:, : n + k + 1]
    T[:, -1] = rhs

    iterations = 0
    if k:
        phase1 = np.zeros(n + k)
        phase1[n:] = -1.0
        iterations += _iterate(T, basis, phase1, phase=1)
        art_total = T[:, -1][basis >= n].sum()
        if art_total > _TOL * (1.0 + max(rhs.tolist(), default=0.0)):
            raise Infeasible(f"phase 1 left {art_total:.3e} of artificial mass")
        _drive_out_artificials(T, basis, n)
        keep = basis < n
        T = np.hstack([T[keep, :n], T[keep, -1:]])
        basis = basis[keep]

    if n:  # pricing over no columns enters nothing
        iterations += _iterate(T, basis, c, phase=2)

    x = np.zeros(n)
    x[basis] = T[:, -1]
    x = np.maximum(x, 0.0)
    return LpSolution(value=float(c @ x), x=x, iterations=iterations)


def _start_basis(T: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Start each row on its first unit column, else on the next artificial.

    A unit column is one of the program's n columns whose only non-zero is
    1.0.  The artificials take columns n, n + 1, ... of T in row order, and
    their count is returned with the basis.  The boolean tables die on
    return, so they add nothing to the solve's peak memory.
    """
    A = T[:, :n]
    unit = A == 1.0
    unit &= A.astype(bool).sum(axis=0) == 1
    basis = unit.argmax(axis=1) if n else np.zeros(len(T), dtype=np.intp)
    k = 0
    for i, own in enumerate(unit.any(axis=1).tolist()):
        if not own:
            basis[i] = n + k
            T[i, n + k] = 1.0
            k += 1
    return basis, k


def _iterate(
    T: np.ndarray,
    basis: np.ndarray,
    obj: np.ndarray,
    phase: int,
) -> int:
    """Pivot until no reduced cost exceeds _TOL.  Returns the pivot count.

    Phase 1 prices by Bland's rule; phase 2 by Dantzig's, with Bland's rule
    after a run of degenerate pivots (see the module docstring).
    """
    count = 0
    degenerate = 0
    width = len(obj)
    while True:
        reduced = obj - obj[basis] @ T[:, :width]
        enter = int(reduced.argmax())
        if reduced[enter] <= _TOL:
            return count
        if phase == 1 or degenerate >= _DEGENERATE_RUN:
            enter = int((reduced > _TOL).argmax())
        rhs = T[:, -1].tolist()
        best = -1
        best_ratio = np.inf
        for i, a in enumerate(T[:, enter].tolist()):
            if a > _PIVOT_TOL:
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
        degenerate = degenerate + 1 if best_ratio <= _DEGENERATE_STEP else 0
        _pivot(T, best, enter)
        basis[best] = enter
        count += 1
        if count > _MAX_ITER:
            raise RuntimeError(
                f"simplex exceeded the iteration guard ({_MAX_ITER} pivots,"
                f" phase {phase}, {T.shape[0]}x{width})"
            )


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Divide the pivot row by its entry, then eliminate col from the other rows.

    The rows are updated one at a time, in row order, and only where the
    pivot column is non-zero; each update leaves the column's other
    entries alone, so one read of the column serves them all.
    """
    T[row] /= T[row, col]
    pivot_row = T[row]
    for i, f in enumerate(T[:, col].tolist()):
        if f != 0.0 and i != row:
            T[i] -= f * pivot_row


def _drive_out_artificials(T: np.ndarray, basis: np.ndarray, n_real: int) -> None:
    """Pivot artificial variables out of the basis where a real column allows.

    Each such row pivots on its first real column of magnitude above _PIVOT_TOL.
    """
    for i in range(T.shape[0]):
        if basis[i] >= n_real:
            big = np.flatnonzero(np.abs(T[i, :n_real]) > _PIVOT_TOL)
            if len(big):
                j = int(big[0])
                _pivot(T, i, j)
                basis[i] = j
