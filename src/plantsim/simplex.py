"""Dense linear programming via the two-phase tableau simplex method.

All variables are non-negative; optional per-variable upper bounds and
arbitrary equality / less-or-equal rows are accepted.

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
    """maximize c @ x  subject to  a_eq @ x == b_eq,  a_ub @ x <= b_ub,  x >= 0.

    upper, when given, adds per-variable bounds x[j] <= upper[j]; use
    np.inf for unbounded entries.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass
class LpSolution:
    value: float
    x: np.ndarray
    iterations: int = 0


_PIVOT_TOL = 1e-10
_MAX_ITER = 100_000
_DEGENERATE_STEP = 1e-12
_DEGENERATE_RUN = 50


def solve_lp(lp: LinearProgram, tol: float = 1e-9) -> LpSolution:
    """Solve the program to optimality.

    Raises Infeasible or Unbounded where appropriate.  The reported value is
    accurate to roughly the requested tolerance relative to the problem's
    coefficient scale; the same program always yields the same value and the
    same vertex, since the pivot order is deterministic.
    """
    c = np.asarray(lp.c, dtype=float)
    n = c.shape[0]

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    kinds: list[str] = []

    def add(coeffs: np.ndarray, b: float, kind: str) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if b < 0:
            coeffs = -coeffs
            b = -b
            kind = {"le": "ge", "ge": "le", "eq": "eq"}[kind]
        rows.append(coeffs)
        rhs.append(b)
        kinds.append(kind)

    if lp.a_eq is not None and len(lp.a_eq):
        for coeffs, b in zip(np.atleast_2d(lp.a_eq), np.ravel(lp.b_eq)):
            add(coeffs, float(b), "eq")
    if lp.a_ub is not None and len(lp.a_ub):
        for coeffs, b in zip(np.atleast_2d(lp.a_ub), np.ravel(lp.b_ub)):
            add(coeffs, float(b), "le")
    if lp.upper is not None:
        for j, u in enumerate(np.ravel(lp.upper)):
            if np.isfinite(u):
                e = np.zeros(n)
                e[j] = 1.0
                add(e, float(u), "le")

    m = len(rows)
    n_slack = sum(1 for k in kinds if k in ("le", "ge"))
    n_art = sum(1 for k in kinds if k in ("ge", "eq"))
    width = n + n_slack + n_art

    T = np.zeros((m, width + 1))
    basis = np.empty(m, dtype=int)
    s = n
    a = n + n_slack
    for i in range(m):
        T[i, :n] = rows[i]
        T[i, -1] = rhs[i]
        if kinds[i] == "le":
            T[i, s] = 1.0
            basis[i] = s
            s += 1
        elif kinds[i] == "ge":
            T[i, s] = -1.0
            T[i, a] = 1.0
            basis[i] = a
            s += 1
            a += 1
        else:
            T[i, a] = 1.0
            basis[i] = a
            a += 1

    iterations = 0
    if n_art:
        phase1 = np.zeros(width)
        phase1[n + n_slack :] = -1.0
        iterations += _iterate(T, basis, phase1, tol, phase=1)
        art_total = T[:, -1][basis >= n + n_slack].sum()
        if art_total > tol * (1.0 + max(rhs, default=0.0)):
            raise Infeasible(f"phase 1 left {art_total:.3e} of artificial mass")
        _drive_out_artificials(T, basis, n + n_slack)
        keep = [i for i in range(m) if basis[i] < n + n_slack]
        T = np.hstack([T[keep, : n + n_slack], T[keep, -1:]])
        basis = basis[keep]

    obj = np.zeros(n + n_slack)
    obj[:n] = c
    iterations += _iterate(T, basis, obj, tol, phase=2)

    x = np.zeros(n + n_slack)
    x[basis] = T[:, -1]
    x = np.maximum(x[:n], 0.0)
    return LpSolution(value=float(c @ x), x=x, iterations=iterations)


def _iterate(
    T: np.ndarray,
    basis: np.ndarray,
    obj: np.ndarray,
    tol: float,
    phase: int,
) -> int:
    """Pivot until no reduced cost exceeds tol.  Returns the pivot count.

    Phase 1 prices by Bland's rule; phase 2 by Dantzig's, with Bland's rule
    after a run of degenerate pivots (see the module docstring).
    """
    count = 0
    degenerate = 0
    width = len(obj)
    while True:
        reduced = obj - obj[basis] @ T[:, :width]
        enter = int(reduced.argmax())
        if reduced[enter] <= tol:
            return count
        if phase == 1 or degenerate >= _DEGENERATE_RUN:
            enter = int((reduced > tol).argmax())
        col = T[:, enter]
        best = -1
        best_ratio = np.inf
        for i in range(T.shape[0]):
            if col[i] > _PIVOT_TOL:
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
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def _drive_out_artificials(T: np.ndarray, basis: np.ndarray, n_real: int) -> None:
    """Pivot artificial variables out of the basis where a real column allows."""
    for i in range(T.shape[0]):
        if basis[i] >= n_real:
            for j in range(n_real):
                if abs(T[i, j]) > _PIVOT_TOL:
                    _pivot(T, i, j)
                    basis[i] = j
                    break
