"""Dense linear programming in standard form.

Standard form here means: decision variables y >= 0, equality constraints
A y = b, objective d.y minimized. Callers convert inequalities by adding
slack variables, and maximize d.y by minimizing -d.y.

The solver is a two-phase tableau simplex with Bland's anti-cycling rule;
each pivot is one rank-1 update of the dense tableau. The programs it serves
are the payoff-spread programs of ``analysis``: n + m + 1 rows for an n x n
game and a carrier of m strategies (2n + 1 on the full carrier), so each
pivot is O(n^2) work. They come from ``min_equalizer_gap``,
``find_equalizer`` and ``verify_support``; extraction solves a candidate's
indifference system instead, and reaches the LP only when that system is
singular and consistent. Degeneracy (most right-hand sides are 0) is
handled by Bland's rule alone. Numerical breakdown, and a phase that cycles
until it reaches ``PIVOT_CAP``, are reported as an ``LPError``, never as an
unchecked result or a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
# Pivots allowed per phase, per row plus column of the program. Solves in
# the test suite need at most 7.3 and in the benchmark 2.4; a phase that
# reaches the cap is cycling on round-off ties.
PIVOT_CAP = 50


class LPError(ValueError):
    """Malformed LP instance, or a solve that broke down numerically."""


@dataclass(frozen=True)
class StandardFormLP:
    a: np.ndarray          # (r, c) constraint matrix
    b: np.ndarray          # (r,) right-hand side
    objective: np.ndarray  # (c,)

    def validated(self) -> "StandardFormLP":
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        d = np.asarray(self.objective, dtype=float).ravel()
        if a.shape[0] != b.size:
            raise LPError(f"A has {a.shape[0]} rows but b has {b.size} entries")
        if a.shape[1] != d.size:
            raise LPError(f"A has {a.shape[1]} columns but objective has {d.size} entries")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise LPError("LP needs at least one constraint and one variable")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(d))):
            raise LPError("LP data contains non-finite entries")
        return StandardFormLP(a=a, b=b, objective=d)


@dataclass(frozen=True)
class LPResult:
    status: str                       # optimal | infeasible | unbounded
    solution: np.ndarray | None = None
    objective_value: float | None = None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _bland_entering(reduced: np.ndarray, allowed: int) -> int | None:
    for j in range(allowed):
        if reduced[j] < -PIVOT_TOL:
            return j
    return None


def _bland_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    best_ratio = None
    best_row = None
    for i in range(tableau.shape[0]):
        coef = tableau[i, col]
        if coef > PIVOT_TOL:
            ratio = tableau[i, -1] / coef
            if best_ratio is None or ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row]
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, reduced: np.ndarray,
                 n_cols: int, limit: int) -> str:
    """Minimize with Bland's rule, in at most ``limit`` pivots. Mutates
    tableau/basis/reduced in place."""
    pivots = 0
    while (col := _bland_entering(reduced, n_cols)) is not None:
        row = _bland_leaving(tableau, basis, col)
        if row is None:
            return "unbounded"
        if pivots == limit:
            raise LPError(f"iteration limit: {limit} pivots")
        _pivot(tableau, basis, row, col)
        reduced -= reduced[col] * tableau[row, :-1]
        reduced[col] = 0.0
        pivots += 1
    return "optimal"


def solve_lp(lp: StandardFormLP) -> LPResult:
    """Two-phase simplex. Optimal results are verified against the LP."""
    lp = lp.validated()
    a, b, d = lp.a.copy(), lp.b.copy(), lp.objective.copy()
    r, c = a.shape
    limit = PIVOT_CAP * (r + c)

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize sum of artificials.
    tableau = np.hstack([a, np.eye(r), b.reshape(-1, 1)])
    basis = np.arange(c, c + r)
    reduced = np.zeros(c + r)
    reduced[:c] = -a.sum(axis=0)
    status = _run_simplex(tableau, basis, reduced, c + r, limit)
    if status != "optimal":  # phase 1 is bounded below by 0: only round-off gets here
        raise LPError(f"phase 1 reported {status} (numerical breakdown)")
    residual = sum(tableau[i, -1] for i in range(r) if basis[i] >= c)
    if residual > FEAS_TOL:
        return LPResult(status="infeasible")

    # Drive artificials out of the basis; drop rows that stay artificial
    # (they are redundant constraints satisfied with value 0).
    keep = np.ones(r, dtype=bool)
    for i in range(r):
        if basis[i] >= c:
            pivot_col = None
            for j in range(c):
                if abs(tableau[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col is None:
                keep[i] = False
            else:
                _pivot(tableau, basis, i, pivot_col)
    tableau = tableau[keep]
    basis = basis[keep]

    # Phase 2 over original columns only.
    tableau = np.hstack([tableau[:, :c], tableau[:, -1:]])
    reduced = d.copy()
    for i, var in enumerate(basis):
        if abs(d[var]) > 0.0:
            reduced -= d[var] * tableau[i, :-1]
    reduced[basis] = 0.0

    status = _run_simplex(tableau, basis, reduced, c, limit)
    if status == "unbounded":
        return LPResult(status="unbounded")

    y = np.zeros(c)
    y[basis] = tableau[:, -1]
    value = float(d @ y)
    _verify_optimal(lp, y)
    return LPResult(status="optimal", solution=y, objective_value=value)


def _verify_optimal(lp: StandardFormLP, y: np.ndarray) -> None:
    """Check the LPResult invariants: A y = b within 1e-8, y >= -1e-10."""
    residual = float(np.max(np.abs(lp.a @ y - lp.b)))
    if residual > 1e-8:
        raise LPError(f"LP solution violates A y = b by {residual:g}")
    if float(y.min()) < -1e-10:
        raise LPError(f"LP solution has negative entry {y.min():g}")
