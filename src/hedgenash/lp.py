"""Dense linear programming in standard form.

Standard form here means: decision variables y >= 0, equality constraints
A y = b, objective d.y minimized. Callers convert inequalities by adding
slack variables, and maximize d.y by minimizing -d.y.

The solver is a two-phase tableau simplex; each pivot is one rank-1 update
of the dense tableau. The entering column has the most negative reduced
cost, and the leaving row comes from the lexicographic ratio test (Dantzig,
Orden and Wolfe 1955): ratio ties are broken by the rows of the basis
inverse, which phase 1's artificial columns hold at every pivot. Those rows
are independent, so the choice is unique, and in exact arithmetic
degeneracy (most right-hand sides are 0) cannot make phase 1 cycle. The
pivots that drive leftover artificials out before phase 2 can void that
guarantee there, and round-off can void it anywhere; ``PIVOT_CAP`` is the
backstop. The programs it serves are the payoff-spread programs of ``analysis``: n + m + 1
rows for an n x n game and a carrier of m strategies (2n + 1 on the full
carrier), so each pivot is O(n^2) work. They come from
``min_equalizer_gap``, ``find_equalizer`` and ``verify_support``;
extraction solves a candidate's indifference system instead, and reaches
the LP only when that system is singular and consistent. Numerical
breakdown, and a phase that reaches ``PIVOT_CAP``, are reported as an
``LPError``, never as an unchecked result or a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
# Pivots allowed per phase, per row plus column of the program. Solves in
# the test suite need at most 1.7 and in the benchmark 0.8.
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


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, reduced: np.ndarray,
                 c: int, limit: int) -> str:
    """Minimize in at most ``limit`` pivots. Mutates tableau/basis/reduced in
    place. Only the ``c`` original columns enter; the leaving row is the
    lexicographic minimum, rhs first, of [B^-1 | rhs] / pivot entry over the
    rows whose pivot entry exceeds ``PIVOT_TOL``, B^-1 being the artificial
    block ``tableau[:, c:-1]``."""
    for pivots in range(limit + 1):
        col = int(np.argmin(reduced[:c]))
        if reduced[col] >= -PIVOT_TOL:
            return "optimal"
        rows = np.flatnonzero(tableau[:, col] > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        if pivots == limit:
            raise LPError(f"iteration limit: {limit} pivots")
        keys = tableau[rows, c:] / tableau[rows, col, None]  # lexsort's last key leads
        row = int(rows[np.lexsort(keys.T)[0]])
        _pivot(tableau, basis, row, col)
        reduced -= reduced[col] * tableau[row, :-1]
        reduced[col] = 0.0


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
    status = _run_simplex(tableau, basis, reduced, c, limit)
    if status != "optimal":  # phase 1 is bounded below by 0: only round-off gets here
        raise LPError(f"phase 1 reported {status} (numerical breakdown)")
    if tableau[basis >= c, -1].sum() > FEAS_TOL:
        return LPResult(status="infeasible")

    # Drive artificials out of the basis; drop rows that stay artificial
    # (they are redundant constraints satisfied with value 0).
    keep = np.ones(r, dtype=bool)
    for i in np.flatnonzero(basis >= c):
        cols = np.flatnonzero(np.abs(tableau[i, :c]) > PIVOT_TOL)
        if cols.size:
            _pivot(tableau, basis, i, cols[0])
        else:
            keep[i] = False
    tableau = tableau[keep]
    basis = basis[keep]

    # Phase 2: the artificial columns stay, as B^-1 for the ratio test.
    cost = np.concatenate([d, np.zeros(r)])
    reduced = cost - cost[basis] @ tableau[:, :-1]
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
