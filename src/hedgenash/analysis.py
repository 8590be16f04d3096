"""Equilibrium quality measures, equalizer/subequalizer programs, support
verification, and a brute-force support-enumeration oracle for small games.

Gaps and spreads are measured in the game's own payoffs, and the
tolerances they are held to are read in its payoff unit
(``SymmetricGame.payoff_unit``): 1 while the payoff range max - min lies in
[2^-4, 2^4], as for every normalized game, else the power of two nearest
the range. The certificate tolerance, fixed at 1e-8 in that unit, defines
"exact" equilibrium throughout, so a game scaled by a power of two gets the
same certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game import (
    SUPPORT_TOL,
    GameError,
    SymmetricGame,
    support,
)
from .lp import LPError, StandardFormLP, solve_lp

ORACLE_MAX_N = 6        # the largest n of the oracle, which solves 2^n - 1 supports
# The residual above which an indifference system has no solution.
INDIFFERENCE_TOL = 1e-7


def certificate_tolerance() -> float:
    """The gap bound a certificate is issued at, in the game's payoff unit."""
    return 1e-8


@dataclass(frozen=True)
class EquilibriumCertificate:
    """An equilibrium strategy plus the evidence that it is one."""

    strategy: np.ndarray
    gap: float
    well_supported_eps: float
    method: str

    @property
    def support(self) -> tuple[int, ...]:
        return support(self.strategy)

    def to_dict(self) -> dict:
        return {
            "strategy": [float(v) for v in self.strategy],
            "support": list(self.support),
            "gap": self.gap,
            "well_supported_eps": self.well_supported_eps,
            "method": self.method,
        }


def epsilon_gap(game: SymmetricGame, x) -> float:
    """(CX)_max - X.CX: zero exactly at symmetric equilibrium strategies."""
    x = game.strategy(x)
    cx = game.payoff @ x
    return float(cx.max() - x @ cx)


def well_supported_eps(game: SymmetricGame, x) -> float:
    """Smallest eps at which every supported pure strategy is within eps
    of the best payoff against x."""
    x = game.strategy(x)
    cx = game.payoff @ x
    supported = x > SUPPORT_TOL
    return float(cx.max() - cx[supported].min())


def within_tolerance(game: SymmetricGame, value: float) -> bool:
    """Whether a gap or a payoff spread ``value`` on ``game`` is within the
    certificate tolerance in the game's payoff unit: the one certificate
    test."""
    return value <= certificate_tolerance() * game.payoff_unit


def make_certificate(game: SymmetricGame, x, method: str) -> EquilibriumCertificate | None:
    """The certificate of ``x``, clipped at 0 and renormalized, or None when
    its gap exceeds the certificate tolerance."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    x = game.strategy(x / x.sum())
    gap = epsilon_gap(game, x)
    if not within_tolerance(game, gap):
        return None
    return EquilibriumCertificate(
        strategy=x,
        gap=gap,
        well_supported_eps=well_supported_eps(game, x),
        method=method,
    )


def find_equalizer(game: SymmetricGame) -> EquilibriumCertificate | None:
    """Strategy equalizing all pure payoffs: the support check on the full
    carrier, whose indifference system says that every payoff is equal.
    None if no equalizer exists. Equalizers are always equilibria."""
    return verify_support(game, range(game.n))


def _spread_lp(payoff: np.ndarray, carrier: list[int]) -> StandardFormLP:
    """Spread program on ``carrier``: minimize u - l over strategies X
    supported on the carrier, subject to l <= (CX)_i <= u for every i in
    the carrier and (CX)_j <= l for every j outside it.

    Variables are [X on the carrier (m), u, l, one slack per inequality];
    the rows are the n + m inequalities and sum(X) = 1. Payoffs are shifted
    by -min(C), so that u, l >= 0 cuts nothing off and every entry lies in
    [0, max - min]: the shift moves every (CX)_i by the same amount, so
    neither the spread nor the dominance constraints change.
    """
    n, m = payoff.shape[0], len(carrier)
    outside = [j for j in range(n) if j not in carrier]
    cx = payoff[:, carrier] - float(payoff.min())        # (CX)_i = cx[i] @ X
    inequalities = np.vstack([
        np.column_stack([cx[carrier], -np.ones(m), np.zeros(m)]),    # (CX)_i <= u
        np.column_stack([-cx[carrier], np.zeros(m), np.ones(m)]),    # l <= (CX)_i
        np.column_stack([cx[outside], np.zeros(n - m), -np.ones(n - m)]),  # (CX)_j <= l
    ])
    a = np.block([[inequalities, np.eye(n + m)],
                  [np.ones(m), np.zeros(n + m + 2)]])                # sum(X) = 1
    d = np.zeros(a.shape[1])
    d[m:m + 2] = 1.0, -1.0
    return StandardFormLP(a=a, b=np.r_[np.zeros(n + m), 1.0], objective=d)


def min_equalizer_gap(game: SymmetricGame) -> tuple[np.ndarray, float]:
    """Minimize the payoff spread (CX)_max - (CX)_min over the simplex.

    The minimum is 0 exactly when an equalizer exists. This is the spread
    program on the full carrier (2n + 1 rows); the spread returned is
    recomputed from the strategy.
    """
    solved = best_subequalizer(game, range(game.n))
    if solved is None:  # feasible and bounded: only round-off gets here
        raise LPError("spread program on the full carrier found no optimum "
                      "(numerical breakdown)")
    x = solved[0]
    cx = game.payoff @ x
    return x, float(cx.max() - cx.min())


def best_subequalizer(game: SymmetricGame, carrier) -> tuple[np.ndarray, float] | None:
    """Best equalized strategy supported on ``carrier`` whose supported
    payoffs dominate the rest.

    Minimizes the payoff spread within the carrier subject to
    (CX)_i >= (CX)_j for every i in the carrier, j outside, and X(j) = 0
    outside. Returns None when the dominance constraints are infeasible.
    """
    carrier = sorted(_checked_carrier(game, carrier))
    result = solve_lp(_spread_lp(game.payoff / game.payoff_unit, carrier))
    if result.status != "optimal":
        return None
    x = np.zeros(game.n)
    x[carrier] = np.clip(result.solution[:len(carrier)], 0.0, None)
    x /= x.sum()
    return x, float(result.objective_value) * game.payoff_unit


def verify_support(game: SymmetricGame, candidate_support) -> EquilibriumCertificate | None:
    """Exact equilibrium with support inside ``candidate_support``. Its
    payoffs on the candidate are within the certificate tolerance of each
    other, so it solves the candidate's indifference system, solved once in
    the order given: a residual above INDIFFERENCE_TOL rules every one out,
    at full rank the one solution is checked, and only a singular,
    consistent system is searched with the subequalizer LP."""
    candidate = _checked_carrier(game, candidate_support)
    sol, null, residual = _equalizing_solution(game, candidate)
    if residual > INDIFFERENCE_TOL:
        return None
    if null.shape[0]:
        result = best_subequalizer(game, candidate)
        if result is None or not within_tolerance(game, result[1]):
            return None
        return make_certificate(game, result[0], method="support_lp")
    if sol.min() < -SUPPORT_TOL:
        return None
    x = np.zeros(game.n)
    x[candidate] = sol
    return make_certificate(game, x, method="indifference_solve")


def _checked_carrier(game: SymmetricGame, carrier) -> list[int]:
    """The distinct indices of ``carrier`` in the order given; an empty
    carrier or an index outside 0..n-1 is a GameError."""
    carrier = list(dict.fromkeys(int(i) for i in carrier))
    if not carrier:
        raise GameError("carrier must be nonempty")
    if min(carrier) < 0 or max(carrier) >= game.n:
        raise GameError(f"carrier indices out of range for n={game.n}")
    return carrier


def _equalizing_solution(game: SymmetricGame, carrier: list[int]):
    """Least-squares solution of the indifference system on a support
    (every supported payoff equal, entries summing to 1), the null space of
    the system for a consistent degenerate family (empty at full rank, and
    when the residual exceeds INDIFFERENCE_TOL: the system is inconsistent),
    and the residual. The payoff rows are in the game's payoff unit, the
    scale of the sum row."""
    m = len(carrier)
    cols = np.array(carrier)
    sub = game.payoff[np.ix_(cols, cols)]
    a = np.zeros((m, m))
    a[: m - 1] = (sub[1:] - sub[0]) / game.payoff_unit
    a[m - 1] = 1.0
    b = np.zeros(m)
    b[m - 1] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=1e-10)
    residual = float(np.max(np.abs(a @ sol - b)))
    if rank < m and residual <= INDIFFERENCE_TOL:
        _, sv, vh = np.linalg.svd(a)
        null = vh[sv < 1e-10 * sv[0]]
    else:
        null = np.zeros((0, m))
    return sol, null, residual


def enumerate_symmetric_equilibria(game: SymmetricGame) -> list[EquilibriumCertificate]:
    """Brute-force oracle: for every nonempty support solve the indifference
    linear system and keep solutions that are symmetric equilibria.

    Degenerate supports with a solution family are sampled at 10 points of
    the null space. Results are deduplicated at l-inf distance 1e-7.
    """
    n = game.n
    if n > ORACLE_MAX_N:
        raise GameError(f"support enumeration limited to n <= {ORACLE_MAX_N}, got n={n}")
    found: list[EquilibriumCertificate] = []

    def consider(x_full: np.ndarray) -> None:
        if x_full.min() < -1e-10:
            return
        x = np.clip(x_full, 0.0, None)
        total = x.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-7:
            return
        cert = make_certificate(game, x / total, method="support_enumeration")
        if cert is not None and all(np.max(np.abs(seen.strategy - cert.strategy)) > 1e-7
                                    for seen in found):
            found.append(cert)

    for size in range(1, n + 1):
        for carrier in itertools.combinations(range(n), size):
            carrier = list(carrier)
            sol, null, residual = _equalizing_solution(game, carrier)
            if residual > INDIFFERENCE_TOL:
                continue
            x_full = np.zeros(n)
            x_full[carrier] = sol
            consider(x_full)
            if null.shape[0] > 0:
                for t in np.linspace(-1.0, 1.0, 10):
                    for direction in null:
                        x_alt = np.zeros(n)
                        x_alt[carrier] = sol + t * direction
                        consider(x_alt)

    found.sort(key=lambda cert: tuple(np.round(cert.strategy, 9)))
    return found
