"""Equilibrium quality measures, equalizer/subequalizer programs, support
verification, and a brute-force support-enumeration oracle for small games.

All tolerances are on the normalized payoff scale. The certificate
tolerance (default 1e-8) defines "exact" equilibrium throughout and can be
overridden with the HEDGE_NASH_TOL environment variable.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .game import (
    DEFAULT_SUPPORT_TOL,
    GameError,
    SymmetricGame,
    as_strategy,
    denormalize_gap,
    support,
)
from .lp import LPError, StandardFormLP, solve_lp

DEFAULT_CERT_TOL = 1e-8


def certificate_tolerance() -> float:
    env = os.environ.get("HEDGE_NASH_TOL")
    if not env:
        return DEFAULT_CERT_TOL
    try:
        tol = float(env)
    except ValueError:
        raise GameError(f"HEDGE_NASH_TOL is not a number: {env!r}") from None
    if not 0.0 <= tol < np.inf:
        raise GameError(f"HEDGE_NASH_TOL must be finite and >= 0, got {env!r}")
    return tol


@dataclass(frozen=True)
class EquilibriumCertificate:
    """An equilibrium strategy plus the evidence that it is one."""

    strategy: np.ndarray
    support: tuple[int, ...]
    gap: float
    well_supported_eps: float
    method: str
    game_units_gap: float
    game_digest: str

    def to_dict(self) -> dict:
        return {
            "strategy": [float(v) for v in self.strategy],
            "support": list(self.support),
            "gap": self.gap,
            "well_supported_eps": self.well_supported_eps,
            "method": self.method,
            "game_units_gap": self.game_units_gap,
        }


def epsilon_gap(game: SymmetricGame, x) -> float:
    """(CX)_max - X.CX: zero exactly at symmetric equilibrium strategies."""
    x = as_strategy(x)
    cx = game.payoff @ x
    return float(cx.max() - x @ cx)


def well_supported_eps(game: SymmetricGame, x,
                       tol: float = DEFAULT_SUPPORT_TOL) -> float:
    """Smallest eps at which every supported pure strategy is within eps
    of the best payoff against x."""
    x = as_strategy(x)
    cx = game.payoff @ x
    supported = np.asarray(x) > tol
    return float(cx.max() - cx[supported].min())


def is_well_supported(game: SymmetricGame, x, eps: float,
                      tol: float = DEFAULT_SUPPORT_TOL) -> bool:
    if eps < 0:
        raise GameError("eps must be >= 0")
    return well_supported_eps(game, x, tol) <= eps


def make_certificate(game: SymmetricGame, x, method: str) -> EquilibriumCertificate:
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    x = as_strategy(x / x.sum())
    gap = epsilon_gap(game, x)
    return EquilibriumCertificate(
        strategy=x,
        support=support(x),
        gap=gap,
        well_supported_eps=well_supported_eps(game, x),
        method=method,
        game_units_gap=denormalize_gap(game, gap),
        game_digest=game.digest(),
    )


def find_equalizer(game: SymmetricGame) -> EquilibriumCertificate | None:
    """Strategy equalizing all pure payoffs: the support check on the full
    carrier, whose spread program then has optimum 0. None if no equalizer
    exists. Equalizers are always equilibria."""
    cert = verify_support(game, range(game.n))
    return None if cert is None else replace(cert, method="equalizer_lp")


def _spread_lp(payoff: np.ndarray, carrier: list[int]) -> StandardFormLP:
    """Spread program on ``carrier``: minimize u - l over strategies X
    supported on the carrier, subject to l <= (CX)_i <= u for every i in
    the carrier and (CX)_j <= l for every j outside it.

    Variables are [X on the carrier (m), u, l, one slack per inequality];
    the rows are the n + m inequalities and sum(X) = 1. Payoffs are shifted
    by -min(C, 0) so that u, l >= 0 cuts nothing off: the shift moves every
    (CX)_i by the same amount, so neither the spread nor the dominance
    constraints change.
    """
    n, m = payoff.shape[0], len(carrier)
    outside = [j for j in range(n) if j not in carrier]
    cx = payoff[:, carrier] - min(float(payoff.min()), 0.0)  # (CX)_i = cx[i] @ X
    inequalities = np.vstack([
        np.column_stack([cx[carrier], -np.ones(m), np.zeros(m)]),    # (CX)_i <= u
        np.column_stack([-cx[carrier], np.zeros(m), np.ones(m)]),    # l <= (CX)_i
        np.column_stack([cx[outside], np.zeros(n - m), -np.ones(n - m)]),  # (CX)_j <= l
    ])
    a = np.block([[inequalities, np.eye(n + m)],
                  [np.ones(m), np.zeros(n + m + 2)]])                # sum(X) = 1
    d = np.zeros(a.shape[1])
    d[m:m + 2] = 1.0, -1.0
    return StandardFormLP(a=a, b=np.eye(n + m + 1)[-1], objective=d)


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
    carrier = sorted(set(int(i) for i in carrier))
    if not carrier:
        raise GameError("carrier must be nonempty")
    n = game.n
    if carrier[0] < 0 or carrier[-1] >= n:
        raise GameError(f"carrier indices out of range for n={n}")
    result = solve_lp(_spread_lp(game.payoff, carrier))
    if result.status != "optimal":
        return None
    x = np.zeros(n)
    x[carrier] = np.clip(result.solution[:len(carrier)], 0.0, None)
    x /= x.sum()
    return x, float(result.objective_value)


def verify_support(game: SymmetricGame, candidate_support,
                   tol: float | None = None) -> EquilibriumCertificate | None:
    """Exact equilibrium with support inside ``candidate_support``, if the
    subequalizer program solves with spread within ``tol`` (default: the
    certificate tolerance)."""
    result = best_subequalizer(game, candidate_support)
    if result is None:
        return None
    x, eps = result
    if tol is None:
        tol = certificate_tolerance()
    if eps > tol:
        return None
    cert = make_certificate(game, x, method="support_lp")
    if cert.gap > tol:
        return None
    return cert


def _equalizing_solution(c: np.ndarray, carrier: list[int]):
    """Least-squares solution of the indifference system on a support,
    with the null space of the system for degenerate families."""
    m = len(carrier)
    cols = np.array(carrier)
    sub = c[np.ix_(cols, cols)]
    a = np.zeros((m, m))
    a[: m - 1] = sub[1:] - sub[0]
    a[m - 1] = 1.0
    b = np.zeros(m)
    b[m - 1] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=1e-10)
    if rank < m:
        _, sv, vh = np.linalg.svd(a)
        cutoff = 1e-10 * max(float(sv.max()), 1.0)
        null = vh[np.concatenate([sv, np.zeros(m - sv.size)]) < cutoff]
    else:
        null = np.zeros((0, m))
    residual = float(np.max(np.abs(a @ sol - b)))
    return sol, null, residual


def enumerate_symmetric_equilibria(game: SymmetricGame,
                                   n_max: int = 6) -> list[EquilibriumCertificate]:
    """Brute-force oracle: for every nonempty support solve the indifference
    linear system and keep solutions that are symmetric equilibria.

    Degenerate supports with a solution family are sampled at 10 points of
    the null space. Results are deduplicated at l-inf distance 1e-7.
    """
    n = game.n
    if n > n_max:
        raise GameError(f"support enumeration limited to n <= {n_max}, got n={n}")
    tol = certificate_tolerance()
    c = game.payoff
    found: list[np.ndarray] = []

    def consider(x_full: np.ndarray) -> None:
        if x_full.min() < -1e-10:
            return
        x = np.clip(x_full, 0.0, None)
        total = x.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-7:
            return
        x = x / total
        cx = c @ x
        if float(cx.max() - x @ cx) > tol:
            return
        for seen in found:
            if np.max(np.abs(seen - x)) <= 1e-7:
                return
        found.append(x)

    for size in range(1, n + 1):
        for carrier in itertools.combinations(range(n), size):
            carrier = list(carrier)
            sol, null, residual = _equalizing_solution(c, carrier)
            if residual > 1e-7:
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

    found.sort(key=lambda x: tuple(np.round(x, 9)))
    return [make_certificate(game, x, method="support_enumeration") for x in found]
