"""The benchmark's own recheck of what hedgenash returns, in plain numpy.

Each function returns None when the output holds, or a one-line reason.
A failed recheck counts the game as failed; it never stops the run.
"""

from __future__ import annotations

import numpy as np

SIMPLEX_TOL = 1e-9      # |sum x - 1| and the most negative entry allowed
SUPPORT_TOL = 1e-9      # entries above this are in the support
ORACLE_TOL = 1e-6       # l-inf distance to an oracle equilibrium
SPREAD_TOL = 1e-9       # reported vs recomputed payoff spread


def _simplex_reason(x: np.ndarray, n: int) -> str | None:
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        return "strategy has the wrong length or non-finite entries"
    if x.min() < -SIMPLEX_TOL or abs(x.sum() - 1.0) > SIMPLEX_TOL:
        return "strategy is off the simplex"
    return None


def recheck_certificate(payoff, certificate: dict, tol: float,
                        oracle=None) -> str | None:
    """Recompute the gap max(Cx) - x.Cx against ``tol``, and check that the
    strategy is on the simplex, that the stated support is the strategy's
    support, and (when oracle strategies are given) that one matches."""
    c = np.asarray(payoff, dtype=float)
    x = np.asarray(certificate["strategy"], dtype=float)
    reason = _simplex_reason(x, c.shape[0])
    if reason:
        return reason
    cx = c @ x
    gap = float(cx.max() - x @ cx)
    if not gap <= tol:
        return f"gap {gap:.3g} exceeds the certificate tolerance {tol:g}"
    if sorted(certificate["support"]) != np.flatnonzero(x > SUPPORT_TOL).tolist():
        return "stated support differs from the strategy's support"
    if oracle is not None and not any(
            float(np.max(np.abs(x - np.asarray(y)))) <= ORACLE_TOL for y in oracle):
        return "no oracle equilibrium matches the certificate"
    return None


def recheck_spread(payoff, x, spread: float) -> str | None:
    """Check a min_equalizer_gap result: x on the simplex, and the reported
    spread equal to max(Cx) - min(Cx) recomputed here."""
    c = np.asarray(payoff, dtype=float)
    x = np.asarray(x, dtype=float)
    reason = _simplex_reason(x, c.shape[0])
    if reason:
        return reason
    cx = c @ x
    if not abs(float(cx.max() - cx.min()) - spread) <= SPREAD_TOL:
        return "reported spread differs from the recomputed one"
    return None


def perturb(payoff, certificate: dict) -> dict:
    """A deliberately wrong certificate: a tenth of the mass moved onto the
    pure strategy that does worst against the certified strategy."""
    x = np.asarray(certificate["strategy"], dtype=float)
    bad = 0.9 * x
    bad[int(np.argmin(np.asarray(payoff, dtype=float) @ x))] += 0.1
    return {**certificate, "strategy": [float(v) for v in bad]}
