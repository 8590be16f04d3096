"""Turn trajectory side information into exact equilibrium certificates.

Late in a run, the pure strategies supporting the limiting equilibrium
separate from the rest in average mass and in payoff against the average,
both read from the final record's Xbar^K alone. Each ranking criterion
yields candidate supports (its top-m prefixes); each candidate is checked
exactly with the subequalizer LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import EquilibriumCertificate, verify_support
from .dynamics import Trace, TraceRecord
from .game import GameError, SymmetricGame
from .lp import LPError

CRITERIA = ("average_payoff", "average_mass")


def _scores(game: SymmetricGame, record: TraceRecord) -> dict[str, np.ndarray]:
    """Each criterion's score per pure strategy at ``record``."""
    return {"average_payoff": game.payoff @ record.xbar,
            "average_mass": record.xbar}


@dataclass
class ExtractionOutcome:
    certificate: EquilibriumCertificate | None
    attempts: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "attempts": self.attempts,
        }


def extract_certificate(game: SymmetricGame, trace: Trace,
                        criteria=CRITERIA) -> ExtractionOutcome:
    """Sweep prefixes m = 1..n of each criterion's order (descending score,
    ties by index) at the final record, LP-verifying each as a candidate
    support; first certificate wins. The sweep avoids guessing a
    separation threshold: a correct prefix is guaranteed to recur, but its
    size is not computable from a finite trace. A candidate whose LP fails
    numerically is recorded with its error and the sweep goes on."""
    criteria = tuple(criteria)
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise GameError(f"unknown ranking criterion {criterion!r}")
    scores = _scores(game, trace.final)
    attempts: list[dict] = []
    verified: dict[frozenset, EquilibriumCertificate | LPError | None] = {}
    for criterion in criteria:
        s = scores[criterion]
        order = sorted(range(game.n), key=lambda i: (-s[i], i))
        for m in range(1, game.n + 1):
            candidate = order[:m]
            key = frozenset(candidate)  # criteria often share prefixes
            if key not in verified:
                try:
                    verified[key] = verify_support(game, candidate)
                except LPError as exc:
                    verified[key] = exc
            cert = verified[key]
            attempt = {"criterion": criterion, "m": m, "support": candidate,
                       "verified": isinstance(cert, EquilibriumCertificate)}
            if isinstance(cert, LPError):
                attempt["error"] = str(cert)
            attempts.append(attempt)
            if attempt["verified"]:
                cert = replace(cert, method=f"extract:{criterion}:m={m}")
                return ExtractionOutcome(certificate=cert, attempts=attempts)
    return ExtractionOutcome(certificate=None, attempts=attempts)
