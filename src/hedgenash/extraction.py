"""Turn trajectory side information into exact equilibrium certificates.

Late in a run, the pure strategies supporting the limiting equilibrium
separate from the rest in average mass and in payoff against the average,
both read from the final record's Xbar^K alone. Each ranking criterion
yields candidate supports (its top-m prefixes), and ``verify_support``
checks each, in the criterion's order: one solve of its indifference
system, C_SS x = v 1 with sum(x) = 1, in which an inconsistent system fails
at once, a full-rank one has the one solution that is checked, and only a
singular, consistent system is searched with the subequalizer LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import EquilibriumCertificate, verify_support
from .dynamics import Trace, TraceRecord
from .game import SymmetricGame
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


def extract_certificate(game: SymmetricGame, trace: Trace) -> ExtractionOutcome:
    """Sweep prefixes m = 1..n of each CRITERIA order in turn (descending
    score, ties by index) at the final record, verifying each as a
    candidate support with verify_support; first certificate wins. The
    sweep avoids guessing a separation threshold: a correct prefix is
    guaranteed to recur, but its size is not computable from a finite
    trace. A candidate whose LP fails numerically is recorded with its
    error and the sweep goes on."""
    scores = _scores(game, trace.final)
    attempts: list[dict] = []
    for criterion in CRITERIA:
        s = scores[criterion]
        order = sorted(range(game.n), key=lambda i: (-s[i], i))
        for m in range(1, game.n + 1):
            candidate = order[:m]
            try:
                cert, error = verify_support(game, candidate), None
            except LPError as exc:
                cert, error = None, str(exc)
            attempts.append({"criterion": criterion, "m": m, "support": candidate,
                             "verified": cert is not None})
            if error is not None:
                attempts[-1]["error"] = error
            if cert is not None:
                cert = replace(cert, method=f"extract:{criterion}:m={m}")
                return ExtractionOutcome(certificate=cert, attempts=attempts)
    return ExtractionOutcome(certificate=None, attempts=attempts)
