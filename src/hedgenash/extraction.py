"""Turn trajectory side information into exact equilibrium certificates.

Late in a run, the pure strategies supporting the limiting equilibrium
separate from the rest in average mass, in payoff against the average,
and (for uniform starts) in iterate mass. Each ranking criterion yields
candidate supports (its top-m prefixes); each candidate is checked exactly
with the subequalizer LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import EquilibriumCertificate, epsilon_gap, verify_support
from .dynamics import Trace, TraceRecord
from .game import GameError, SymmetricGame

CRITERIA = ("average_payoff", "average_mass", "iterate_mass")


@dataclass(frozen=True)
class Ranking:
    criterion: str
    order: tuple[int, ...]     # indices by descending score, ties by index
    scores: np.ndarray
    step: int


def _ranked(criterion: str, scores: np.ndarray, step: int) -> Ranking:
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    return Ranking(criterion=criterion, order=tuple(order),
                   scores=np.asarray(scores, dtype=float), step=step)


def rank_by_average_mass(trace: Trace, record: TraceRecord | None = None) -> Ranking:
    r = record or trace.final
    return _ranked("average_mass", r.xbar, r.step)


def rank_by_average_payoff(game: SymmetricGame, trace: Trace,
                           record: TraceRecord | None = None) -> Ranking:
    r = record or trace.final
    return _ranked("average_payoff", game.payoff @ r.xbar, r.step)


def rank_by_iterate_mass(trace: Trace, record: TraceRecord | None = None) -> Ranking:
    """Rank by the mass of the iterate following the snapshot. Only valid
    for uniform starts, where this order provably matches the payoff order."""
    if not trace.uniform_start:
        raise GameError("iterate-mass ranking requires a uniform start")
    r = record or trace.final
    scores = np.exp(r.log_next) if r.log_next is not None else r.x
    return _ranked("iterate_mass", scores, r.step)


def approx_best_response_set(game: SymmetricGame, trace: Trace, eps: float,
                             record: TraceRecord | None = None) -> tuple[int, ...]:
    """Pure strategies within eps of the best payoff against the average."""
    if eps <= 0:
        raise GameError("eps must be > 0")
    r = record or trace.final
    cxbar = game.payoff @ r.xbar
    return tuple(int(i) for i in np.flatnonzero(cxbar.max() - cxbar <= eps))


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
                        criteria=CRITERIA,
                        record: TraceRecord | None = None) -> ExtractionOutcome:
    """Sweep ranking prefixes m = 1..n per criterion, LP-verifying each as a
    candidate support; first certificate wins. The sweep avoids guessing a
    separation threshold: a correct prefix is guaranteed to recur, but its
    size is not computable from a finite trace."""
    r = record or trace.final
    n = game.n
    attempts: list[dict] = []
    verified: dict[frozenset, EquilibriumCertificate | None] = {}
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise GameError(f"unknown ranking criterion {criterion!r}")
        if criterion == "iterate_mass" and not trace.uniform_start:
            attempts.append({"criterion": criterion, "skipped":
                             "iterate-mass ranking requires a uniform start"})
            continue
        if criterion == "average_mass":
            ranking = rank_by_average_mass(trace, r)
        elif criterion == "average_payoff":
            ranking = rank_by_average_payoff(game, trace, r)
        else:
            ranking = rank_by_iterate_mass(trace, r)
        for m in range(1, n + 1):
            candidate = ranking.order[:m]
            key = frozenset(candidate)  # criteria often share prefixes
            if key not in verified:
                verified[key] = verify_support(game, candidate)
            cert = verified[key]
            if cert is not None:
                cert = EquilibriumCertificate(
                    strategy=cert.strategy, support=cert.support, gap=cert.gap,
                    well_supported_eps=cert.well_supported_eps,
                    method=f"extract:{criterion}:m={m}",
                    game_units_gap=cert.game_units_gap,
                    game_digest=cert.game_digest)
                attempts.append({"criterion": criterion, "m": m,
                                 "support": list(candidate), "verified": True})
                return ExtractionOutcome(certificate=cert, attempts=attempts)
            attempts.append({"criterion": criterion, "m": m,
                             "support": list(candidate), "verified": False})
    return ExtractionOutcome(certificate=None, attempts=attempts)


@dataclass
class PairReport:
    index_a: int
    index_b: int
    mutual_best_response: bool
    max_segment_gap: float | None  # None when the pairwise stage fails

    @property
    def passed(self) -> bool:
        return self.mutual_best_response and (
            self.max_segment_gap is not None and self.max_segment_gap <= 1e-7)


@dataclass
class PolytopeReport:
    pairs: list[PairReport]

    @property
    def all_mutual(self) -> bool:
        return all(p.mutual_best_response for p in self.pairs)

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.pairs)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "all_mutual": self.all_mutual,
                "pairs": [{"a": p.index_a, "b": p.index_b,
                           "mutual_best_response": p.mutual_best_response,
                           "max_segment_gap": p.max_segment_gap,
                           "passed": p.passed} for p in self.pairs]}


def check_polytope_property(game: SymmetricGame,
                            certificates: list[EquilibriumCertificate],
                            samples: int = 20) -> PolytopeReport:
    """Check that pairwise mutual-best-response equilibria span equilibria.

    For each certificate pair: verify each strategy earns the best payoff
    against the other (tolerance 1e-8); if so, sample points on the
    restriction of their affine hull to the simplex and require the
    epsilon-gap to stay within 1e-7. Pairs failing the mutual stage are
    reported without any segment claim.
    """
    digest = game.digest()
    for cert in certificates:
        if cert.game_digest != digest:
            raise GameError("certificates come from a different game")
    c = game.payoff
    reports: list[PairReport] = []
    for a in range(len(certificates)):
        for b in range(a + 1, len(certificates)):
            xa = certificates[a].strategy
            xb = certificates[b].strategy
            cxa, cxb = c @ xa, c @ xb
            mutual = (float(xa @ cxb) >= float(cxb.max()) - 1e-8
                      and float(xb @ cxa) >= float(cxa.max()) - 1e-8)
            if not mutual:
                reports.append(PairReport(a, b, False, None))
                continue
            d = xb - xa
            lo, hi = 0.0, 1.0
            for i in range(game.n):
                if d[i] > 1e-15:
                    lo = min(lo, -xa[i] / d[i])
                elif d[i] < -1e-15:
                    hi = max(hi, -xa[i] / d[i])
            max_gap = 0.0
            for t in np.linspace(lo, hi, max(samples, 2)):
                x = np.clip(xa + t * d, 0.0, None)
                x = x / x.sum()
                max_gap = max(max_gap, epsilon_gap(game, x))
            reports.append(PairReport(a, b, True, max_gap))
    return PolytopeReport(pairs=reports)
