import numpy as np

import hedgenash.analysis as analysis
import hedgenash.extraction as extraction
from hedgenash import (
    DEFAULT_SCHEDULE,
    LPError,
    Trace,
    extract_certificate,
    generate_game,
    run_trajectory,
    uniform_strategy,
    validate_game,
)
from hedgenash.extraction import _scores

POWER_23 = DEFAULT_SCHEDULE


def trace_with(xbar):
    """Hand-built single-snapshot trace for ranking unit tests."""
    xbar = np.asarray(xbar, dtype=float)
    # K = 5; alpha, A_K, gap_avg, gap_iter, avg_step_norm; X; Xbar
    row = np.concatenate([[0.5, 2.0, 0.0, 0.0, 0.0], xbar, xbar])
    return Trace(steps=np.array([5]), table=row[None], avg_self_play=np.array([0.0]))


def order(game, record, criterion):
    """A criterion's order at a record: descending score, ties by index."""
    s = _scores(game, record)[criterion]
    return tuple(sorted(range(s.size), key=lambda i: (-s[i], i)))


class TestRankings:
    def test_average_mass_descending(self, rps_nonneg):
        tr = trace_with([0.5, 0.3, 0.2])
        assert order(rps_nonneg, tr.final, "average_mass") == (0, 1, 2)

    def test_average_mass_tie_break(self, rps_nonneg):
        ties = trace_with([1 / 3] * 3).final
        assert order(rps_nonneg, ties, "average_mass") == (0, 1, 2)

    def test_average_mass_reversed(self, rps_nonneg):
        tr = trace_with([0.2, 0.3, 0.5])
        assert order(rps_nonneg, tr.final, "average_mass") == (2, 1, 0)

    def test_average_payoff_identity(self, identity2):
        tr = trace_with([0.7, 0.3])
        assert order(identity2, tr.final, "average_payoff") == (0, 1)
        assert np.allclose(_scores(identity2, tr.final)["average_payoff"], [0.7, 0.3])

    def test_average_payoff_rps_ties(self, rps_nonneg):
        ties = trace_with([1 / 3] * 3).final
        assert order(rps_nonneg, ties, "average_payoff") == (0, 1, 2)

    def test_average_payoff_rps_mixed(self, rps_nonneg):
        tr = trace_with([0.5, 0.25, 0.25])
        assert np.allclose(_scores(rps_nonneg, tr.final)["average_payoff"],
                           [1.0, 1.25, 0.75])
        assert order(rps_nonneg, tr.final, "average_payoff") == (1, 0, 2)


class TestExtractCertificate:
    def test_rps_full_support(self, rps_nonneg):
        tr = run_trajectory(rps_nonneg, uniform_strategy(3), POWER_23, 200,
                            emit_every=50)
        out = extract_certificate(rps_nonneg, tr)
        assert out.certificate is not None
        assert np.max(np.abs(out.certificate.strategy - 1 / 3)) <= 1e-8
        assert out.certificate.method == "extract:average_payoff:m=3"
        # prefixes m=1 and m=2 must have been tried and rejected first
        rejected = [a for a in out.attempts if not a.get("verified")]
        assert {a["m"] for a in rejected} == {1, 2}

    def test_hawk_dove_average_mass(self, hawk_dove_norm, monkeypatch):
        # the sweep limited to its second criterion
        monkeypatch.setattr(extraction, "CRITERIA", ("average_mass",))
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23,
                            10**4, emit_every=1000)
        out = extract_certificate(hawk_dove_norm, tr)
        assert out.certificate is not None
        assert np.allclose(out.certificate.strategy, 0.5, atol=1e-8)
        assert out.certificate.method == "extract:average_mass:m=2"

    def test_average_mass_certifies_what_payoff_misses(self):
        # every average_payoff prefix of this game fails after 1e4 steps:
        # the sweep goes on to the second criterion
        game = generate_game("zero_sum_symmetric", 10, 1)
        tr = run_trajectory(game, uniform_strategy(10), POWER_23, 10**4, emit_every=1000)
        out = extract_certificate(game, tr)
        assert out.certificate.method == "extract:average_mass:m=3"
        assert [a["criterion"] for a in out.attempts] == \
            ["average_payoff"] * 10 + ["average_mass"] * 3

    def test_identity_locks_onto_dominant(self, identity2):
        tr = run_trajectory(identity2, np.array([0.9, 0.1]), POWER_23,
                            10**4, emit_every=1000)
        out = extract_certificate(identity2, tr)
        assert out.certificate is not None
        assert np.allclose(out.certificate.strategy, [1.0, 0.0], atol=1e-8)
        assert out.certificate.method.endswith("m=1")

    # at Xbar = (0.39, 0.3, 0.29, 0.02) average payoff ranks (0, 2, 3, 1)
    # and fails on every prefix; average mass ranks (0, 1, 2, 3), so its {0}
    # is average payoff's, and {0, 1} carries the equilibrium (0, 1, 0, 0)
    SHARED = [[1.0, 1.0, 3.0, 2.0], [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 1.0],
              [2.0, 0.0, 0.0, 1.0]]
    SHARED_XBAR = [0.39, 0.3, 0.29, 0.02]

    def test_shared_prefixes_verified_once(self, monkeypatch):
        game = validate_game(self.SHARED)
        calls = []
        original = analysis.best_subequalizer

        def counting(game, carrier):
            calls.append(tuple(carrier))
            return original(game, carrier)

        monkeypatch.setattr(analysis, "best_subequalizer", counting)
        out = extract_certificate(game, trace_with(self.SHARED_XBAR))
        assert out.certificate.method == "extract:average_mass:m=2"
        assert np.allclose(out.certificate.strategy, [0.0, 1.0, 0.0, 0.0])
        assert len(calls) == 5  # {0}, {0, 2}, {0, 2, 3}, {0, 1, 2, 3}, then {0, 1}
        assert [(a["criterion"], a["m"], a["support"], a["verified"])
                for a in out.attempts] == [
            ("average_payoff", 1, [0], False), ("average_payoff", 2, [0, 2], False),
            ("average_payoff", 3, [0, 2, 3], False),
            ("average_payoff", 4, [0, 2, 3, 1], False),
            ("average_mass", 1, [0], False), ("average_mass", 2, [0, 1], True)]

    @staticmethod
    def failing_on(monkeypatch, bad):
        """Make verify_support raise LPError on the carrier bad; count calls."""
        calls = []
        original = extraction.verify_support

        def verify_support(game, candidate):
            calls.append(frozenset(candidate))
            if frozenset(candidate) == bad:
                raise LPError("LP solution violates A y = b by 0.06")
            return original(game, candidate)

        monkeypatch.setattr(extraction, "verify_support", verify_support)
        return calls

    def test_lp_failure_does_not_end_the_sweep(self, rps_nonneg, monkeypatch):
        # average payoff ranks (1, 0, 2) at this Xbar
        self.failing_on(monkeypatch, frozenset({0, 1}))
        out = extract_certificate(rps_nonneg, trace_with([0.5, 0.3, 0.2]))
        assert out.certificate.method == "extract:average_payoff:m=3"
        assert out.attempts[1] == {
            "criterion": "average_payoff", "m": 2, "support": [1, 0],
            "verified": False, "error": "LP solution violates A y = b by 0.06"}
        assert "error" not in out.attempts[0] and "error" not in out.attempts[2]

    def test_lp_failure_is_memoised(self, monkeypatch):
        game = validate_game(self.SHARED)
        calls = self.failing_on(monkeypatch, frozenset({0}))
        out = extract_certificate(game, trace_with(self.SHARED_XBAR))
        assert out.certificate.method == "extract:average_mass:m=2"
        assert calls.count(frozenset({0})) == 1
        assert [a["criterion"] for a in out.attempts if "error" in a] == [
            "average_payoff", "average_mass"]

    def test_soundness_gap_recomputed(self, hawk_dove_norm):
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23,
                            10**4, emit_every=1000)
        out = extract_certificate(hawk_dove_norm, tr)
        cert = out.certificate
        cx = hawk_dove_norm.payoff @ cert.strategy
        assert float(cx.max() - cert.strategy @ cx) <= 1e-8
