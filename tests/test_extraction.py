import time

import numpy as np
import pytest

import hedgenash.analysis as analysis
import hedgenash.extraction as extraction
from hedgenash import (
    DEFAULT_SCHEDULE,
    GAME_KINDS,
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

    def test_shared_prefixes_recorded_under_each_criterion(self):
        game = validate_game(self.SHARED)
        out = extract_certificate(game, trace_with(self.SHARED_XBAR))
        assert out.certificate.method == "extract:average_mass:m=2"
        assert np.allclose(out.certificate.strategy, [0.0, 1.0, 0.0, 0.0])
        assert [(a["criterion"], a["m"], a["support"], a["verified"])
                for a in out.attempts] == [
            ("average_payoff", 1, [0], False), ("average_payoff", 2, [0, 2], False),
            ("average_payoff", 3, [0, 2, 3], False),
            ("average_payoff", 4, [0, 2, 3, 1], False),
            ("average_mass", 1, [0], False), ("average_mass", 2, [0, 1], True)]

    # rock-paper-scissors with rock duplicated (strategy 3): the full
    # carrier's indifference system is singular and consistent, so that
    # candidate goes to the LP. Average payoff ranks (1, 0, 3, 2)
    # at both Xbar below; average mass ranks (2, 1, 0, 3) at the first, whose
    # {0, 1, 2} carries the equilibrium (1/3, 1/3, 1/3, 0) at full rank, and
    # (0, 3, 1, 2) at the second, which certifies nothing.
    DUP_RPS = [[1.0, 0.0, 2.0, 1.0], [2.0, 1.0, 0.0, 2.0], [0.0, 2.0, 1.0, 0.0],
               [1.0, 0.0, 2.0, 1.0]]

    @staticmethod
    def failing_on(monkeypatch, bad):
        """Make the LP fallback raise LPError on the carrier bad; count LP calls."""
        calls = []
        original = analysis.best_subequalizer

        def best_subequalizer(game, carrier):
            calls.append(frozenset(carrier))
            if frozenset(carrier) == bad:
                raise LPError("LP solution violates A y = b by 0.06")
            return original(game, carrier)

        monkeypatch.setattr(analysis, "best_subequalizer", best_subequalizer)
        return calls

    def test_degenerate_candidate_certified_by_lp_fallback(self, monkeypatch):
        game = validate_game(self.DUP_RPS)
        calls = self.failing_on(monkeypatch, None)
        out = extract_certificate(game, trace_with([0.25] * 4))
        assert calls == [frozenset(range(4))]
        assert out.certificate.method == "extract:average_payoff:m=4"
        assert out.certificate.gap <= 1e-8

    def test_lp_failure_does_not_end_the_sweep(self, monkeypatch):
        game = validate_game(self.DUP_RPS)
        calls = self.failing_on(monkeypatch, frozenset(range(4)))
        out = extract_certificate(game, trace_with([0.24, 0.25, 0.27, 0.24]))
        assert calls == [frozenset(range(4))]
        assert out.certificate.method == "extract:average_mass:m=3"
        assert np.allclose(out.certificate.strategy, [1 / 3, 1 / 3, 1 / 3, 0.0])
        assert out.attempts[3] == {
            "criterion": "average_payoff", "m": 4, "support": [1, 0, 3, 2],
            "verified": False, "error": "LP solution violates A y = b by 0.06"}
        assert [a for a in out.attempts if "error" in a] == [out.attempts[3]]

    def test_lp_failure_recorded_under_each_criterion(self, monkeypatch):
        game = validate_game(self.DUP_RPS)
        self.failing_on(monkeypatch, frozenset(range(4)))
        out = extract_certificate(game, trace_with([0.3, 0.2, 0.2, 0.3]))
        assert out.certificate is None
        # the full carrier fails under both criteria ({0, 3} is singular and
        # consistent too, and certifies nothing)
        assert [(a["criterion"], a["m"]) for a in out.attempts if "error" in a] == [
            ("average_payoff", 4), ("average_mass", 4)]

    def test_soundness_gap_recomputed(self, hawk_dove_norm):
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23,
                            10**4, emit_every=1000)
        out = extract_certificate(hawk_dove_norm, tr)
        cert = out.certificate
        cx = hawk_dove_norm.payoff @ cert.strategy
        assert float(cx.max() - cert.strategy @ cx) <= 1e-8


def lp_verdict(game, candidate):
    """The subequalizer LP's verdict on every candidate, with no
    indifference solve: the certificate of its best strategy when the
    spread is within the certificate tolerance."""
    solved = analysis.best_subequalizer(game, candidate)
    if solved is None or not analysis.within_tolerance(game, solved[1]):
        return None
    return analysis.make_certificate(game, solved[0], method="support_lp")


def sweep_prefixes(game, trace):
    """Every top-m prefix of every criterion's order at the final record."""
    scores = _scores(game, trace.final)
    prefixes = set()
    for criterion in extraction.CRITERIA:
        s = scores[criterion]
        order = sorted(range(game.n), key=lambda i: (-s[i], i))
        prefixes.update(tuple(order[:m]) for m in range(1, game.n + 1))
    return sorted(prefixes, key=lambda p: (len(p), p))


class TestIndifferenceSolve:
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_same_verdict_as_the_lp(self, kind):
        # every prefix of both orders, not only those before the first
        # certificate: verify_support and the LP on its own certify the
        # same candidates, with the same strategy
        checked = certified = 0
        for n in (3, 5, 8, 12, 16):
            for seed in (0, 1):
                game = generate_game(kind, n, seed)
                tr = run_trajectory(game, uniform_strategy(n), POWER_23, 2000,
                                    emit_every=2000)
                for prefix in sweep_prefixes(game, tr):
                    solved = analysis.verify_support(game, list(prefix))
                    lp = lp_verdict(game, list(prefix))
                    assert (solved is None) == (lp is None), (kind, n, seed, prefix)
                    checked += 1
                    if lp is not None:
                        certified += 1
                        assert solved.support == lp.support
                        assert np.max(np.abs(solved.strategy - lp.strategy)) <= 1e-7
        # every prefix of the identity carries an equilibrium
        assert certified >= 1 and (checked > certified or kind == "coordination")

    @pytest.mark.parametrize("spec", [("zero_sum_symmetric", 10, 1),
                                      ("random_uniform", 12, 0),
                                      ("zero_sum_symmetric", 16, 0)])
    def test_nondegenerate_game_needs_no_lp(self, spec, monkeypatch):
        calls = []
        original = analysis.best_subequalizer

        def counting(game, carrier):
            calls.append(tuple(carrier))
            return original(game, carrier)

        monkeypatch.setattr(analysis, "best_subequalizer", counting)
        game = generate_game(*spec)
        tr = run_trajectory(game, uniform_strategy(game.n), POWER_23, 10**4,
                            emit_every=10**4)
        out = extract_certificate(game, tr)
        assert calls == []
        if spec[0] == "zero_sum_symmetric":
            # a skew-symmetric core makes every even prefix's system
            # singular and inconsistent: rejected from its residual alone
            even = [a["support"] for a in out.attempts if a["m"] % 2 == 0]
            assert even
            for candidate in even:
                _, null, residual = analysis._equalizing_solution(game, candidate)
                assert residual > analysis.INDIFFERENCE_TOL and null.shape[0] == 0

    @pytest.mark.parametrize("spec", [("zero_sum_symmetric", 32, 0),
                                      ("zero_sum_symmetric", 64, 0),
                                      ("random_uniform", 64, 1)])
    def test_large_failing_sweep_is_fast(self, spec):
        # the LP sweep took 1.3 s to a minute on these, and raised LPError
        game = generate_game(*spec)
        tr = run_trajectory(game, uniform_strategy(game.n), POWER_23, 10**4,
                            emit_every=10**4)
        started = time.perf_counter()
        out = extract_certificate(game, tr)
        assert time.perf_counter() - started < 1.0
        assert out.certificate is None
        assert len(out.attempts) == 2 * game.n
        assert not any("error" in a for a in out.attempts)


class TestPayoffScaleInvariance:
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_certificates_do_not_depend_on_payoff_units(self, kind):
        # one trace of the unscaled game, extracted on C * 2^k: the tolerance
        # and the solves are read in the payoff unit, which scales with C
        for n in (3, 5, 8, 12):
            for seed in range(3):
                game = generate_game(kind, n, seed)
                tr = run_trajectory(game, uniform_strategy(n), POWER_23, 2000,
                                    emit_every=2000)
                base = extract_certificate(game, tr).certificate
                oracle = (None if n > 6 else
                          [c.support for c in analysis.enumerate_symmetric_equilibria(game)])
                scaled = []
                for k in (-40, -20, 20, 40):
                    scaled_game = validate_game(game.payoff * 2.0**k)
                    cert = extract_certificate(scaled_game, tr).certificate
                    assert (cert is None) == (base is None), (kind, n, seed, k)
                    if oracle is not None:
                        found = analysis.enumerate_symmetric_equilibria(scaled_game)
                        assert [c.support for c in found] == oracle, (kind, n, seed, k)
                    if cert is not None:
                        assert (cert.method, cert.support) == (base.method, base.support)
                        assert np.max(np.abs(cert.strategy - base.strategy)) <= 1e-12
                        scaled.append((k, cert))
                for k, cert in scaled:
                    assert np.array_equal(cert.strategy, scaled[0][1].strategy)
                    assert cert.gap * 2.0**-k == scaled[0][1].gap * 2.0**-scaled[0][0]
