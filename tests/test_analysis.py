import numpy as np
import pytest

import hedgenash.analysis as analysis
from hedgenash import (
    GameError,
    best_subequalizer,
    certificate_tolerance,
    enumerate_symmetric_equilibria,
    epsilon_gap,
    find_equalizer,
    generate_game,
    is_well_supported,
    make_certificate,
    min_equalizer_gap,
    normalize_payoffs,
    uniform_strategy,
    validate_game,
    verify_support,
    well_supported_eps,
)

E1 = np.array([1.0, 0.0, 0.0])


def random_game(seed, n):
    return validate_game(np.random.default_rng(seed).uniform(0, 1, size=(n, n)))


class TestEpsilonGap:
    def test_rps_uniform_is_exact(self, rps_nonneg):
        assert epsilon_gap(rps_nonneg, uniform_strategy(3)) == 0.0

    def test_rps_pure_strategy(self, rps_nonneg):
        assert epsilon_gap(rps_nonneg, E1) == pytest.approx(1.0)

    def test_identity_mixed(self, identity2):
        assert epsilon_gap(identity2, np.array([0.5, 0.5])) == 0.0

    def test_nonnegative(self):
        for seed in range(20):
            g = random_game(seed, 4)
            x = np.random.default_rng(seed + 1).dirichlet(np.ones(4))
            assert epsilon_gap(g, x) >= 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            g = random_game(seed, 4)
            x = rng.dirichlet(np.ones(4))
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(-2.0, 2.0)
            mapped = validate_game(a * g.payoff + b)
            assert abs(epsilon_gap(mapped, x) - a * epsilon_gap(g, x)) <= 1e-10


class TestWellSupported:
    def test_uniform_rps_at_zero(self, rps_nonneg):
        assert is_well_supported(rps_nonneg, uniform_strategy(3), 0.0)

    def test_half_half_zero_not_well_supported(self, rps_nonneg):
        # C(0.5,0.5,0) = (0.5,1.5,1.0): supported strategy 1 is 1.0 short
        x = np.array([0.5, 0.5, 0.0])
        assert not is_well_supported(rps_nonneg, x, 0.2)
        assert well_supported_eps(rps_nonneg, x) == pytest.approx(1.0)

    def test_negative_eps_rejected(self, rps_nonneg):
        with pytest.raises(GameError):
            is_well_supported(rps_nonneg, uniform_strategy(3), -0.1)


class TestCertificates:
    def test_fields(self, rps_nonneg):
        cert = make_certificate(rps_nonneg, uniform_strategy(3), method="manual")
        assert cert.gap == 0.0
        assert cert.support == (0, 1, 2)
        assert cert.method == "manual"
        assert cert.game_digest == rps_nonneg.digest()
        payload = cert.to_dict()
        assert payload["support"] == [0, 1, 2]
        assert "game_digest" not in payload

    def test_game_units_gap(self):
        raw = validate_game(np.array([[4.0, 0.0], [0.0, 4.0]]))
        norm, _, _ = normalize_payoffs(raw)
        cert = make_certificate(norm, np.array([0.9, 0.1]), method="manual")
        assert cert.game_units_gap == pytest.approx(4.0 * cert.gap)

    def test_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("HEDGE_NASH_TOL", "1e-4")
        assert certificate_tolerance() == 1e-4
        monkeypatch.delenv("HEDGE_NASH_TOL")
        assert certificate_tolerance() == 1e-8

    @pytest.mark.parametrize("value", ["tight", "nan", "-1e-6", "inf"])
    def test_bad_tolerance_env_is_game_error(self, monkeypatch, value):
        monkeypatch.setenv("HEDGE_NASH_TOL", value)
        with pytest.raises(GameError, match="HEDGE_NASH_TOL"):
            certificate_tolerance()


class TestEqualizers:
    def test_rps_equalizer_uniform(self, rps_nonneg):
        cert = find_equalizer(rps_nonneg)
        assert cert is not None
        assert np.max(np.abs(cert.strategy - 1 / 3)) <= 1e-9
        assert cert.method == "equalizer_lp"

    def test_identity_equalizer(self, identity2):
        cert = find_equalizer(identity2)
        assert np.max(np.abs(cert.strategy - 0.5)) <= 1e-9

    def test_dominated_row_has_none(self):
        g = validate_game([[1.0, 1.0], [0.0, 0.0]])
        assert find_equalizer(g) is None

    def test_min_gap_examples(self, identity2):
        g = validate_game([[1.0, 1.0], [0.0, 0.0]])
        _, spread = min_equalizer_gap(g)
        assert spread == pytest.approx(1.0, abs=1e-8)
        _, spread = min_equalizer_gap(identity2)
        assert spread <= 1e-8

    @pytest.mark.parametrize("seed", range(15))
    def test_consistency_with_min_gap(self, seed):
        g = random_game(seed, 3)
        cert = find_equalizer(g)
        _, spread = min_equalizer_gap(g)
        assert (cert is not None) == (spread <= 1e-8)
        if cert is not None:
            cx = g.payoff @ cert.strategy
            assert cx.max() - cx.min() <= 1e-8


class TestSubequalizer:
    def test_full_carrier_rps(self, rps_nonneg):
        x, eps = best_subequalizer(rps_nonneg, [0, 1, 2])
        assert eps <= 1e-9
        assert np.max(np.abs(x - 1 / 3)) <= 1e-8

    def test_identity_pure_carrier(self, identity2):
        x, eps = best_subequalizer(identity2, [0])
        assert eps <= 1e-12
        assert np.array_equal(x, [1.0, 0.0])

    def test_rps_pure_carrier_infeasible(self, rps_nonneg):
        assert best_subequalizer(rps_nonneg, [0]) is None

    def test_empty_carrier_rejected(self, rps_nonneg):
        with pytest.raises(GameError):
            best_subequalizer(rps_nonneg, [])

    def test_out_of_range_rejected(self, rps_nonneg):
        with pytest.raises(GameError):
            best_subequalizer(rps_nonneg, [0, 5])


class TestSpreadProgramSize:
    @pytest.fixture
    def captured(self, monkeypatch):
        shapes = []
        original = analysis.solve_lp

        def capture(lp):
            shapes.append(lp.a.shape)
            return original(lp)

        monkeypatch.setattr(analysis, "solve_lp", capture)
        return shapes

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_min_gap_has_2n_plus_1_rows(self, captured, n):
        min_equalizer_gap(generate_game("random_uniform", n, 0))
        assert [rows for rows, _ in captured] == [2 * n + 1]

    def test_subequalizer_has_n_plus_m_plus_1_rows(self, captured):
        best_subequalizer(generate_game("random_uniform", 12, 0), [1, 4, 7])
        assert [rows for rows, _ in captured] == [12 + 3 + 1]


class TestVerifySupport:
    def test_identity_full_support(self, identity2):
        cert = verify_support(identity2, [0, 1])
        assert cert is not None
        assert np.allclose(cert.strategy, 0.5, atol=1e-9)
        assert cert.method == "support_lp"
        assert cert.gap <= 1e-8

    def test_rps_pure_support_fails(self, rps_nonneg):
        assert verify_support(rps_nonneg, [0]) is None

    def test_explicit_tolerance(self):
        # row 1 earns row 0's payoff plus 1e-5 against anything: spread 1e-5
        g = validate_game([[0.2, 0.4], [0.2 + 1e-5, 0.4 + 1e-5]])
        assert verify_support(g, [0, 1]) is None
        assert verify_support(g, [0, 1], tol=1e-4) is not None

    def test_hawk_dove(self, hawk_dove):
        cert = verify_support(hawk_dove, [0, 1])
        assert cert is not None
        assert np.allclose(cert.strategy, 0.5, atol=1e-9)


class TestEnumeration:
    def test_identity_three_equilibria(self, identity2):
        certs = enumerate_symmetric_equilibria(identity2)
        strategies = sorted(tuple(np.round(c.strategy, 9)) for c in certs)
        assert strategies == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        assert all(c.method == "support_enumeration" for c in certs)

    def test_rps_unique_uniform(self, rps_nonneg):
        certs = enumerate_symmetric_equilibria(rps_nonneg)
        assert len(certs) == 1
        assert np.max(np.abs(certs[0].strategy - 1 / 3)) <= 1e-9

    def test_hawk_dove_unique(self, hawk_dove):
        certs = enumerate_symmetric_equilibria(hawk_dove)
        assert len(certs) == 1
        assert np.allclose(certs[0].strategy, 0.5, atol=1e-9)

    def test_dimension_cap(self):
        g = random_game(0, 7)
        with pytest.raises(GameError):
            enumerate_symmetric_equilibria(g)

    def test_constant_game_samples_family(self):
        g = validate_game(np.ones((2, 2)))
        certs = enumerate_symmetric_equilibria(g)
        assert len(certs) >= 3  # E1, E2, and interior family points
        for c in certs:
            assert c.gap <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_always_finds_at_least_one(self, seed):
        game = random_game(seed, 4)
        certs = enumerate_symmetric_equilibria(game)
        assert len(certs) >= 1
        for c in certs:
            assert epsilon_gap(game, c.strategy) <= 1e-8
