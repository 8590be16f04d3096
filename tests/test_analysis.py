from dataclasses import replace

import numpy as np
import pytest

import hedgenash.analysis as analysis
from hedgenash import (
    GameError,
    certificate_tolerance,
    enumerate_symmetric_equilibria,
    epsilon_gap,
    find_equalizer,
    generate_game,
    min_equalizer_gap,
    normalize_payoffs,
    uniform_strategy,
    validate_game,
    verify_support,
)
from hedgenash.analysis import (
    best_subequalizer,
    make_certificate,
    well_supported_eps,
)
from hedgenash.game import support

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

    def test_rejects_a_strategy_of_the_wrong_length(self):
        with pytest.raises(GameError, match=r"^strategy has length 2, game has n=3$"):
            epsilon_gap(validate_game(np.eye(3)), [0.5, 0.5])


class TestWellSupported:
    def test_uniform_rps_at_zero(self, rps_nonneg):
        assert well_supported_eps(rps_nonneg, uniform_strategy(3)) <= 0.0

    def test_half_half_zero_not_well_supported(self, rps_nonneg):
        # C(0.5,0.5,0) = (0.5,1.5,1.0): supported strategy 1 is 1.0 short
        x = np.array([0.5, 0.5, 0.0])
        assert not well_supported_eps(rps_nonneg, x) <= 0.2
        assert well_supported_eps(rps_nonneg, x) == pytest.approx(1.0)

    def test_rejects_a_strategy_of_the_wrong_length(self):
        with pytest.raises(GameError, match=r"^strategy has length 2, game has n=3$"):
            well_supported_eps(validate_game(np.eye(3)), [0.5, 0.5])


class TestCertificates:
    def test_fields(self, rps_nonneg):
        cert = make_certificate(rps_nonneg, uniform_strategy(3), method="manual")
        assert cert.gap == 0.0
        assert cert.support == (0, 1, 2)
        assert cert.method == "manual"
        payload = cert.to_dict()
        assert payload["support"] == [0, 1, 2]
        assert "game_digest" not in payload

    def test_game_units_gap(self):
        # a gap is in the payoffs of the game it is measured on: normalizing
        # by C' = a*C + b multiplies it by a. (1 - d, d) has gap 4(1 - 2d)d
        # on the raw game, above the tolerance, and (1 - 2d)d, below it, on
        # the normalized one; both games have payoff unit 1
        raw = validate_game(np.array([[4.0, 0.0], [0.0, 4.0]]))
        norm, a, _ = normalize_payoffs(raw)
        x = np.array([1 - 0.9e-8, 0.9e-8])
        assert a == 0.25 and raw.payoff_unit == norm.payoff_unit == 1.0
        assert epsilon_gap(raw, x) > certificate_tolerance()
        assert make_certificate(raw, x, method="manual") is None
        cert = make_certificate(norm, x, method="manual")
        assert cert.gap == pytest.approx(a * epsilon_gap(raw, x))
        assert "game_units_gap" not in cert.to_dict()

    def test_issued_only_within_tolerance(self):
        # (1 - d, d) has gap (1 - 2d)d on the identity game: just below the
        # 1e-8 tolerance at d = 0.9999e-8, just above it at d = 1.0001e-8
        game = normalize_payoffs(validate_game([[4.0, 0.0], [0.0, 4.0]]))[0]
        below, above = (np.array([1 - d, d]) for d in (0.9999e-8, 1.0001e-8))
        gap = epsilon_gap(game, below)
        assert 0.9998e-8 < gap <= certificate_tolerance()
        assert make_certificate(game, below, method="manual").gap == pytest.approx(gap)
        assert 1e-8 < epsilon_gap(game, above) < 1.0002e-8
        assert make_certificate(game, above, method="manual") is None

    def test_support_follows_strategy(self, rps_nonneg):
        cert = make_certificate(rps_nonneg, uniform_strategy(3), method="manual")
        y = np.array([0.5, 0.0, 0.5])
        assert replace(cert, strategy=y).support == support(y) == (0, 2)
        assert replace(cert, method="other").support == (0, 1, 2)

    # the environment is not read: the tolerance is the same unset, as a
    # number and as a string that is no number
    @pytest.mark.parametrize("value", [None, "1e-4", "1", "1e-8", "0", "0.5", "2.5E-3",
                                       ".5", "3.", "tight", "nan", "-1e-6", "inf", "1_0",
                                       "\u0663", "0x10", "1e400", " 1e-4"])
    def test_tolerance_ignores_env(self, monkeypatch, value):
        if value is not None:
            monkeypatch.setenv("HEDGE_NASH_TOL", value)
        else:
            monkeypatch.delenv("HEDGE_NASH_TOL", raising=False)
        assert certificate_tolerance() == 1e-8


class TestEqualizers:
    def test_rps_equalizer_uniform(self, rps_nonneg):
        cert = find_equalizer(rps_nonneg)
        assert cert is not None
        assert np.max(np.abs(cert.strategy - 1 / 3)) <= 1e-9
        assert cert.method == "indifference_solve"

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

    def test_strategy_as_accurate_as_the_solve(self):
        # read from the tableau, this LP's strategy lies 1.4e-12 from the
        # full-rank system's exact solution; solved from the final basis it
        # lies within 1e-14
        game = generate_game("random_uniform", 7, 7)
        x, _ = best_subequalizer(game, [0, 1, 3, 4, 6])
        cert = verify_support(game, [3, 4, 1, 6, 0])
        assert cert.method == "indifference_solve"
        assert np.max(np.abs(x - cert.strategy)) <= 1e-13

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
        # a full-rank indifference system: its one solution is the certificate
        cert = verify_support(identity2, [0, 1])
        assert cert is not None
        assert np.allclose(cert.strategy, 0.5, atol=1e-9)
        assert cert.method == "indifference_solve"
        assert cert.gap <= 1e-8

    def test_duplicated_strategy_goes_to_the_lp(self):
        # rock-paper-scissors with rock copied as strategy 3: the full
        # carrier's system is singular and consistent, and the LP picks one
        # strategy of its family
        game = validate_game([[1, 0, 2, 1], [2, 1, 0, 2], [0, 2, 1, 0], [1, 0, 2, 1]])
        cert = verify_support(game, range(4))
        assert cert is not None
        assert cert.method == "support_lp"
        assert cert.gap <= 1e-8
        x = cert.strategy
        assert np.allclose([x[0] + x[3], x[1], x[2]], 1 / 3, atol=1e-9)

    def test_carrier_checked_before_the_solve(self, rps_nonneg):
        with pytest.raises(GameError, match="carrier must be nonempty"):
            verify_support(rps_nonneg, [])
        with pytest.raises(GameError, match="out of range for n=3"):
            verify_support(rps_nonneg, [2, -1])

    def test_rps_pure_support_fails(self, rps_nonneg):
        assert verify_support(rps_nonneg, [0]) is None

    def test_explicit_tolerance(self):
        # row 1 earns row 0's payoff plus 1e-5 against anything: spread 1e-5,
        # past the tolerance; plus 5e-9: spread 5e-9, within it
        g = validate_game([[0.2, 0.4], [0.2 + 1e-5, 0.4 + 1e-5]])
        assert verify_support(g, [0, 1]) is None
        g = validate_game([[0.2, 0.4], [0.2 + 5e-9, 0.4 + 5e-9]])
        assert verify_support(g, [0, 1]) is not None

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


RPS_ZERO_SUM = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


class TestPayoffUnit:
    @pytest.mark.parametrize("spread, unit", [
        (0.0, 1.0), (2.0**-4, 1.0), (1.0, 1.0), (2.0**4, 1.0), (0.05, 2.0**-4),
        (17.0, 16.0), (1e-9, 2.0**-30), (1e11, 2.0**37), (1.6e308, 2.0**1023)])
    def test_unit_of_a_payoff_range(self, spread, unit):
        assert validate_game([[spread, 0.0], [0.0, 0.0]]).payoff_unit == unit

    def test_tolerance_read_in_the_unit(self):
        # a pure strategy of rock-paper-scissors has gap 2^-30 at this scale,
        # half its payoff range: no certificate, as at scale 1
        game = validate_game(RPS_ZERO_SUM * 2.0**-30)
        assert make_certificate(game, E1, "probe") is None
        assert make_certificate(validate_game(RPS_ZERO_SUM), E1, "probe") is None
        assert make_certificate(game, uniform_strategy(3), "probe").gap == 0.0

    def test_indifference_system_in_the_unit(self):
        # at 1e11 a raw system's sum row fell below lstsq's rcond, so the
        # "strategy" summed to 1e-21 and the oracle found nothing
        game = validate_game(RPS_ZERO_SUM * 1e11)
        sol, null, residual = analysis._equalizing_solution(game, [0, 1, 2])
        assert np.allclose(sol, 1 / 3, atol=1e-12) and null.shape[0] == 0
        certs = enumerate_symmetric_equilibria(game)
        assert [c.support for c in certs] == [(0, 1, 2)]

    def test_spread_program_near_the_float_range(self):
        # the spread program solves payoff / 2^1023, so 4e307 reads as 0.44
        # and not as a pivot of 4e307 beside tolerances of 1e-9
        for scale in (1.0, 1e307):
            cert = verify_support(validate_game([[4 * scale, -4 * scale], [0, 1]]), [0])
            assert cert is not None and list(cert.strategy) == [1.0, 0.0]
