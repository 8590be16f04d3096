import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgenash import (
    GAME_KINDS,
    GameError,
    SymmetricGame,
    decompose,
    generate_game,
    load_game,
    normalize_payoffs,
    save_game,
    uniform_strategy,
    validate_game,
)
from hedgenash.analysis import _spread_lp, min_equalizer_gap
from hedgenash.game import (
    GENERATOR_MAX_N,
    SUPPORT_TOL,
    as_strategy,
    is_interior,
    parse_float,
    support,
)
from hedgenash.rng import Xoshiro256StarStar


def random_matrix(seed, n):
    return np.random.default_rng(seed).uniform(-3, 3, size=(n, n))


class TestValidateGame:
    def test_identity_flags(self):
        g = validate_game([[1, 0], [0, 1]])
        assert g.normalized and g.n == 2

    def test_negative_entry_flag(self):
        g = validate_game([[0, -1], [1, 0]])
        assert not g.normalized

    def test_normalized_is_read_from_payoff(self):
        payoff = validate_game([[0.0, 2.0], [1.0, 0.0]]).payoff
        with pytest.raises(TypeError):
            SymmetricGame(payoff=payoff, normalized=True)
        assert not SymmetricGame(payoff=payoff).normalized
        assert SymmetricGame(payoff=payoff / 2.0).normalized

    def test_non_square_rejected(self):
        with pytest.raises(GameError):
            validate_game([[1, 2], [3]])
        with pytest.raises(GameError):
            validate_game([[1, 2, 3], [4, 5, 6]])

    def test_non_finite_rejected(self):
        with pytest.raises(GameError):
            validate_game([[1, np.nan], [0, 1]])
        with pytest.raises(GameError):
            validate_game([[1, np.inf], [0, 1]])

    def test_range_past_the_float_range_rejected(self):
        # every entry is finite, but max - min is not: normalize_payoffs and
        # the spread program's shift would overflow
        with pytest.raises(GameError, match="payoff entries span more than the float range"):
            validate_game([[1e308, -1e308], [0, 1]])

    def test_range_just_under_the_float_maximum(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text('{"payoff": [[8e307, -8e307], [0, 1]]}')
        game = load_game(path)
        out, a, b = normalize_payoffs(game)
        assert out.payoff.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert a == 1 / 1.6e308 and b == 0.5
        # the spread program's data, shifted by -min(C, 0), is finite
        assert np.isfinite(_spread_lp(game.payoff, [0, 1]).a).all()
        x, spread = min_equalizer_gap(out)
        assert np.allclose(x, [0.5, 0.5]) and abs(spread) <= 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(GameError):
            validate_game([[1]])

    def test_payoff_is_read_only(self):
        g = validate_game([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            g.payoff[0, 0] = 5.0

    def test_digest_depends_on_entries(self):
        a = validate_game([[1, 0], [0, 1]])
        b = validate_game([[1, 0], [0, 2]])
        assert a.digest() != b.digest()
        assert a.digest() == validate_game(np.eye(2)).digest()


class TestNormalizePayoffs:
    def test_antisymmetric_rps(self):
        g = validate_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        out, a, b = normalize_payoffs(g)
        assert a == 0.5 and b == 0.5
        assert np.allclose(out.payoff, [[0.5, 0, 1], [1, 0.5, 0], [0, 1, 0.5]])
        assert out.normalized

    def test_already_normalized_unchanged(self):
        g = validate_game([[0, 1], [1, 0]])
        out, a, b = normalize_payoffs(g)
        assert a == 1.0 and b == 0.0
        assert np.array_equal(out.payoff, g.payoff)

    def test_constant_matrix_maps_to_zero(self):
        g = validate_game([[5, 5], [5, 5]])
        out, a, b = normalize_payoffs(g)
        assert a == 1.0 and b == -5.0
        assert np.array_equal(out.payoff, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_range_and_inverse_map(self, seed):
        g = validate_game(random_matrix(seed, 4))
        out, a, b = normalize_payoffs(g)
        assert out.payoff.min() >= 0.0
        assert out.payoff.max() == pytest.approx(1.0, abs=1e-15)
        recovered = (out.payoff - b) / a
        assert np.max(np.abs(recovered - g.payoff)) <= 1e-12

    def test_affine_map_composes(self):
        g = validate_game(random_matrix(11, 3))
        out, a, _ = normalize_payoffs(g)
        # payoff = scale * original + one shift for every entry
        assert out.scale == a
        assert np.ptp(out.payoff - out.scale * g.payoff) <= 1e-12


class TestDecompose:
    def test_generic_example(self):
        sym, skew = decompose(validate_game([[0, 2], [0, 0]]))
        assert np.array_equal(sym, [[0, 1], [1, 0]])
        assert np.array_equal(skew, [[0, 1], [-1, 0]])

    def test_symmetric_input(self):
        sym, skew = decompose(validate_game(np.eye(3)))
        assert np.array_equal(sym, np.eye(3))
        assert np.array_equal(skew, np.zeros((3, 3)))

    def test_antisymmetric_input(self):
        g = validate_game([[0, -1], [1, 0]])
        sym, skew = decompose(g)
        assert np.array_equal(sym, np.zeros((2, 2)))
        assert np.array_equal(skew, g.payoff)

    @pytest.mark.parametrize("kind", ["random_uniform", "zero_sum_symmetric",
                                      "doubly_symmetric", "coordination"])
    def test_resum_reconstructs(self, kind):
        g = generate_game(kind, 5, seed=3)
        sym, skew = decompose(g)
        assert np.array_equal(sym, sym.T)
        assert np.array_equal(skew, -skew.T)
        assert np.max(np.abs(sym + skew - g.payoff)) <= 1e-14


class TestStrategies:
    def test_support_examples(self):
        assert support([0.5, 0.5, 0.0]) == (0, 1)
        assert support(uniform_strategy(3)) == (0, 1, 2)
        assert support([1 - 2e-12, 1e-12, 1e-12]) == (0,)

    def test_support_threshold_is_support_tol(self):
        # mass above SUPPORT_TOL is supported, mass at it is not
        above = np.nextafter(SUPPORT_TOL, 1.0)
        assert support([1 - SUPPORT_TOL - above, SUPPORT_TOL, above]) == (0, 2)

    def test_as_strategy_rejects_bad_vectors(self):
        with pytest.raises(GameError):
            as_strategy([0.5, 0.6])
        with pytest.raises(GameError):
            as_strategy([1.5, -0.5])
        with pytest.raises(GameError):
            as_strategy([[0.5, 0.5]])
        with pytest.raises(GameError):
            as_strategy([np.nan, 1.0])

    def test_is_interior(self):
        assert is_interior(uniform_strategy(3))
        assert not is_interior(np.array([1.0, 0.0]))

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_random_simplex_points_validate(self, n, seed):
        raw = np.random.default_rng(seed).dirichlet(np.ones(n))
        x = as_strategy(raw)
        assert abs(x.sum() - 1.0) <= 1e-12


class TestGenerateGame:
    def test_coordination_is_identity(self):
        g = generate_game("coordination", 2, seed=123)
        assert np.array_equal(g.payoff, np.eye(2))

    def test_zero_sum_symmetric_is_shifted_antisymmetric(self):
        g = generate_game("zero_sum_symmetric", 3, seed=5)
        # normalized from an antisymmetric matrix: C + C^T is constant
        total = g.payoff + g.payoff.T
        assert np.max(np.abs(total - total[0, 0])) <= 1e-12
        assert g.normalized

    def test_doubly_symmetric(self):
        g = generate_game("doubly_symmetric", 4, seed=2)
        assert np.array_equal(g.payoff, g.payoff.T)

    def test_deterministic_per_seed(self):
        a = generate_game("random_uniform", 4, seed=7)
        b = generate_game("random_uniform", 4, seed=7)
        c = generate_game("random_uniform", 4, seed=8)
        assert np.array_equal(a.payoff, b.payoff)
        assert not np.array_equal(a.payoff, c.payoff)

    def test_unknown_kind(self):
        with pytest.raises(GameError):
            generate_game("mystery", 3, seed=0)

    def test_n_too_small(self):
        with pytest.raises(GameError):
            generate_game("random_uniform", 1, seed=0)

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_n_past_the_limit_rejected_before_drawing(self, kind, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew or allocated a game past the limit")
        monkeypatch.setattr(np, "eye", no_draws)
        monkeypatch.setattr(Xoshiro256StarStar, "__init__", no_draws)
        for n in (GENERATOR_MAX_N + 1, 10**5, 10**18):
            with pytest.raises(GameError, match=f"limited to n <= {GENERATOR_MAX_N}, "
                                                f"got n={n}"):
                generate_game(kind, n, seed=0)

    def test_n_at_the_limit_accepted(self):
        assert generate_game("coordination", GENERATOR_MAX_N, seed=0).n == GENERATOR_MAX_N


class TestGameIO:
    def test_json_round_trip(self, tmp_path):
        g = generate_game("random_uniform", 3, seed=4)
        path = tmp_path / "g.json"
        save_game(g, path, fmt="json")
        loaded = load_game(path)
        assert np.array_equal(loaded.payoff, g.payoff)

    def test_text_round_trip(self, tmp_path):
        g = generate_game("random_uniform", 4, seed=4)
        path = tmp_path / "g.txt"
        save_game(g, path, fmt="text")
        loaded = load_game(path)
        assert np.max(np.abs(loaded.payoff - g.payoff)) == 0.0

    def test_json_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "payoff": [[1, 0], [0, 1]]}')
        with pytest.raises(GameError):
            load_game(path)

    @pytest.mark.parametrize("n", ["2.5", '"2"', "true", "2e0", "null"])
    def test_json_n_must_be_a_json_integer(self, tmp_path, n):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": {n}, "payoff": [[1, 0], [0, 1]]}}')
        with pytest.raises(GameError, match="is not a JSON integer"):
            load_game(path)

    # numpy's float conversion reads strings and booleans
    @pytest.mark.parametrize("entry, shown", [
        ('"1_0"', "'1_0'"), ('"\u0661"', "'\u0661'"), ('"1"', "'1'"), ("true", "True"),
        ("null", "None"), ("[1]", "[1]")])
    def test_json_payoff_entries_must_be_json_numbers(self, tmp_path, entry, shown):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"payoff": [[1, 0], [0, {entry}]]}}')
        with pytest.raises(GameError, match=re.escape(
                f"payoff[1][1] = {shown} is not a JSON number")):
            load_game(path)

    def test_json_payoff_past_the_float_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"payoff": [[1%s, 0], [0, 1]]}' % ("0" * 400))
        with pytest.raises(GameError, match="int too large to convert to float"):
            load_game(path)
        path.write_text('{"payoff": [[1e400, 0], [0, 1]]}')
        with pytest.raises(GameError, match="non-finite"):
            load_game(path)

    def test_json_integer_and_float_entries(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"payoff": [[1, 0.5], [-2, 1e-3]]}')
        assert np.array_equal(load_game(path).payoff, [[1.0, 0.5], [-2.0, 1e-3]])

    @pytest.mark.parametrize("n", ["\u0662", "2.0", "1_0", "+2x", "0x2"])
    def test_text_n_must_be_ascii_digits(self, tmp_path, n):
        path = tmp_path / "bad.txt"
        path.write_text(f"{n}\n1 0\n0 1\n")
        with pytest.raises(GameError, match="text game file dimension n: "
                                            "invalid int value"):
            load_game(path)

    @pytest.mark.parametrize("n", ["-2", "-1", "0", "1"])
    def test_text_n_below_two_rejected(self, tmp_path, n):
        path = tmp_path / "bad.txt"
        path.write_text(f"{n}\n1 0\n0 1\n")
        with pytest.raises(GameError, match=f"declares n={n}"):
            load_game(path)

    def test_signed_text_n_accepted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("+2\n1 0\n0 1\n")
        assert load_game(path).n == 2

    @pytest.mark.parametrize("entry", ["1_0", "\u0661", "nan", "inf", "0x1"])
    def test_text_entries_must_be_ascii_decimals(self, tmp_path, entry):
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n1 0 0 {entry}\n")
        with pytest.raises(GameError, match="text game file entry: could not convert "
                                            "string to float"):
            load_game(path)
        path.write_text("2\n1_0 0 0 \u0661\n")
        with pytest.raises(GameError, match="could not convert string to float: '1_0'"):
            load_game(path)

    def test_text_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 0\n0 1\n")
        with pytest.raises(GameError):
            load_game(path)

    def test_unknown_format(self, tmp_path):
        g = generate_game("coordination", 2, seed=0)
        with pytest.raises(GameError):
            save_game(g, tmp_path / "g.xml", fmt="xml")


class TestParseFloat:
    @pytest.mark.parametrize("text, value", [
        ("1e-8", 1e-8), ("0", 0.0), ("-0.5", -0.5), ("+.5", 0.5), ("3.", 3.0),
        ("2.5E-3", 2.5e-3), ("1e400", math.inf), ("-1e400", -math.inf)])
    def test_ascii_decimals(self, text, value):
        assert parse_float(text) == value

    # float() reads all of these but the last four
    @pytest.mark.parametrize("text", [
        " 1", "1 ", "1_0", "\u0663", "\u0660.\u0667", "nan", "inf", "-Infinity",
        "0x10", "", "1e", "1.2.3"])
    def test_other_text_refused(self, text):
        with pytest.raises(GameError, match=re.escape(
                f"where: could not convert string to float: {text!r}")):
            parse_float(text, "where: ")
