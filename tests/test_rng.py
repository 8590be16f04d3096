"""The generator against a per-call reference of the published xoshiro256**
algorithm (Blackman and Vigna), seeded through splitmix64: the raw outputs
(``_draw``) and every public method must return what the reference
returns, call for call."""

import math

import numpy as np
import pytest

from hedgenash import Xoshiro256StarStar, generate_game, validate_game
from hedgenash.rng import _LANE_MIN

MASK = (1 << 64) - 1
SEEDS = (0, 1, 7, 2 ** 63 + 5, MASK)


def rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


class Reference:
    """One next_u64 per draw, written as the published algorithm."""

    def __init__(self, seed):
        sm, self.s = seed & MASK, []
        for _ in range(4):
            sm = (sm + 0x9E3779B97F4A7C15) & MASK
            z = sm
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            self.s.append(z ^ (z >> 31))
        if not any(self.s):
            self.s[0] = 1

    def next_u64(self):
        s = self.s
        result = (rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result

    def _draw(self, count):
        return np.array([self.next_u64() for _ in range(count)], dtype=np.uint64)

    def random(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def doubles(self, count):
        return np.array([self.random() for _ in range(count)])

    def matrix(self, rows, cols):
        return self.doubles(rows * cols).reshape(rows, cols)

    def interior_point(self, n):
        u = np.empty(n)
        for i in range(n):
            v = self.random()
            while v <= 0.0:
                v = self.random()
            u[i] = -math.log(v)
        return u / u.sum()


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method, args, draws", [
    # _draw at a few counts, among them the 3n + 12 outputs of an entropy
    # sample at n = 8 and n = 16
    ("_draw", (1,), 1), ("_draw", (2,), 2), ("_draw", (7,), 7), ("_draw", (36,), 36),
    ("_draw", (60,), 60), ("doubles", (5,), 5), ("matrix", (3, 4), 12),
    ("interior_point", (8,), 8)])
def test_each_method_matches_reference(seed, method, args, draws):
    # about 10^4 draws per seed, one call at a time
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for _ in range(10 ** 4 // draws):
        assert same(getattr(ours, method)(*args), getattr(ref, method)(*args))
    assert ours._draw(1) == [ref.next_u64()]     # the state is in step too


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_match_reference(seed):
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for i in range(2000):
        method, args = [("_draw", (i % 5,)), ("doubles", (i % 9,)),
                        ("matrix", (1 + i % 3, 1 + i % 4)),
                        ("interior_point", (1 + i % 8,))][i % 4]
        assert same(getattr(ours, method)(*args), getattr(ref, method)(*args)), (i, method)
    assert ours._draw(1) == [ref.next_u64()]


def test_interior_point_skips_zero_draws(monkeypatch):
    # a draw whose top 53 bits are 0 is rejected and replaced by the next
    # draw, as in a draw-by-draw loop
    ours, ref = Xoshiro256StarStar(3), Reference(3)
    stream = [5 << 11, 0, 7 << 11, 3, 9 << 11, 11 << 11]
    ref.next_u64 = iter(stream).__next__
    monkeypatch.setattr(ours, "_draw", lambda count, it=iter(stream):
                        np.array([next(it) for _ in range(count)], dtype=np.uint64))
    assert same(ours.interior_point(4), ref.interior_point(4))


# draws of _LANE_MIN outputs or more step jump-ahead lanes; 60**2 is a
# perfect square, so its lanes are all full
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [_LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1, 60 ** 2,
                                   10_007, 160_003])
def test_large_draws_match_reference(seed, count):
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    assert same(ours._draw(count), ref._draw(count))
    assert ours._draw(1).tolist() == [ref.next_u64()]     # the state is in step


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_at_every_small_count(seed):
    # the lane path itself, below the threshold: one lane, a short last
    # lane, full lanes
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for count in range(1, 60):
        assert same(ours._draw_lanes(count), ref._draw(count)), count
        assert ours._draw(1).tolist() == [ref.next_u64()]


@pytest.mark.parametrize("seed", SEEDS)
def test_small_and_large_draws_interleaved(seed):
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for count in (3, 5000, 1, _LANE_MIN, 0, 7, 2500, _LANE_MIN - 1, 12_000, 2):
        drawn = ours._draw(count)
        assert drawn.dtype == np.uint64 and same(drawn, ref._draw(count)), count


@pytest.mark.parametrize("seed", SEEDS)
def test_game_past_the_threshold_matches_reference(seed):
    n = math.isqrt(_LANE_MIN) + 1                # n^2 draws take the lanes
    assert n * n >= _LANE_MIN > (n - 1) ** 2
    game = generate_game("random_uniform", n, seed)
    assert game.digest() == validate_game(Reference(seed).matrix(n, n)).digest()
