"""The generator against a per-call reference of the published xoshiro256**
algorithm (Blackman and Vigna), seeded through splitmix64: every public
method must return what the reference returns, call for call."""

import math

import numpy as np
import pytest

from hedgenash import Xoshiro256StarStar

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

    def random(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * self.random()

    def randint(self, n):
        limit = MASK - (MASK + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n

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

    def simplex_point(self, n, support_size=None):
        if support_size is None or support_size >= n:
            return self.interior_point(n)
        idx = list(range(n))
        chosen = [idx.pop(self.randint(len(idx))) for _ in range(support_size)]
        x = np.zeros(n)
        x[sorted(chosen)] = self.interior_point(support_size)
        return x


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method, args, draws", [
    ("next_u64", (), 1), ("random", (), 1), ("uniform", (-1.5, 2.0), 1),
    ("randint", (7,), 1), ("randint", (2 ** 63 + 1,), 1), ("doubles", (5,), 5),
    ("matrix", (3, 4), 12), ("interior_point", (8,), 8),
    ("simplex_point", (6, 2), 4), ("simplex_point", (5, None), 5)])
def test_each_method_matches_reference(seed, method, args, draws):
    # about 10^4 draws per seed, one call at a time
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for _ in range(10 ** 4 // draws):
        assert same(getattr(ours, method)(*args), getattr(ref, method)(*args))
    assert ours.next_u64() == ref.next_u64()     # the state is in step too


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_match_reference(seed):
    ours, ref = Xoshiro256StarStar(seed), Reference(seed)
    for i in range(2000):
        method, args = [("next_u64", ()), ("random", ()), ("randint", (1 + i % 13,)),
                        ("doubles", (i % 9,)), ("interior_point", (1 + i % 8,)),
                        ("simplex_point", (6, 1 + i % 7)),
                        ("uniform", (0.0, 2.0))][i % 7]
        assert same(getattr(ours, method)(*args), getattr(ref, method)(*args)), (i, method)


def test_interior_point_skips_zero_draws(monkeypatch):
    # a draw whose top 53 bits are 0 is rejected and replaced by the next
    # draw, as in a draw-by-draw loop
    ours, ref = Xoshiro256StarStar(3), Reference(3)
    stream = [5 << 11, 0, 7 << 11, 3, 9 << 11, 11 << 11]
    ref.next_u64 = iter(stream).__next__
    monkeypatch.setattr(ours, "_draw", lambda count, it=iter(stream):
                        [next(it) for _ in range(count)])
    assert same(ours.interior_point(4), ref.interior_point(4))
