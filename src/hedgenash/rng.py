"""Seeded random number generation (xoshiro256**).

A single 64-bit seed expands through splitmix64 into the 256-bit xoshiro
state, so any implementation of the published constants reproduces the
same stream. Everything downstream (game generation, random starts,
diagnostic sampling) draws from this generator only.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_LANE_MIN = 1100  # from here lanes beat the loop (BENCH_generator_lanes.json)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


class Xoshiro256StarStar:
    """xoshiro256** generator, seeded via splitmix64.

    A draw under _LANE_MIN outputs steps the state on local integers in one
    loop. A larger one steps lanes of L = ceil(sqrt(count)) outputs together
    in uint64 arrays: the transition T is linear over GF(2), so stepping the
    256 unit states builds the jump T^L and each lane starts at T^L of the
    one before. The stream is the published algorithm's, value for value."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        state = []
        for _ in range(4):
            value, sm = _splitmix64(sm)
            state.append(value)
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self._s = state

    def _draw(self, count: int) -> np.ndarray:
        """The next count outputs, as uint64."""
        if count >= _LANE_MIN:
            return self._draw_lanes(count)
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(count):
            r = s1 * 5 & _MASK64
            append(((r << 7 | r >> 57) & _MASK64) * 9 & _MASK64)
            t = s1 << 17 & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & _MASK64
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=np.uint64)

    def _draw_lanes(self, count: int) -> np.ndarray:
        """_draw by lanes of L outputs: lane j gives outputs jL..(j+1)L - 1."""
        length = math.isqrt(count - 1) + 1
        lanes = -(-count // length)
        # row i of the jump is T^L of unit state i: bit i % 64 of word i // 64
        bits = np.uint64(1) << np.tile(np.arange(64, dtype=np.uint64), 4)
        units = np.eye(4, dtype=np.uint64).repeat(64, axis=1) * bits
        for _ in range(length):
            units = _step(*units)
        jump = np.stack(units, axis=1)
        starts = [np.array(self._s, dtype=np.uint64)]
        for _ in range(1, lanes):
            set_bits = starts[-1].repeat(64) & bits
            starts.append(np.bitwise_xor.reduce(jump.compress(set_bits, axis=0)))
        state = np.stack(starts, axis=1)
        last = count - (lanes - 1) * length        # outputs the last lane gives
        out = []
        for k in range(length):
            out.append(state[1])
            state = _step(*state)
            if k + 1 == last:
                self._s = [int(word[-1]) for word in state]
        out = np.stack(out, axis=1).reshape(-1)[:count] * 5
        return (out << 7 | out >> 57) * 9

    def doubles(self, count: int) -> np.ndarray:
        return (self._draw(count) >> 11) * 2.0**-53

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.doubles(rows * cols).reshape(rows, cols)

    def interior_point(self, n: int) -> np.ndarray:
        """Random point in the interior of the n-simplex (Dirichlet(1))."""
        values = np.empty(0, dtype=np.uint64)  # nonzero 53-bit values
        while values.size < n:
            drawn = self._draw(n - values.size) >> 11
            values = np.concatenate([values, drawn[drawn != 0]])
        # math.log per value: np.log rounds some of these differently
        u = np.array([-math.log(v * 2.0**-53) for v in values.tolist()])
        return u / u.sum()


def _step(s0, s1, s2, s3):
    """One xoshiro256** transition of every lane of the words s0..s3."""
    a, b = s2 ^ s0, s3 ^ s1
    return s0 ^ b, s1 ^ a, a ^ s1 << 17, b << 45 | b >> 19
