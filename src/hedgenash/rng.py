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


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


class Xoshiro256StarStar:
    """xoshiro256** generator, seeded via splitmix64.

    Each step is written out on local integers (the two rotations inline),
    and bulk draws step the state in one loop; the stream is the published
    algorithm's, value for value."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        state = []
        for _ in range(4):
            value, sm = _splitmix64(sm)
            state.append(value)
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self._s = state

    def _draw(self, count: int) -> list[int]:
        """The next count outputs."""
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
        return out

    def doubles(self, count: int) -> np.ndarray:
        return (np.array(self._draw(count), dtype=np.uint64) >> 11) * 2.0**-53

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.doubles(rows * cols).reshape(rows, cols)

    def interior_point(self, n: int) -> np.ndarray:
        """Random point in the interior of the n-simplex (Dirichlet(1))."""
        values = []                  # nonzero 53-bit values, zeros skipped
        while len(values) < n:
            values += [v >> 11 for v in self._draw(n - len(values)) if v >> 11]
        u = np.array([-math.log(v * 2.0**-53) for v in values])
        return u / u.sum()
