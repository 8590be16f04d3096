"""Symmetric bimatrix games and mixed strategies.

A symmetric bimatrix game is specified by a single square payoff matrix C:
entry (i, j) is the payoff of pure strategy i against pure strategy j, and
the column player's matrix is the transpose. Mixed strategies are plain
numpy vectors on the probability simplex, validated by the helpers here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import Xoshiro256StarStar

SIMPLEX_TOL = 1e-12
SUPPORT_TOL = 1e-9
# How far off the simplex a strategy read from outside (a trace file's X
# and Xbar rows, verify --x) may be: a sum off 1, or for verify --x a
# negative entry, within it is accepted.
OFF_SIMPLEX_TOL = 1e-6
# The largest n generate_game draws: a game of n strategies draws n^2
# doubles, about 0.05 s at n = 1000 on a 2-core Xeon VM, where the
# generator steps jump-ahead lanes in numpy.
GENERATOR_MAX_N = 1000

GAME_KINDS = ("random_uniform", "zero_sum_symmetric", "doubly_symmetric", "coordination")


class GameError(ValueError):
    """Malformed game matrix or strategy vector."""


@dataclass(frozen=True)
class SymmetricGame:
    """Immutable symmetric game. Construct via :func:`validate_game`."""

    payoff: np.ndarray

    @property
    def n(self) -> int:
        return self.payoff.shape[0]

    @property
    def normalized(self) -> bool:          # every payoff in [0, 1]
        return float(self.payoff.min()) >= 0.0 and float(self.payoff.max()) <= 1.0

    @cached_property
    def payoff_unit(self) -> float:
        """The unit certificate tolerances are read in: 1 while the payoff
        range max - min lies in [2^-4, 2^4] (or is 0), else the power of two
        nearest the range, at most 2^1023. Dividing payoffs by a power of two
        is exact, so a game scaled by 2^k gets the same verdicts."""
        spread = float(self.payoff.max()) - float(self.payoff.min())
        if spread == 0.0 or 2.0**-4 <= spread <= 2.0**4:
            return 1.0
        return 2.0 ** min(round(math.log2(spread)), 1023)

    def strategy(self, x) -> np.ndarray:
        """``x`` validated by as_strategy as a strategy of this game, with
        one entry per pure strategy."""
        x = as_strategy(x)
        if x.size != self.n:
            raise GameError(f"strategy has length {x.size}, game has n={self.n}")
        return x

    def digest(self) -> str:
        # CPython's built-in SHA-1, which hashlib itself falls back to without
        # OpenSSL: importing hashlib maps OpenSSL's libcrypto, 3.6 MB of RSS in
        # every run and oracle. The digest is the same; the built-in is slower
        # (57 ms against 6 ms on an n = 1000 payoff), paid once per command.
        try:
            from _sha1 import sha1
        except ImportError:                    # a build without the built-in hashes
            from hashlib import sha1
        return sha1(np.ascontiguousarray(self.payoff).tobytes()).hexdigest()[:16]


def validate_game(matrix) -> SymmetricGame:
    """Validate a square, finite payoff matrix whose max - min is finite."""
    try:
        c = np.array(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: a huge int
        raise GameError(f"payoff matrix is not rectangular numeric data: {exc}") from exc
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GameError(f"payoff matrix must be square, got shape {c.shape}")
    if c.shape[0] < 2:
        raise GameError("game needs at least 2 pure strategies")
    if not np.all(np.isfinite(c)):
        raise GameError("payoff matrix contains non-finite entries")
    if not np.isfinite(float(c.max()) - float(c.min())):    # Python floats: no warning
        raise GameError("payoff entries span more than the float range")
    c.setflags(write=False)
    return SymmetricGame(payoff=c)


def normalize_payoffs(game: SymmetricGame) -> tuple[SymmetricGame, float, float]:
    """Map payoffs affinely into [0, 1] with max entry exactly 1.

    Returns (normalized game, a, b) with C' = a*C + b. A constant matrix
    maps to the all-zero matrix (a=1, b=-min); every strategy of such a
    game is an equilibrium, so the semantics are preserved.
    """
    lo, hi = float(game.payoff.min()), float(game.payoff.max())
    if hi > lo:
        a = 1.0 / (hi - lo)
        b = -lo / (hi - lo)
        # subtract-then-divide puts min at exactly 0 and max at exactly 1,
        # which a*C + b can miss by one ulp
        c = (game.payoff - lo) / (hi - lo)
    else:
        a, b = 1.0, -lo
        c = a * game.payoff + b
    return validate_game(c), a, b


def decompose(game: SymmetricGame) -> tuple[np.ndarray, np.ndarray]:
    """Split C into its doubly symmetric and zero-sum (antisymmetric) parts."""
    c = game.payoff
    sym = 0.5 * (c + c.T)
    skew = 0.5 * (c - c.T)
    return sym, skew


def as_strategy(x) -> np.ndarray:
    """Validate a mixed strategy: nonnegative entries summing to 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GameError(f"strategy must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GameError("strategy contains non-finite entries")
    if v.min() < -SIMPLEX_TOL:
        raise GameError(f"strategy has negative entry {v.min():g}")
    with np.errstate(over="ignore"):           # a sum past the float range is inf
        total = v.sum()
    if abs(total - 1.0) > max(SIMPLEX_TOL, 1e-12 * v.size):
        raise GameError(f"strategy entries sum to {total:.17g}, not 1")
    return v


def uniform_strategy(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def is_interior(x: np.ndarray) -> bool:
    return bool(np.all(np.asarray(x) > 0.0))


def support(x) -> tuple[int, ...]:
    """Indices with mass above SUPPORT_TOL (0-based, ascending)."""
    v = np.asarray(x, dtype=float)
    return tuple(int(i) for i in np.flatnonzero(v > SUPPORT_TOL))


def parse_int(text: str, where: str = "") -> int:
    """An integer written in ASCII digits with an optional sign; int() also
    reads 1_0, other scripts' digits and spaces, which are GameErrors."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise GameError(f"{where}invalid int value: {text!r}")
    return int(text)


_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_float(text: str, where: str = "") -> float:
    """A number written in ASCII decimal or scientific notation; float()
    also reads nan, inf, 1_0, other scripts' digits and spaces, which are
    GameErrors with float()'s message. A decimal past the float range reads
    as +-inf."""
    if not _DECIMAL.fullmatch(text):
        raise GameError(f"{where}could not convert string to float: {text!r}")
    return float(text)


def generate_game(kind: str, n: int, seed: int) -> SymmetricGame:
    """Deterministically generate a test game of the requested kind, for
    2 <= n <= GENERATOR_MAX_N."""
    if n > GENERATOR_MAX_N:
        raise GameError(f"generated games are limited to n <= {GENERATOR_MAX_N}, "
                        f"got n={n}")
    if n < 2:
        raise GameError("n must be >= 2")
    if kind == "coordination":
        return validate_game(np.eye(n))
    rng = Xoshiro256StarStar(seed)
    if kind == "random_uniform":
        return validate_game(rng.matrix(n, n))
    if kind == "zero_sum_symmetric":
        u = rng.matrix(n, n)
        skew = u - u.T
        game, _, _ = normalize_payoffs(validate_game(skew))
        return game
    if kind == "doubly_symmetric":
        u = rng.matrix(n, n)
        return validate_game(0.5 * (u + u.T))
    raise GameError(f"unknown game kind {kind!r}; expected one of {GAME_KINDS}")


def save_game(game: SymmetricGame, path, fmt: str = "json") -> None:
    path = Path(path)
    if fmt == "json":
        payload = {"n": game.n, "payoff": [[float(v) for v in row] for row in game.payoff]}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    elif fmt == "text":
        lines = [str(game.n)]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in game.payoff]
        path.write_text("\n".join(lines) + "\n")
    else:
        raise GameError(f"unknown game format {fmt!r}")


def read_file(path, parse=str):
    """parse(text), the file's text decoded as UTF-8; parse is str or reads
    JSON. A byte that is not UTF-8, or text that is not JSON, is a GameError
    naming the file and the line."""
    data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise GameError(f"{path}:{line}: not UTF-8 text "
                        f"(byte 0x{data[exc.start]:02x})") from None
    except json.JSONDecodeError as exc:   # lines as splitlines breaks them, not json
        lines = (exc.doc[:exc.pos] + ".").splitlines()
        raise GameError(f"{path}:{len(lines)}: not JSON ({exc.msg} at column "
                        f"{len(lines[-1])})") from None


def load_game(path) -> SymmetricGame:
    """Load a game from JSON ({"n": ..., "payoff": [[...]]}, n optional and
    a JSON integer, each payoff entry a JSON number) or plain text (n, read
    by parse_int, then the rows, read by parse_float). An error about the
    file's content is a GameError that reads ``PATH: message``."""
    # a JSON object, or the tokens of a text game
    payload = read_file(path, lambda text: json.loads(text) if text.lstrip()[:1] == "{"
                        else text.split())
    try:
        if type(payload) is dict:
            if "payoff" not in payload:
                raise GameError("the game JSON has no \"payoff\"")
            payoff = payload["payoff"]
            for i, row in enumerate(payoff if isinstance(payoff, list) else []):
                for j, v in enumerate(row if isinstance(row, list) else []):
                    if type(v) not in (int, float):     # numpy reads "1_0" and true
                        raise GameError(f"payoff[{i}][{j}] = {v!r} is not a JSON number")
            game = validate_game(payoff)
            n = payload.get("n", game.n)
            if type(n) is not int:                  # JSON 2.5, "2" and true are no n
                raise GameError(f"declared n={n!r} is not a JSON integer")
            if n != game.n:
                raise GameError(f"declared n={n} but matrix is {game.n}x{game.n}")
            return game
        tokens = payload
        if not tokens:
            raise GameError("empty game file")
        n = parse_int(tokens[0], "text game file dimension n: ")
        if n < 2:
            raise GameError(f"text game file declares n={n}; a game needs at least 2 "
                            "pure strategies")
        values = tokens[1:]
        if len(values) != n * n:
            raise GameError(f"expected {n * n} payoff entries, found {len(values)}")
        matrix = np.array([parse_float(v, "text game file entry: ")
                           for v in values]).reshape(n, n)
        return validate_game(matrix)
    except GameError as exc:
        raise GameError(f"{path}: {exc}") from None
