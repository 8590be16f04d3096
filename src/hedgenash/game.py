"""Symmetric bimatrix games and mixed strategies.

A symmetric bimatrix game is specified by a single square payoff matrix C:
entry (i, j) is the payoff of pure strategy i against pure strategy j, and
the column player's matrix is the transpose. Mixed strategies are plain
numpy vectors on the probability simplex, validated by the helpers here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Xoshiro256StarStar

SIMPLEX_TOL = 1e-12
DEFAULT_SUPPORT_TOL = 1e-9

GAME_KINDS = ("random_uniform", "zero_sum_symmetric", "doubly_symmetric", "coordination")


class GameError(ValueError):
    """Malformed game matrix or strategy vector."""


@dataclass(frozen=True)
class SymmetricGame:
    """Immutable symmetric game. Construct via :func:`validate_game`.

    ``scale`` / ``offset`` record the positive-affine map applied by
    :func:`normalize_payoffs` (payoff = scale * original + offset), so
    quantities on the normalized scale can be reported in original units.
    """

    payoff: np.ndarray
    nonnegative: bool
    normalized: bool
    scale: float = 1.0
    offset: float = 0.0

    @property
    def n(self) -> int:
        return self.payoff.shape[0]

    @property
    def max_entry(self) -> float:
        return float(self.payoff.max())

    @property
    def min_entry(self) -> float:
        return float(self.payoff.min())

    def digest(self) -> str:
        return hashlib.sha1(np.ascontiguousarray(self.payoff).tobytes()).hexdigest()[:16]


def validate_game(matrix, *, scale: float = 1.0, offset: float = 0.0) -> SymmetricGame:
    """Validate a square, finite payoff matrix and compute its flags."""
    try:
        c = np.array(matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameError(f"payoff matrix is not rectangular numeric data: {exc}") from exc
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GameError(f"payoff matrix must be square, got shape {c.shape}")
    if c.shape[0] < 2:
        raise GameError("game needs at least 2 pure strategies")
    if not np.all(np.isfinite(c)):
        raise GameError("payoff matrix contains non-finite entries")
    c.setflags(write=False)
    lo, hi = float(c.min()), float(c.max())
    return SymmetricGame(
        payoff=c,
        nonnegative=lo >= 0.0,
        normalized=lo >= 0.0 and hi <= 1.0,
        scale=scale,
        offset=offset,
    )


def normalize_payoffs(game: SymmetricGame) -> tuple[SymmetricGame, float, float]:
    """Map payoffs affinely into [0, 1] with max entry exactly 1.

    Returns (normalized game, a, b) with C' = a*C + b. A constant matrix
    maps to the all-zero matrix (a=1, b=-min); every strategy of such a
    game is an equilibrium, so the semantics are preserved.
    """
    lo, hi = game.min_entry, game.max_entry
    if hi > lo:
        a = 1.0 / (hi - lo)
        b = -lo / (hi - lo)
        # subtract-then-divide puts min at exactly 0 and max at exactly 1,
        # which a*C + b can miss by one ulp
        c = (game.payoff - lo) / (hi - lo)
    else:
        a, b = 1.0, -lo
        c = a * game.payoff + b
    out = validate_game(c, scale=a * game.scale, offset=a * game.offset + b)
    return out, a, b


def denormalize_gap(game: SymmetricGame, gap: float) -> float:
    """Convert a payoff gap on ``game``'s scale back to original units."""
    return gap / game.scale


def decompose(game: SymmetricGame) -> tuple[np.ndarray, np.ndarray]:
    """Split C into its doubly symmetric and zero-sum (antisymmetric) parts."""
    c = game.payoff
    sym = 0.5 * (c + c.T)
    skew = 0.5 * (c - c.T)
    return sym, skew


def as_strategy(x, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate a mixed strategy: nonnegative entries summing to 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GameError(f"strategy must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GameError("strategy contains non-finite entries")
    if v.min() < -tol:
        raise GameError(f"strategy has negative entry {v.min():g}")
    with np.errstate(over="ignore"):           # a sum past the float range is inf
        total = v.sum()
    if abs(total - 1.0) > max(tol, 1e-12 * v.size):
        raise GameError(f"strategy entries sum to {total:.17g}, not 1")
    return v


def uniform_strategy(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def is_interior(x: np.ndarray) -> bool:
    return bool(np.all(np.asarray(x) > 0.0))


def support(x, tol: float = DEFAULT_SUPPORT_TOL) -> tuple[int, ...]:
    """Indices with mass above ``tol`` (0-based, ascending)."""
    if tol < 0:
        raise GameError("support tolerance must be >= 0")
    v = np.asarray(x, dtype=float)
    return tuple(int(i) for i in np.flatnonzero(v > tol))


def generate_game(kind: str, n: int, seed: int) -> SymmetricGame:
    """Deterministically generate a test game of the requested kind."""
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


def load_game(path) -> SymmetricGame:
    """Load a game from JSON ({"n": ..., "payoff": [[...]]}) or plain text."""
    text = Path(path).read_text().strip()
    if text.startswith("{"):
        payload = json.loads(text)
        matrix = payload["payoff"]
        game = validate_game(matrix)
        if "n" in payload and int(payload["n"]) != game.n:
            raise GameError(f"declared n={payload['n']} but matrix is {game.n}x{game.n}")
        return game
    tokens = text.split()
    if not tokens:
        raise GameError("empty game file")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise GameError("text game file must start with the dimension n") from exc
    values = tokens[1:]
    if len(values) != n * n:
        raise GameError(f"expected {n * n} payoff entries, found {len(values)}")
    matrix = np.array([float(v) for v in values]).reshape(n, n)
    return validate_game(matrix)
