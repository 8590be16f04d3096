"""Hedge dynamics: the exponential-weights map, learning-rate schedules,
trajectory execution with weighted averaging, and runtime diagnostics.

The iterate is carried in logit space: X^K(i) is proportional to
X^0(i) * exp(sum_k alpha_k (CX^k)_i), so the logit vector is the plain
running sum of alpha_k * CX^k plus ln X^0. Normalization subtracts the
max logit before exponentiating; iterates therefore never underflow to
the boundary even when probability masses decay exponentially.
A trace holds what its file holds, plus the running self-play payoff in
memory; the trajectory identities are checked from the file's columns.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .game import (
    OFF_SIMPLEX_TOL,
    GameError,
    SymmetricGame,
    as_strategy,
    is_interior,
    parse_float,
)
from .rng import Xoshiro256StarStar


class ScheduleError(ValueError):
    """Schedule fails the convergence hypotheses and --force was not given."""


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """A learning-rate schedule: its label, ``rates(count)`` giving
    alpha_0..alpha_{count-1}, why it fails the convergence hypotheses
    (None when it meets them) and its flags. Built by ``parse_schedule``."""

    label: str
    rates: Callable[[int], np.ndarray]
    reason: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.reason is None


def _power_validation(p: float) -> str | None:
    if not math.isfinite(p):
        return "exponent must be finite"
    if p <= 0:
        return "alpha_k does not tend to 0"
    if p <= 0.5:
        return "sum alpha_k*(exp(alpha_k)-1) diverges (needs p > 1/2)"
    if p > 1:
        return "sum alpha_k converges (needs p <= 1)"
    return None


def _listed_validation(values: tuple[float, ...]) -> str | None:
    if not values:
        return "empty rate list"
    if not all(math.isfinite(v) for v in values):
        return "rates must be finite"
    if min(values) <= 0:
        return "rates must be positive"
    return None


def _harmonic_rates(count: int) -> np.ndarray:
    out = np.empty(count)
    out[0] = 1.0
    if count > 1:
        out[1:] = 1.0 / np.arange(1, count, dtype=float)
    return out


def _listed_rates(values: tuple[float, ...], count: int) -> np.ndarray:
    if count > len(values):
        raise ScheduleError(f"custom schedule has {len(values)} rates, {count} needed")
    return np.asarray(values[:count], dtype=float)


def parse_schedule(spec: str) -> Schedule:
    """Parse a schedule spec: power:P | harmonic | constant:C | file:PATH.

    power:P is alpha_k = (k+1)^(-P); harmonic is alpha_0 = 1, alpha_k = 1/k;
    file:PATH lists the rates, whitespace-separated. P, C and the listed
    rates are read by parse_float. The reason names the condition a
    diminishing schedule fails: alpha_k -> 0, sum alpha_k diverges, sum
    alpha_k*(exp(alpha_k)-1) converges (None: it meets all three). For power
    schedules these hold exactly when 1/2 < p <= 1 (the tail term behaves
    like alpha_k^2, a p-series with exponent 2p). Listed rates are only
    checked for finite positive values; their asymptotics cannot be
    verified.
    """
    arg = spec.partition(":")[2]
    if spec == "harmonic":
        return Schedule("harmonic", _harmonic_rates)
    if spec.startswith("power:"):
        p = parse_float(arg, f"schedule {spec!r}: ")
        return Schedule(f"power:{p:g}",
                        lambda count: np.arange(1, count + 1, dtype=float) ** -p,
                        _power_validation(p))
    if spec.startswith("constant:"):
        value = parse_float(arg, f"schedule {spec!r}: ")
        reason = "rates must be positive" if value <= 0 else "alpha_k does not tend to 0"
        return Schedule(f"constant:{value:g}", lambda count: np.full(count, value),
                        reason)
    if spec.startswith("file:"):
        values = tuple(parse_float(tok, f"schedule file {arg}: ")
                       for tok in Path(arg).read_text().split())
        reason = _listed_validation(values)
        return Schedule(f"custom[{len(values)}]",
                        lambda count: _listed_rates(values, count),
                        reason, () if reason else ("unverified-asymptotics",))
    raise ScheduleError(f"cannot parse schedule spec {spec!r}")


DEFAULT_SCHEDULE = parse_schedule("power:0.6666666666666666")


# ---------------------------------------------------------------------------
# The Hedge map
# ---------------------------------------------------------------------------

def hedge_step(game: SymmetricGame, x, alpha: float) -> np.ndarray:
    """One exponential-weights update of an interior strategy.

    Equivalent to x(i)*exp(alpha*(Cx)_i) renormalized, computed in logit
    space with max-subtraction.
    """
    x = as_strategy(x)
    if not is_interior(x):
        raise GameError("hedge step requires an interior strategy")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise GameError(f"learning rate must be positive and finite, got {alpha!r}")
    return _hedge_map(np.log(x), game.payoff @ x, alpha)


def _hedge_map(log_x, cx, alphas) -> np.ndarray:
    """T_alpha(x) along the last axis: the softmax of ln x + alpha * Cx with
    max-subtraction. The arguments broadcast, so one call maps a whole
    (samples, rates, n) block; on 1-D input it is the single update."""
    logits = log_x + alphas * cx
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class TraceRecord:
    step: int
    alpha: float
    weight_sum: float          # A_K
    gap_avg: float
    gap_iter: float
    avg_step_norm: float       # ||Xbar^K - Xbar^{K-1}||, 0 at K=0
    x: np.ndarray              # X^K
    xbar: np.ndarray           # Xbar^K
    avg_self_play: float | None = None   # (1/A_K) sum alpha_k X^k.CX^k


# The wire schema: K, these scalar columns in this order, then X and Xbar.
# CSV names each column in its header; JSON lines use them as keys.
_WIRE_SCALARS = ("alpha", "A_K", "gap_avg", "gap_iter", "avg_step_norm")

# What a malformed record raises while its columns are parsed.
_UNREADABLE = (ValueError, TypeError, KeyError, OverflowError)

# Rows formatted per tolist() call by the writers: the Python floats of a
# chunk take several times the bytes of its rows.
_WRITE_CHUNK = 512


@dataclass
class Trace:
    """The emitted snapshots of a run, as columns: ``steps`` holds K per
    record and ``table`` one wire row per record (the _WIRE_SCALARS, then
    X^K, then Xbar^K), every value finite. ``n`` and ``x0`` are read from
    the table: its width and the X of its K = 0 row (None for a file trace
    without K = 0). ``avg_self_play`` is kept for traces run in memory
    and is None for a trace loaded from a file. ``records`` is the same
    data as a list of TraceRecord, built on first access; its arrays are
    views of the columns."""

    steps: np.ndarray
    table: np.ndarray
    avg_self_play: np.ndarray | None = None

    @property
    def n(self) -> int:
        return (self.table.shape[1] - len(_WIRE_SCALARS)) // 2

    @property
    def x0(self) -> np.ndarray | None:
        lo = len(_WIRE_SCALARS)
        return self.table[0, lo:lo + self.n] if self.steps[0] == 0 else None

    @functools.cached_property
    def records(self) -> list[TraceRecord]:
        return self._records(slice(None))

    @property
    def final(self) -> TraceRecord:
        return self._records(slice(-1, None))[0]

    def _records(self, rows: slice) -> list[TraceRecord]:
        lo, n = len(_WIRE_SCALARS), self.n
        table = self.table[rows]
        extras = (() if self.avg_self_play is None
                  else (self.avg_self_play[rows].tolist(),))
        return list(map(TraceRecord, self.steps[rows].tolist(), *table[:, :lo].T.tolist(),
                        table[:, lo:lo + n], table[:, lo + n:], *extras))

    def csv_header(self) -> str:
        xs = ",".join(f"X_{i + 1}" for i in range(self.n))
        xbars = ",".join(f"Xbar_{i + 1}" for i in range(self.n))
        return f"K,{','.join(_WIRE_SCALARS)},{xs},{xbars}"

    def _write(self, path, head: str, line: str) -> None:
        """head, then each record formatted by the %-template line from K
        and its wire row, a chunk of records at a time."""
        with open(path, "w") as fh:
            fh.write(head)
            for start in range(0, len(self.steps), _WRITE_CHUNK):
                steps = self.steps[start:start + _WRITE_CHUNK].tolist()
                rows = self.table[start:start + _WRITE_CHUNK].tolist()
                fh.writelines(line % (k, *row) for k, row in zip(steps, rows))

    def to_csv(self, path) -> None:
        self._write(path, self.csv_header() + "\n",
                    "%d" + ",%.17g" * self.table.shape[1] + "\n")

    def to_jsonl(self, path) -> None:
        """One JSON object per record: json writes a finite float as its
        repr, which %r gives too, and every value of a trace is finite."""
        scalars = ", ".join(f'"{name}": %r' for name in _WIRE_SCALARS)
        vector = ", ".join(["%r"] * self.n)
        self._write(path, "", f'{{"K": %d, {scalars}, "X": [{vector}], '
                              f'"Xbar": [{vector}]}}\n')

    @classmethod
    def from_file(cls, path) -> "Trace":
        """Load an emitted trace (CSV or JSON-lines) as columns; the running
        self-play payoff, which is not in the wire format, is None.
        A GameError names the file and the first bad line: one that does
        not parse as a record (K not an integer, a field missing or extra,
        X or Xbar not n numbers), that holds a value that is not finite,
        whose K is not above the K before it, or whose X or Xbar is not a
        probability vector (a negative entry, or a sum off 1 by more than
        OFF_SIMPLEX_TOL)."""
        path = Path(path)
        text = path.read_text()
        lines = text.strip().splitlines()
        # the file line of lines[0]: one past the line breaks stripped before it
        leading = text[:len(text) - len(text.lstrip())]
        first = len((leading + ".").splitlines())
        if lines and lines[0].startswith("{"):
            body, parse = lines, _jsonl_columns
        else:
            header = lines[0].split(",") if lines else []
            n = sum(1 for name in header if name.startswith("X_"))
            body, first = lines[1:], first + 1
            parse = functools.partial(_csv_columns, n=n)
        if not body:
            raise GameError(f"trace file {path} contains no records")
        trace = cls(*_parse_located(parse, body, path, first))
        _check_records(trace, path, first)
        return trace


def _check_records(trace: Trace, path: Path, first: int) -> None:
    """Raise a GameError naming the first record that holds a value that
    is not finite, is out of order, or whose X or Xbar is not a
    probability vector; the first record is on line ``first``."""
    steps, table, n = trace.steps, trace.table, trace.n
    vectors = table[:, len(_WIRE_SCALARS):].reshape(len(table), 2, n)
    finite = np.isfinite(table).all(axis=1)
    simplex = ((vectors >= 0.0).all(axis=2)
               & (np.abs(vectors.sum(axis=2) - 1.0) <= OFF_SIMPLEX_TOL))
    ordered = np.r_[True, steps[1:] > steps[:-1]]
    good = finite & ordered & simplex.all(axis=1)
    if good.all():
        return
    row = int(np.argmin(good))
    where = f"{path}:{first + row}: "
    if not finite[row]:
        raise GameError(where + "record has a non-finite value")
    if not ordered[row]:
        raise GameError(where + f"K = {steps[row]} after K = {steps[row - 1]}; "
                        "K must strictly increase")
    side = int(np.argmin(simplex[row]))
    vector = vectors[row, side]
    found = (f"min {vector.min():.17g}, sum {vector.sum():.17g}" if n
             else "no entries")
    raise GameError(where + f"{('X', 'Xbar')[side]} is not a probability vector "
                    f"({found})")


def _csv_columns(lines: list[str], n: int):
    """CSV body lines as wire columns: the steps, and the table that
    Trace.to_csv writes after K."""
    steps = np.array([int(line.partition(",")[0]) for line in lines], dtype=np.int64)
    table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    width = 1 + len(_WIRE_SCALARS) + 2 * n
    if table.shape[1] != width:
        raise ValueError(f"{table.shape[1]} fields, expected {width}")
    return steps, table[:, 1:]


# JSON lines parsed per json.loads call: the parsed dicts and lists take
# several times the bytes of the table they fill, so they are built and
# dropped a chunk at a time.
_JSONL_CHUNK = 256


def _jsonl_columns(lines: list[str]):
    """JSON lines as wire columns, like _csv_columns; n is the width of the
    first record's X."""
    steps, tables = [], []
    for start in range(0, len(lines), _JSONL_CHUNK):
        chunk = lines[start:start + _JSONL_CHUNK]
        rows = json.loads("[" + ",".join(chunk) + "]")
        if len(rows) != len(chunk):
            raise ValueError("a line holds more than one JSON value")
        ks = [row["K"] for row in rows]
        if any(type(k) is not int for k in ks):
            raise ValueError("K is not an integer")
        scalars = np.array([[row[key] for key in _WIRE_SCALARS] for row in rows],
                           dtype=float)
        xs = np.array([row["X"] for row in rows], dtype=float)
        xbars = np.array([row["Xbar"] for row in rows], dtype=float)
        if scalars.ndim != 2 or xs.ndim != 2 or xbars.shape != xs.shape:
            raise ValueError("a scalar field is not a number, or X and Xbar are "
                             "not lists of n numbers")
        steps += ks
        tables.append(np.hstack([scalars, xs, xbars]))
    # np.vstack raises a ValueError if chunk widths differ
    return np.array(steps, dtype=np.int64), np.vstack(tables)


def _parse_located(parse, lines: list[str], path: Path, first: int):
    """parse(lines), or a GameError naming the first line that does not
    parse; lines[0] is line ``first`` of the file. Whether a record parses
    depends on no line after it, so that line ends the shortest failing
    prefix, which bisection finds. The error quoted is the line's own when
    it fails alone, so its positions are within the line; otherwise (a
    width that differs from earlier records) it is the prefix's."""
    try:
        return parse(lines)
    except _UNREADABLE as exc:
        error = exc
    good, bad = 0, len(lines)          # prefix lengths that parse / fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse(lines[:mid])
            good = mid
        except _UNREADABLE as exc:
            bad, error = mid, exc
    try:
        parse(lines[bad - 1:bad])
    except _UNREADABLE as exc:
        error = exc
    raise GameError(f"{path}:{first + bad - 1}: unreadable trace record "
                    f"({error})") from None


# Steps per block of run_trajectory: at most _BLOCK_STEPS, and at most
# _BLOCK_CELLS iterate entries. A block costs a fixed few dozen numpy calls,
# small per step at 512 steps; 4096-step blocks raised peak memory by 6 MB
# at n = 16.
_BLOCK_STEPS = 512
_BLOCK_CELLS = 1 << 16


def _running_sum(total, terms: np.ndarray) -> np.ndarray:
    """total + terms[0], then + terms[1], ... along axis 0: the same
    sequence of additions as a loop of ``total += term``."""
    seeded = np.concatenate([np.asarray(total, dtype=float)[None], terms])
    return np.add.accumulate(seeded, axis=0)[1:]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for each row, by the same BLAS dot as ``np.dot(a[i], b[i])``
    and so bit for bit equal to it; ``einsum`` and ``(a * b).sum(axis=1)``
    add in another order."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def check_run(game: SymmetricGame, x0, schedule: Schedule, k_max: int, emit_every: int,
              force: bool) -> tuple[np.ndarray, np.ndarray]:
    """The checks run_trajectory makes before its first step, which
    ``run --config`` makes for every entry before any runs: the start is an
    interior strategy of length n, k_max and emit_every are >= 1, the
    schedule is valid unless forced, and its rates alpha_0..alpha_{k_max}
    are finite and non-negative with alpha_0 > 0. Returns the start as a
    strategy and the rates."""
    x0 = as_strategy(x0)
    if not is_interior(x0):
        raise GameError("trajectories must start in the simplex interior")
    if x0.size != game.n:
        raise GameError(f"start vector has length {x0.size}, game has n={game.n}")
    if k_max < 1:
        raise GameError("k_max must be >= 1")
    if emit_every < 1:
        raise GameError("emit_every must be >= 1")
    if not schedule.valid and not force:
        raise ScheduleError(schedule.reason)
    with np.errstate(over="ignore"):           # an overflowing rate is refused below
        alphas = schedule.rates(k_max + 1)
    if not np.all(np.isfinite(alphas)):
        raise ScheduleError(f"schedule {schedule.label} yields a non-finite rate")
    # every average divides by A_K = alpha_0 + ... + alpha_K
    if not alphas[0] > 0 or alphas.min() < 0:
        raise ScheduleError(f"schedule {schedule.label} needs alpha_0 > 0 and "
                            "no negative rate")
    return x0, alphas


def run_trajectory(game: SymmetricGame, x0, schedule: Schedule, k_max: int,
                   emit_every: int = 1000, force: bool = False) -> Trace:
    """Run Hedge self-play for steps k = 0..k_max and record emitted snapshots.

    Each emitted record at step K carries the iterate X^K, the weighted
    average Xbar^K, both epsilon-gaps and the distance between consecutive
    averages, plus the running weighted self-play payoff (kept for the
    trajectory-identity diagnostics).

    Only the iterate is a recurrence. Its step allocates nothing and makes
    one C call per operation: seven calls write CX^k, the shifted logits,
    the sum of their exponentials and X^{k+1} into arrays allocated once per
    run, and the rate, the sum and the max-shift enter as 0-d array views,
    which skips a scalar conversion per call. Each call is the one an
    allocating expression would make (the same elementwise loop, pairwise
    sum or BLAS gemv; ``c.dot`` is the matrix product behind ``np.dot``
    without its dispatcher) on the same operands, so the bits are the same.
    The max-shift subtracts the view of ``logits[logits.argmax()]``: an
    element of the logits, so the same float a max reduction returns, and a
    NaN logit is the first maximum for both.
    The running sums and the records are then evaluated a block of steps at
    a time, with the same floating-point operations in the same order as a
    step-by-step evaluation, and written into the trace's columns,
    allocated once for every emitted step, before the next block
    overwrites the step buffers.

    A schedule whose running weight A_K or logits overflow, or whose
    A_K - alpha_K rounds to 0 at a step K >= 1 (so that Xbar^{K-1} cannot
    be recovered from step K), raises ``ScheduleError`` naming the first
    such step instead of emitting NaN; every value of the trace is finite.
    """
    x0, alphas = check_run(game, x0, schedule, k_max, emit_every, force)
    c = game.payoff
    accum = np.zeros_like(x0)
    weight = 0.0
    self_play_sum = 0.0
    # past k_max, an emission interval emits K = 0 and k_max alone, as
    # k_max + 1 does, whose multiples fit an index
    every = min(emit_every, k_max + 1)
    count = k_max // every + 1 + (k_max % every != 0)
    lo, n = len(_WIRE_SCALARS), game.n
    trace = Trace(steps=np.empty(count, dtype=np.int64),
                  table=np.empty((count, lo + 2 * n)), avg_self_play=np.empty(count))
    emitted = 0
    block = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // game.n))
    # row k of a block holds alpha_k, X^k, CX^k and the shifted logits;
    # step k writes X^{k+1} to row k + 1, and the last row starts the next block
    x_block = np.empty((block + 1, game.n))
    cx_block, shifted_block = np.empty((block, game.n)), np.empty((block, game.n))
    rate_block, wsum = np.empty(block), np.empty(())
    x_block[0] = x0
    x_rows, cx_rows, shifted_rows = list(x_block), list(cx_block), list(shifted_block)
    next_rows = x_rows[1:]
    rate_cells = [rate_block[i, ...] for i in range(block)]
    logits, tmp, w = np.log(x0), np.empty(game.n), np.empty(game.n)
    peaks = [logits[i, ...] for i in range(game.n)]
    argmax, dot = logits.argmax, c.dot
    multiply, add, subtract = np.multiply, np.add, np.subtract
    exp, divide, total = np.exp, np.divide, np.add.reduce

    for start in range(0, k_max + 1, block):
        rates = alphas[start:start + block]
        size = len(rates)
        rate_block[:size] = rates
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha, x, cx, shifted, x_next in zip(
                    rate_cells[:size], x_rows, cx_rows, shifted_rows, next_rows):
                dot(x, cx)
                multiply(alpha, cx, tmp)
                add(logits, tmp, logits)
                subtract(logits, peaks[argmax()], shifted)
                exp(shifted, w)
                total(w, None, None, wsum)
                divide(w, wsum, x_next)
            weights = _running_sum(weight, rates)
        xs, cxs, shifteds = x_block[:size], cx_block[:size], shifted_block[:size]
        if not (np.isfinite(shifteds).all() and np.isfinite(weights).all()):
            finite = np.isfinite(shifteds).all(axis=1) & np.isfinite(weights)
            raise ScheduleError(f"schedule {schedule.label} overflows at step "
                                f"{start + int(np.argmin(finite))}: A_K or the "
                                "logits are no longer finite")
        # A_{K-1} as step K's sums give it back; K = 0 has no predecessor
        prev_weights = weights - rates
        skip = int(start == 0)
        held = prev_weights[skip:] > 0
        if not held.all():
            raise ScheduleError(f"schedule {schedule.label} cancels at step "
                                f"{start + skip + int(np.argmin(held))}: "
                                "A_K - alpha_K is not positive")

        terms = rates[:, None] * xs
        accums = _running_sum(accum, terms)
        xcx = _row_dots(xs, cxs)
        self_plays = _running_sum(self_play_sum, rates * xcx)
        accum, weight, self_play_sum = accums[-1], weights[-1], self_plays[-1]

        # the emitted rows: every multiple of emit_every, and k_max
        e = np.arange(-start % every, size, every)
        if start + size > k_max and k_max % every:
            e = np.append(e, size - 1)
        rows = slice(emitted, emitted + len(e))
        emitted += len(e)
        table = trace.table[rows]
        trace.steps[rows] = start + e
        table[:, 0], table[:, 1] = rates[e], weights[e]
        table[:, lo:lo + n] = xs[e]
        xbar = table[:, lo + n:]
        np.divide(accums[e], weights[e, None], out=xbar)
        cxbar = np.matmul(c, xbar[:, :, None])[:, :, 0]   # gemv per row, as np.dot
        table[:, 2] = cxbar.max(axis=1) - _row_dots(xbar, cxbar)
        table[:, 3] = cxs[e].max(axis=1) - xcx[e]
        # ||Xbar^K - Xbar^{K-1}||, Xbar^{K-1} recovered from step K's sums;
        # K = 0 has no predecessor and reads 0
        moved = start + e > 0
        prev = e[moved]
        diff = xbar[moved] - ((accums[prev] - terms[prev])
                              / prev_weights[prev, None])
        table[:, 4] = 0.0
        table[moved, 4] = np.sqrt(_row_dots(diff, diff))
        np.divide(self_plays[e], weights[e], out=trace.avg_self_play[rows])
        x_block[0] = x_block[size]
    return trace


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

POINTWISE_TOL = 1e-9
ACCUMULATED_TOL = 1e-8

ALPHA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)


@dataclass
class DiagnosticCheck:
    name: str
    samples: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "max_violation": self.max_violation,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class DiagnosticsReport:
    checks: list[DiagnosticCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}


ENTROPY_CHECKS = (("entropy_alpha_convexity", POINTWISE_TOL),
                  ("entropy_upper_bound", POINTWISE_TOL),
                  ("entropy_lower_bound", POINTWISE_TOL),
                  ("log_growth_bound", ACCUMULATED_TOL))

# Samples drawn and evaluated per block: the (samples, rates, n) arrays stay
# a few MB however many samples are asked for.
_DIAG_CHUNK = 256
_LOG_GROWTH_STEPS = 32


def _draw_entropy_samples(rng: Xoshiro256StarStar, n: int, count: int):
    """Draw count (X, Y, alpha grid) samples in the generator's fixed order.
    Grids are padded to a common width by repeating their largest rate,
    which adds no new value to any check."""
    xs = np.empty((count, n))
    ys = np.empty((count, n))
    grids = []
    for s in range(count):
        xs[s] = rng.interior_point(n)
        support_size = 1 + rng.randint(n) if rng.random() < 0.3 else None
        ys[s] = rng.simplex_point(n, support_size)
        grids.append(sorted(set(ALPHA_GRID) | {rng.uniform(0.0, 2.0) for _ in range(10)}))
    width = max(len(g) for g in grids)
    return xs, ys, np.array([g + g[-1:] * (width - len(g)) for g in grids])


def _re_on_support(y, q) -> np.ndarray:
    """RE(y, q) along the last axis, summed over the support of y."""
    return np.sum(y * np.log(np.where(y > 0.0, y / q, 1.0)), axis=-1)


def _entropy_violations(c: np.ndarray, xs, ys, alphas) -> tuple[float, ...]:
    """Worst violation of each ENTROPY_CHECKS inequality over one block of
    samples: xs, ys are (S, n), alphas is the (S, A) sorted rate grid."""
    width = alphas.shape[1]
    lo = np.r_[np.arange(width - 1), 0]      # midpoint pairs: neighbours,
    hi = np.r_[np.arange(1, width), width - 1]  # then first with last
    rates = np.concatenate([alphas, 0.5 * (alphas[:, lo] + alphas[:, hi])], axis=1)
    log_x = np.log(xs)
    cx = xs @ c.T
    re_t = _re_on_support(ys[:, None, :], _hedge_map(
        log_x[:, None, :], cx[:, None, :], rates[:, :, None]))
    re_at, re_mid = re_t[:, :width], re_t[:, width:]
    re_yx = _re_on_support(ys, xs)[:, None]
    drift = np.sum((ys - xs) * cx, axis=-1)[:, None]
    convexity = re_mid - 0.5 * (re_at[:, lo] + re_at[:, hi])
    upper = re_at - (re_yx - alphas * drift + alphas * (np.exp(alphas) - 1.0))
    lower = (re_yx - alphas * drift) - re_at

    # short trajectories for the accumulated bound, all samples at once
    xk, log_xk = xs, log_x
    weight = 0.0
    accum = np.zeros_like(xs)
    self_play = np.zeros(len(xs))
    growth = 0.0
    for k in range(_LOG_GROWTH_STEPS):
        alpha = (k + 1) ** (-2.0 / 3.0)
        cxk = xk @ c.T
        weight += alpha
        accum += alpha * xk
        self_play += alpha * np.sum(xk * cxk, axis=-1)
        xk = _hedge_map(log_xk, cxk, alpha)
        log_xk = np.log(xk)
        rhs = (accum / weight) @ c.T - (self_play / weight)[:, None]
        growth = max(growth, float(np.max((log_xk - log_x) / weight - rhs)))
    return (float(convexity.max()), float(upper.max()), float(lower.max()), growth)


def diagnose_entropy_bounds(game: SymmetricGame, samples: int,
                            seed: int) -> DiagnosticsReport:
    """Numerically verify the entropy inequalities behind the convergence
    guarantee on random (X, Y, alpha) samples:

      * convexity of RE(Y, T_alpha(X)) in alpha (midpoint test);
      * the upper bound RE(Y,T(X)) <= RE(Y,X) - a(Y-X).CX + a(e^a - 1),
        valid for payoffs in [0, 1];
      * the lower bound RE(Y,T(X)) >= RE(Y,X) - a(Y-X).CX;
      * the telescoped logit growth bound along a short trajectory:
        (ln X^{K+1}(i) - ln X^0(i))/A_K <= (C Xbar^K)_i - avg self-play.

    Samples are drawn in blocks and each block is checked with batched
    array operations; a given seed always checks the same samples.
    """
    if not game.normalized:
        raise GameError("entropy diagnostics assume payoffs in [0, 1]")
    if samples < 0:
        raise GameError(f"samples must be >= 0, got {samples}")
    rng = Xoshiro256StarStar(seed)
    worst = [0.0] * len(ENTROPY_CHECKS)
    for start in range(0, samples, _DIAG_CHUNK):
        block = _draw_entropy_samples(rng, game.n, min(_DIAG_CHUNK, samples - start))
        worst = [max(w, v) for w, v in
                 zip(worst, _entropy_violations(game.payoff, *block))]
    return DiagnosticsReport(checks=[
        DiagnosticCheck(name, samples, w, tol)
        for (name, tol), w in zip(ENTROPY_CHECKS, worst)])


TRAJECTORY_CHECKS = ("log_ratio_identity", "payoff_floor_bound", "self_play_bound")


def diagnose_trajectory_identities(game: SymmetricGame, trace: Trace) -> DiagnosticsReport:
    """Verify exact identities/bounds one step back from each snapshot
    K >= 1, from its wire columns: with A_{K-1} = A_K - alpha_K, Xbar^{K-1}
    = (A_K Xbar^K - alpha_K X^K)/A_{K-1} and ln X^K = ln X^0 + A_{K-1} C
    Xbar^{K-1} - ln(normalizer). With p = C Xbar^{K-1}:

      * log-ratio identity (a uniform start): ln(X^K(i)/X^K(j))/A_{K-1} = p_i - p_j;
      * payoff floor (X^0, the K = 0 record): p_i - p_max >= (ln c + ln
        X^K(i))/A_{K-1}, c = X^0_min/X^0_max;
      * best-response bound (avg_self_play, a run in memory): X^K.p >= the
        avg self-play to K - 1, (A_K avg_self_play - alpha_K X^K.CX^K)/A_{K-1}.

    The report holds, in TRAJECTORY_CHECKS order, the checks whose inputs
    (named in parentheses) the trace holds. X^K entries below the smallest
    normal float (a forced schedule can drive one to 0) are left out of the
    log checks.
    """
    x0, n = trace.x0, trace.n
    lo, c = len(_WIRE_SCALARS), game.payoff
    later = trace.steps > 0
    table = trace.table[later]
    alpha, a_k, x = table[:, :1], table[:, 1:2], table[:, lo:lo + n]
    # ln X^K, NaN (which fmax and fmin skip) below the smallest normal float
    held = x >= np.finfo(float).tiny
    log_x = np.where(held, np.log(np.where(held, x, 1.0)), np.nan)
    per_row = {}
    # a file can hold a record whose A_K - alpha_K is 0 (a run refuses
    # one); it reads inf or NaN, and fails
    with np.errstate(divide="ignore", invalid="ignore"):
        a_prev = a_k - alpha
        xbar_prev = (a_k * table[:, lo + n:] - alpha * x) / a_prev
        cxbar = np.matmul(c, xbar_prev[:, :, None])[:, :, 0]   # gemv per row, as np.dot
        if x0 is not None and np.allclose(x0, 1.0 / n, atol=1e-12):
            d = log_x / a_prev - cxbar
            per_row["log_ratio_identity"] = np.fmax.reduce(d, 1) - np.fmin.reduce(d, 1)
        if x0 is not None:
            floor = (math.log(x0.min() / x0.max()) + log_x) / a_prev
            per_row["payoff_floor_bound"] = np.fmax.reduce(
                floor - (cxbar - cxbar.max(axis=1, keepdims=True)), 1)
        if trace.avg_self_play is not None:
            xcx = _row_dots(x, np.matmul(c, x[:, :, None])[:, :, 0])[:, None]
            self_play = (a_k * trace.avg_self_play[later, None] - alpha * xcx) / a_prev
            per_row["self_play_bound"] = self_play[:, 0] - _row_dots(x, cxbar)
    # the largest violation over the snapshots, at least 0, a NaN one as inf
    return DiagnosticsReport(checks=[
        DiagnosticCheck(name, len(table),
                        float(np.max(np.where(np.isnan(v), np.inf, v), initial=0.0)),
                        ACCUMULATED_TOL) for name, v in per_row.items()])
