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

import contextlib
import functools
import itertools
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
    is_interior,
    parse_float,
    read_file,
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
    alpha_0..alpha_{count-1} and why it fails the convergence hypotheses
    (None when it meets them). Built by ``parse_schedule``."""

    label: str
    rates: Callable[[int], np.ndarray]
    reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.reason is None

    @property
    def flags(self) -> tuple[str, ...]:
        """A valid file: schedule's asymptotics cannot be verified."""
        listed = self.valid and self.label.startswith("file:")
        return ("unverified-asymptotics",) if listed else ()


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
    verified. The label is a spec that parses back to the same rates: P
    and C written by repr, a file by its path.
    """
    arg = spec.partition(":")[2]
    if spec == "harmonic":
        return Schedule("harmonic",
                        lambda count: 1.0 / np.maximum(np.arange(count, dtype=float), 1.0))
    if spec.startswith("power:"):
        p = parse_float(arg, f"schedule {spec!r}: ")
        return Schedule(f"power:{p!r}",
                        lambda count: np.arange(1, count + 1, dtype=float) ** -p,
                        _power_validation(p))
    if spec.startswith("constant:"):
        value = parse_float(arg, f"schedule {spec!r}: ")
        reason = "rates must be positive" if value <= 0 else "alpha_k does not tend to 0"
        return Schedule(f"constant:{value!r}", lambda count: np.full(count, value),
                        reason)
    if spec.startswith("file:"):
        values = tuple(parse_float(tok, f"schedule file {arg}: ")
                       for tok in read_file(arg).split())
        return Schedule(spec, lambda count: _listed_rates(values, count),
                        _listed_validation(values))
    raise ScheduleError(f"cannot parse schedule spec {spec!r}")


DEFAULT_SCHEDULE = parse_schedule("power:0.6666666666666666")


# ---------------------------------------------------------------------------
# The Hedge map
# ---------------------------------------------------------------------------

def hedge_step(game: SymmetricGame, x, alpha: float) -> np.ndarray:
    """One exponential-weights update, x(i)*exp(alpha*(Cx)_i) renormalized:
    X^1 of a one-step run_trajectory at the constant rate alpha. It refuses
    what that run refuses: a GameError for a start that is not an interior
    strategy of the game, a ScheduleError for a rate that is not positive
    and finite or for a step that overflows."""
    rate = Schedule(f"constant:{alpha!r}", lambda count: np.full(count, alpha, dtype=float))
    return run_trajectory(game, x, rate, 1, emit_every=1).final.x


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

# Values (rows x columns) formatted per chunk by the writers: at any n a
# chunk's integer temporaries are 64 KB each, and its slots and text 256 KB;
# twice the values made the 64-bit products three times as slow per value.
_WRITE_CHUNK = 1 << 13


# ---------------------------------------------------------------------------
# Trace text: the digits of a float from integer arithmetic
# ---------------------------------------------------------------------------
# A normal float is v = m * 2**e with a 53-bit m. Scaled by 10**t = 5**t *
# 2**t so that v * 10**t lies in [1e16, 1e17), it is m * 5**t / 2**s with
# s = -(e + t), whose floor and remainder are exact in two 64-bit limbs. 5**27
# is the largest power of 5 below 2**64, so the values settled this way run
# from 1e-11 (t = 27) up to 2**51 (s = 1).
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(19)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFF_FFFF)

# A value's text is laid out in a 32-byte slot, NUL where a position is
# unused, and the first _TEXT bytes are written:
#   0 sign, 1 first digit or the 0 of "0.", 2 the point, 3-5 the zeros after
#   "0.", 7 the first digit after them, 8-23 the other 16 digits, 24-27 the
#   exponent ("e-05").
# The first word of a slot is looked up from the sign, the zeros after
# "0.", the point and the first digit; the exponent from the exponent.
_TEXT = 28
_QUADS = sum(                            # "0000".."9999", one uint32 each
    (np.arange(10_000, dtype=np.uint32) // 10 ** (3 - k) % 10 + 48) << 8 * k
    for k in range(4)).astype("<u4")
_HEADS = np.array([[45 * sign, 48 if zeros else 48 + lead, 46 * point,
                    48 * (zeros > 1), 48 * (zeros > 2), 48 * (zeros > 3), 0,
                    (48 + lead) if zeros else 0]
                   for sign in (0, 1) for zeros in range(5) for point in (0, 1)
                   for lead in range(10)], dtype=np.uint8).view("<u8")[:, 0]
_EXPONENTS = np.frombuffer(b"".join(                 # x = -99..99; fixed from -4
    f"e{x:+03d}".encode().ljust(8, b"\0") if x < -4 else bytes(8)
    for x in range(-99, 100)), dtype="<u8")
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _mul_shift(a: np.ndarray, b: np.ndarray, shift: np.ndarray):
    """floor(a * b / 2**shift) and the remainder a * b mod 2**shift, exact,
    for uint64 arrays with a < 2**53, b < 2**63 and 1 <= shift <= 62: the
    product is formed in two 64-bit limbs from 32-bit halves."""
    a_hi, a_lo = a >> 32, a & _LOW32
    b_hi, b_lo = b >> 32, b & _LOW32
    low = a_lo * b_lo
    mid = a_lo * b_hi + a_hi * b_lo
    lo = low + (mid << 32)
    hi = a_hi * b_hi + (mid >> 32) + (lo < low)
    return (hi << (64 - shift)) | (lo >> shift), lo & ((1 << shift) - 1)


def _most_zeros(d: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of each integer in d, at most 17."""
    zeros = np.zeros(len(d), dtype=np.int64)
    rows = np.flatnonzero(d // 10 * 10 == d)
    for k in range(1, 18):
        zeros[rows] = k
        rows = rows[d[rows] // _POW10[k + 1] * _POW10[k + 1] == d[rows]]
        if not rows.size:
            break
    return zeros


def _decimal_digits(values: np.ndarray):
    """Each float64 value as (d, x, zeros, settled): v is d * 10**(x - 16)
    to the digits kept, d is a 17-digit integer with ``zeros`` trailing
    zeros. The digits are v correctly rounded to 17 significant digits, as
    '%.17g' writes them. ``settled`` is False where the integer path does
    not decide them: zero, a subnormal, not finite, outside [1e-11, 2**51),
    a rounding tie, or beside a power of ten, where one multiplication
    misses [10**16, 10**17) or rounds up to 10**17; d, x and zeros are
    placeholders there.

    t = 16 - floor(log10|v|), one off beside a power of ten; where v is
    settled, t is in 1..27 and s in 1..62, so _POW5[t] and the shifts are
    defined. With vr = v * 10**t = V + f (f the fraction, rem / 2**s), the
    17-digit d rounds vr to the nearest integer."""
    bits = values.view(np.uint64)
    biased = (bits >> 52 & 0x7FF).astype(np.int64)
    m = bits & np.uint64((1 << 52) - 1) | np.uint64(1 << 52)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(np.abs(values)))       # X, or one off it
    settled = (guess >= -11) & (biased <= 1073)           # NaN compares False
    t = np.where(settled, 16 - guess, 16).astype(np.int64)
    s = np.where(settled, 1075 - biased, 52) - t
    shift, p5 = s.view(np.uint64), _POW5[t]
    whole, rem = _mul_shift(m, p5, shift)
    settled &= (whole >= 10 ** 16) & (whole < 10 ** 17)  # the guess was X
    half = np.uint64(1) << shift - 1
    settled &= rem != half
    d = whole + (rem > half)
    settled &= d < 10 ** 17                               # 10**17: one digit more
    d = np.where(settled, d, 10 ** 16)
    x = np.where(settled, 16 - t, 0)
    return d, x, _most_zeros(d), settled


def _format_values(values: np.ndarray) -> np.ndarray:
    """The text of each float64 value, as '%.17g' writes it, in the first
    _TEXT bytes of a NUL-padded 32-byte slot. Values the integer path does
    not settle are formatted by the % conversion."""
    d, x, zeros, settled = _decimal_digits(values)
    slots = np.empty((len(values), 32), dtype=np.uint8)
    words, quads = slots.view("<u8"), slots.view("<u4")
    lead = (d // 10 ** 16).view(np.int64)
    rest = d.view(np.int64) - lead * 10 ** 16             # int64: indices as they are
    for col in (5, 4, 3, 2):
        quad = rest // 10_000
        quads[:, col] = _QUADS[rest - quad * 10_000]
        rest = quad
    kept = 16 - zeros                                     # digits after the first
    wide = np.flatnonzero(x > 0)                          # x + 1 digits, then the point
    digits = np.concatenate([(lead[wide, None] + 48).astype(np.uint8),
                             slots[wide, 8:24]], axis=1)
    words[:, 1] &= _KEEP[np.minimum(kept, 8)]
    words[:, 2] &= _KEEP[np.maximum(kept - 8, 0)]
    zeros_after = np.where(x < -4, 0, np.maximum(-x, 0))  # 0.000d: "0." then zeros
    point = (zeros_after > 0) | (kept > 0)
    sign = (values.view(np.uint64) >> 63).astype(np.int64)
    words[:, 0] = _HEADS[((sign * 5 + zeros_after) * 2 + point) * 10 + lead]
    words[:, 3] = _EXPONENTS[x + 99]
    _lay_out_integers(slots, wide, digits, x, kept, sign)
    loose = np.flatnonzero(~settled)
    if loose.size:
        text = b"".join(("%.17g" % v).encode().ljust(32, b"\0")
                        for v in values[loose].tolist())
        slots[loose] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 32)
    return slots[:, :_TEXT]


def _lay_out_integers(slots, rows, digits, x, kept, sign) -> None:
    """Re-lay the slots of rows, values of at least 10 in fixed notation:
    their x + 1 leading digits, the point if a digit is kept after them,
    then those digits. digits holds each row's 17 digit characters."""
    j = np.arange(19, dtype=np.int8)                      # int8: cheap broadcasts
    q = x[rows, None].astype(np.int8)
    last = kept[rows, None].astype(np.int8)               # the last digit kept
    text = np.zeros((len(rows), 19), dtype=np.uint8)
    text[:, 1:18] = digits
    text *= j - 1 <= last                                 # after the point
    np.copyto(text[:, :17], digits, where=j[:17] <= q)    # before it
    text[j == q + 1] = 46 * (last > q)[:, 0]
    slots[rows, 0] = 45 * sign[rows]
    slots[rows, 1:20] = text
    slots[rows, 20:] = 0


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
        return ",".join(_csv_names(self.n))

    def _write(self, path, head: str, line: str) -> None:
        """head, then one line per record: line with a NUL where each field
        goes, K and then the wire row, each value written as '%.17g' writes
        it. A chunk of lines is laid out as
        bytes, the separators once and a NUL-padded slot per field, and
        written with the NULs dropped."""
        width = self.table.shape[1]
        rows = max(1, min(_WRITE_CHUNK // width, len(self.steps)))
        # the separator before each field, then the line's end
        seps = line.encode().split(b"\0")
        layout, starts = bytearray(), []
        for sep, size in zip(seps, [20] + [_TEXT] * width):
            layout += sep
            starts.append(len(layout))
            layout += bytes(size)
        layout += seps[-1]
        text = np.tile(np.frombuffer(layout, dtype=np.uint8), (rows, 1))
        with open(path, "w") as fh:
            fh.write(head)
            for start in range(0, len(self.steps), rows):
                table = self.table[start:start + rows]
                chunk = text[:len(table)]
                steps = self.steps[start:start + rows].astype("S20")   # NUL-padded
                chunk[:, starts[0]:starts[0] + 20] = steps[:, None].view(np.uint8)
                slots = _format_values(table.ravel()).reshape(
                    len(table), width, _TEXT)
                for c, at in enumerate(starts[1:]):
                    chunk[:, at:at + _TEXT] = slots[:, c]
                fh.write(chunk.tobytes().translate(None, b"\0").decode())

    def to_csv(self, path) -> None:
        self._write(path, self.csv_header() + "\n",
                    "\0" + ",\0" * self.table.shape[1] + "\n")

    def to_jsonl(self, path) -> None:
        """One JSON object per record, each value written as to_csv writes
        it, '%.17g': every value of a trace is finite, and these digits read
        back as the same double (but -0.0, whose "-0" reads back as 0.0)."""
        scalars = ", ".join(f'"{name}": \0' for name in _WIRE_SCALARS)
        vector = ", ".join(["\0"] * self.n)
        self._write(path, "", f'{{"K": \0, {scalars}, "X": [{vector}], '
                              f'"Xbar": [{vector}]}}\n')

    @classmethod
    def from_file(cls, path) -> "Trace":
        """Load an emitted trace (CSV or JSON-lines) as columns; the running
        self-play payoff, which is not in the wire format, is None.
        Its lines are those of its whole text stripped, which
        _stripped_lines reads as UTF-8 a block at a time. n is the number
        of the CSV header's X_ columns or the length of the first JSON
        record's X; then each block's records are parsed and appended to a
        table that grows by half and is trimmed once at the end: a read
        holds the table and one block. A GameError names the file and the
        first bad line, with its own error at any block size: a line that
        is not UTF-8 text or does not parse as a record (K not an integer,
        a field missing or extra, a JSON value not a JSON number, X or Xbar
        not n numbers), then a CSV header other than K, the wire scalars,
        X_1..X_n and Xbar_1..Xbar_n in that order, then a record that holds
        a value that is not finite, whose K is below 0 or not above the K
        before it, or whose X or Xbar is not a probability vector (a
        negative entry, or a sum off 1 by more than OFF_SIMPLEX_TOL)."""
        path = Path(path)
        with contextlib.closing(_stripped_lines(path)) as blocks:
            first, lines = next(blocks, (1, []))
            header = None                                 # JSON lines have none
            if lines and lines[0].startswith("{"):
                # n is the length of the first record's X; a record whose X
                # is not a list fails at any n
                x = _parse_located(_jsonl_rows, lines[:1], path, first)[0].get("X")
                n = len(x) if type(x) is list else 0
                parse = _jsonl_columns
            else:
                header = lines[0].split(",") if lines else []
                n = sum(1 for name in header if name.startswith("X_"))
                lines, first = lines[1:], first + 1
                parse = _csv_columns
            parse = functools.partial(parse, n=n)
            steps = np.empty(0, dtype=np.int64)
            table, rows = np.empty((0, len(_WIRE_SCALARS) + 2 * n)), 0
            for number, lines in itertools.chain([(first, lines)], blocks):
                if not lines:
                    continue
                new_steps, new_table = _parse_located(parse, lines, path, number)
                end = rows + len(new_steps)
                if end > len(steps):    # resize reallocs, in place where it can
                    size = max(end, len(steps) * 3 // 2)
                    steps.resize(size, refcheck=False)
                    table.resize((size, table.shape[1]), refcheck=False)
                steps[rows:end], table[rows:end] = new_steps, new_table
                rows = end
        if not rows:
            raise GameError(f"trace file {path} contains no records")
        steps.resize(rows, refcheck=False)
        table.resize((rows, table.shape[1]), refcheck=False)
        trace = cls(steps, table)
        if header is not None and header != _csv_names(trace.n):
            raise GameError(f"{path}:{first - 1}: the CSV header is not K,"
                            f"{','.join(_WIRE_SCALARS)},X_1..X_n,Xbar_1..Xbar_n")
        _check_records(trace, path, first)
        return trace


# Bytes read per block by Trace.from_file, before the block is read on to
# the end of its line: a block's lines, JSON objects and parsed rows stay
# near a MB whatever the size of the file.
_READ_BLOCK = 1 << 17


def _stripped_lines(path: Path):
    """path.read_text().strip().splitlines() a block at a time, as
    (number, lines): each list is non-empty and lines[0] is on file line
    ``number``. A block is about _READ_BLOCK bytes read on to a line feed,
    decoded as UTF-8 and split by str.splitlines: no UTF-8 sequence holds a
    line feed and a CRLF ends at one, so the lines are the whole text's.
    Only the last line with content is held, with at most one blank line
    after it: a later line with content makes that one interior, and the
    reader stops there, as a blank line parses as no record, so the lines
    after it need no numbers. A byte that is not UTF-8 is a GameError naming
    its line, raised once the lines before it are yielded: its line ends in
    U+FFFD, which is content."""
    held, at = [], 1        # from the last line with content on, and its number
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), b""):
            try:            # the decoded block is not kept beside its lines
                lines, bad = chunk.decode("utf-8").splitlines(), None
            except UnicodeDecodeError as exc:
                bad = exc.start
                lines = (chunk[:bad].decode("utf-8") + "\ufffd").splitlines()
            if held:
                lines[:0] = held
            else:                   # drop the blank lines before the first content
                first = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
                del lines[:first]
                at += first
                if not lines:
                    continue
                lines[0] = lines[0].lstrip()
            last = len(lines) - 1   # lines[0] has content
            while not lines[last].strip():
                last -= 1
            if last:
                yield at, lines[:last]
            held, at = lines[last:last + 2], at + last
            if bad is not None:
                raise GameError(f"{path}:{at}: not UTF-8 text (byte 0x{chunk[bad]:02x})")
    if held:
        yield at, [held[0].rstrip()]


def _csv_names(n: int) -> list[str]:
    """The CSV header's column names for a trace of n strategies."""
    return (["K", *_WIRE_SCALARS] + [f"X_{i + 1}" for i in range(n)]
            + [f"Xbar_{i + 1}" for i in range(n)])


def _check_records(trace: Trace, path: Path, first: int) -> None:
    """Raise a GameError naming the first record that holds a value that
    is not finite, whose K is negative or not above the K before it, or
    whose X or Xbar is not a probability vector; the first record is on
    line ``first``."""
    steps, table, n = trace.steps, trace.table, trace.n
    vectors = table[:, len(_WIRE_SCALARS):].reshape(len(table), 2, n)
    finite = np.isfinite(table).all(axis=1)
    simplex = ((vectors >= 0.0).all(axis=2)
               & (np.abs(vectors.sum(axis=2) - 1.0) <= OFF_SIMPLEX_TOL))
    ordered = np.r_[steps[0] >= 0, steps[1:] > steps[:-1]]
    good = finite & ordered & simplex.all(axis=1)
    if good.all():
        return
    row = int(np.argmin(good))
    where = f"{path}:{first + row}: "
    if not finite[row]:
        raise GameError(where + "record has a non-finite value")
    if not ordered[row]:
        raise GameError(where + (f"K = {steps[row]}; K must be >= 0" if row == 0 else
                                 f"K = {steps[row]} after K = {steps[row - 1]}; "
                                 "K must strictly increase"))
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


def _jsonl_rows(lines: list[str]) -> list:
    """The JSON value of each line, decoded in one json.loads call."""
    rows = json.loads("[" + ",".join(lines) + "]")
    if len(rows) != len(lines):
        raise ValueError("a line holds more than one JSON value")
    return rows


def _jsonl_columns(lines: list[str], n: int):
    """JSON lines as wire columns, like _csv_columns: each line a record
    with an integer K and, as JSON numbers, the wire scalars and the n
    entries each of a list X and a list Xbar."""
    rows = _jsonl_rows(lines)
    ks = [row["K"] for row in rows]
    if any(type(k) is not int for k in ks):
        raise ValueError("K is not an integer")
    try:        # every row is a dict, as the lookup of K shows
        values = list(itertools.chain.from_iterable(
            [row[key] for key in _WIRE_SCALARS] + row["X"] + row["Xbar"] for row in rows))
    except TypeError:
        raise ValueError("X and Xbar are not both lists") from None
    # bool, str, None and lists are out: float() would take the first two
    if not set(map(type, values)) <= {int, float}:
        raise ValueError("a value is not a JSON number")
    # every field is there, as the lookups above show: more is one extra
    if any(len(row) != len(_WIRE_SCALARS) + 3 for row in rows):
        raise ValueError("a record has a field other than K, "
                         f"{', '.join(_WIRE_SCALARS)}, X and Xbar")
    for row in rows:
        if len(row["X"]) != n or len(row["Xbar"]) != n:
            # one count if the two agree, else X's and then Xbar's
            held = dict.fromkeys([len(row["X"]), len(row["Xbar"])])
            raise ValueError(f"X and Xbar hold {' and '.join(map(str, held))} numbers, "
                             f"expected {n}")
    table = np.fromiter(values, dtype=float, count=len(values))
    return np.array(ks, dtype=np.int64), table.reshape(len(rows), -1)


def _parse_located(parse, lines: list[str], path: Path, first: int):
    """parse(lines), or a GameError naming the first line that does not
    parse; lines[0] is line ``first`` of the file. Whether a record parses
    depends on no other line (its width n is fixed before any record is
    parsed), so a failing block holds a line that fails alone; the first
    such line is named with its own error, its positions within the line,
    whatever block the line is read in."""
    try:
        return parse(lines)
    except _UNREADABLE as exc:
        error = exc
    for number, line in enumerate(lines, first):
        try:
            parse([line])
        except _UNREADABLE as exc:
            error = exc
            break
    raise GameError(f"{path}:{number}: unreadable trace record ({error})") from None


# Steps per block of run_trajectory: at most _BLOCK_STEPS, at most
# _BLOCK_CELLS iterate entries, and no more than the run takes. A block
# costs a fixed few dozen numpy calls, small per step at 512 steps;
# 4096-step blocks raised peak memory by 6 MB at n = 16. The entropy
# checks' blocks hold at most _BLOCK_CELLS logits too, at any n.
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
    x0 = game.strategy(x0)
    if not is_interior(x0):
        raise GameError("trajectories must start in the simplex interior")
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
    """Run k_max steps of Hedge self-play and record emitted snapshots of
    K = 0..k_max.

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

    A schedule whose running weight A_K, logits of X^1..X^{k_max} or
    running self-play sum overflow, or whose A_K - alpha_K rounds to 0 at a
    step K >= 1 (so that Xbar^{K-1} cannot be recovered from step K),
    raises ``ScheduleError`` naming the first such step instead of emitting
    NaN; every value of the trace is finite.
    """
    x0, alphas = check_run(game, x0, schedule, k_max, emit_every, force)
    c = game.payoff
    accum = np.zeros_like(x0)
    weight = 0.0
    self_play_sum = 0.0
    # the emitted steps: the multiples of emit_every below k_max, then k_max;
    # an interval past k_max emits what k_max does, which fits an int64
    steps = np.append(np.arange(0, k_max, min(emit_every, k_max)), k_max)
    lo, n = len(_WIRE_SCALARS), game.n
    trace = Trace(steps, np.empty((len(steps), lo + 2 * n)), np.empty(len(steps)))
    block = max(1, min(_BLOCK_STEPS, _BLOCK_CELLS // game.n, k_max + 1))
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
        # step K updates X^K to X^{K+1}, which is recorded only for K < k_max
        updates = min(size, k_max - start)
        rate_block[:size] = rates
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha, x, cx, shifted, x_next in zip(
                    rate_cells[:updates], x_rows, cx_rows, shifted_rows, next_rows):
                dot(x, cx)
                multiply(alpha, cx, tmp)
                add(logits, tmp, logits)
                subtract(logits, peaks[argmax()], shifted)
                exp(shifted, w)
                total(w, None, None, wsum)
                divide(w, wsum, x_next)
            if updates < size:                  # CX^{k_max}, for the last record
                dot(x_rows[updates], cx_rows[updates])
            weights = _running_sum(weight, rates)
            xs, cxs = x_block[:size], cx_block[:size]
            xcx = _row_dots(xs, cxs)
            self_plays = _running_sum(self_play_sum, rates * xcx)
        finite = np.isfinite(weights) & np.isfinite(self_plays)
        finite[:updates] &= np.isfinite(shifted_block[:updates]).all(axis=1)
        if not finite.all():
            raise ScheduleError(f"schedule {schedule.label} overflows at step "
                                f"{start + int(np.argmin(finite))}: A_K, the "
                                "logits or the self-play sum are no longer finite")
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
        accum, weight, self_play_sum = accums[-1], weights[-1], self_plays[-1]

        # the emitted steps of this block: their trace rows, then e, their block rows
        rows = slice(*np.searchsorted(steps, (start, start + size)))
        e = steps[rows] - start
        table = trace.table[rows]
        table[:, 0], table[:, 1] = rates[e], weights[e]
        table[:, lo:lo + n] = xs[e]
        xbar = table[:, lo + n:]
        np.divide(accums[e], weights[e, None], out=xbar)
        cxbar = np.matmul(c, xbar[:, :, None])[:, :, 0]   # gemv per row, as np.dot
        table[:, 2] = cxbar.max(axis=1) - _row_dots(xbar, cxbar)
        table[:, 3] = cxs[e].max(axis=1) - xcx[e]
        # ||Xbar^K - Xbar^{K-1}||, Xbar^{K-1} recovered from step K's sums;
        # K = 0 has no predecessor and reads 0
        moved = steps[rows] > 0
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
                  ("entropy_lower_bound", POINTWISE_TOL))


def _draw_entropy_samples(rng: Xoshiro256StarStar, n: int, count: int):
    """Draw count (X, alpha grid) samples. Sample s reads the outputs
    [s (3n + 12), (s + 1)(3n + 12)) of the stream, each as u = (v + 0.5) *
    2**-52 from its top 52 bits v, which is exact and strictly inside
    (0, 1): X is the first n (-ln u, normalized by row) and the rates 2u
    the last ten; the 2n + 2 between are not read. Each grid is ALPHA_GRID
    and the ten rates, sorted. Every sample reads as many outputs, so
    blocks of any size draw the same samples."""
    width = 3 * n + 12
    u = ((np.array(rng._draw(count * width), dtype=np.uint64) >> 12) + 0.5) * 2.0**-52
    u = u.reshape(count, width)
    weights = -np.log(u[:, :n])
    grids = np.sort(np.hstack([np.tile(ALPHA_GRID, (count, 1)), 2.0 * u[:, -10:]]), axis=1)
    return weights / weights.sum(axis=1, keepdims=True), grids


def _entropy_violations(c: np.ndarray, xs, alphas) -> tuple[float, ...]:
    """Worst violation of each ENTROPY_CHECKS inequality over one block of
    samples, xs (S, n) and the (S, A) sorted rate grids, read off the
    log-partition psi(a) = ln sum_i x_i e^{a (Cx)_i}: one max-shifted
    logsumexp of ln x + a Cx over every rate and midpoint at once."""
    width = alphas.shape[1]
    lo = np.r_[np.arange(width - 1), 0]      # midpoint pairs: neighbours,
    hi = np.r_[np.arange(1, width), width - 1]  # then first with last
    rates = np.concatenate([alphas, 0.5 * (alphas[:, lo] + alphas[:, hi])], axis=1)
    cx = xs @ c.T
    logits = np.log(xs)[:, None, :] + rates[:, :, None] * cx[:, None, :]
    peak = logits.max(axis=-1)
    psi = peak + np.log(np.exp(logits - peak[:, :, None]).sum(axis=-1))
    psi_at, psi_mid = psi[:, :width], psi[:, width:]
    payoff = alphas * np.sum(xs * cx, axis=-1)[:, None]     # a x.Cx
    convexity = psi_mid - 0.5 * (psi_at[:, lo] + psi_at[:, hi])
    upper = psi_at - payoff - alphas * (np.exp(alphas) - 1.0)
    lower = payoff - psi_at
    return float(convexity.max()), float(upper.max()), float(lower.max())


def diagnose_entropy_bounds(game: SymmetricGame, samples: int,
                            seed: int) -> DiagnosticsReport:
    """Numerically verify the entropy inequalities behind the convergence
    guarantee on random (X, alpha) samples. With psi_X(a) = ln sum_i X_i
    e^{a (CX)_i}, RE(Y, T_a(X)) = RE(Y, X) - a Y.CX + psi_X(a) for every Y,
    so Y cancels and each is a statement about psi_X:

      * convexity of RE(Y, T_a(X)) in a: psi_X is convex (midpoint test);
      * the upper bound RE(Y,T(X)) <= RE(Y,X) - a(Y-X).CX + a(e^a - 1),
        valid for payoffs in [0, 1]: psi_X(a) - a X.CX <= a(e^a - 1);
      * the lower bound RE(Y,T(X)) >= RE(Y,X) - a(Y-X).CX: psi_X(a) >= a X.CX.

    Samples are drawn in blocks of at most _BLOCK_CELLS logits and each
    block is checked with batched array operations; a given seed always
    checks the same samples. The bound these add up to along a run is
    checked on the run itself, as diagnose_trajectory_identities'
    log_growth_bound.
    """
    if not game.normalized:
        raise GameError("entropy diagnostics assume payoffs in [0, 1]")
    if samples < 0:
        raise GameError(f"samples must be >= 0, got {samples}")
    rng = Xoshiro256StarStar(seed)
    worst = [0.0] * len(ENTROPY_CHECKS)
    # each sample takes 2 * 15 rates: its grid and the midpoints
    block = max(1, _BLOCK_CELLS // (2 * (len(ALPHA_GRID) + 10) * game.n))
    for start in range(0, samples, block):
        drawn = _draw_entropy_samples(rng, game.n, min(block, samples - start))
        worst = [max(w, v) for w, v in
                 zip(worst, _entropy_violations(game.payoff, *drawn))]
    return DiagnosticsReport(checks=[
        DiagnosticCheck(name, samples, w, tol)
        for (name, tol), w in zip(ENTROPY_CHECKS, worst)])


TRAJECTORY_CHECKS = ("log_ratio_identity", "payoff_floor_bound", "self_play_bound",
                     "log_growth_bound")


def diagnose_trajectory_identities(game: SymmetricGame, trace: Trace) -> DiagnosticsReport:
    """Verify exact identities/bounds one step back from each snapshot
    K >= 1, from its wire columns: with A_{K-1} = A_K - alpha_K, Xbar^{K-1}
    = (A_K Xbar^K - alpha_K X^K)/A_{K-1} and ln X^K = ln X^0 + A_{K-1} C
    Xbar^{K-1} - ln(normalizer). With p = C Xbar^{K-1}:

      * log-ratio identity (a uniform start): ln(X^K(i)/X^K(j))/A_{K-1} = p_i - p_j;
      * payoff floor (X^0, the K = 0 record): p_i - p_max >= (ln c + ln
        X^K(i))/A_{K-1}, c = X^0_min/X^0_max (a file's X^0 may hold a 0:
        then ln c = -inf and the floor holds vacuously);
      * best-response bound (avg_self_play, a run in memory): X^K.p >= the
        avg self-play to K - 1, (A_K avg_self_play - alpha_K X^K.CX^K)/A_{K-1};
      * log-growth bound (X^0 and avg_self_play): (ln X^K(i) - ln
        X^0(i))/A_{K-1} <= p_i - that avg self-play, the telescoped
        multiplicative-weights bound ln(normalizer) >= sum_{k<K} alpha_k
        X^k.CX^k.

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
            floor = (np.log(x0.min() / x0.max()) + log_x) / a_prev
            per_row["payoff_floor_bound"] = np.fmax.reduce(
                floor - (cxbar - cxbar.max(axis=1, keepdims=True)), 1)
        if trace.avg_self_play is not None:
            xcx = _row_dots(x, np.matmul(c, x[:, :, None])[:, :, 0])[:, None]
            self_play = (a_k * trace.avg_self_play[later, None] - alpha * xcx) / a_prev
            per_row["self_play_bound"] = self_play[:, 0] - _row_dots(x, cxbar)
            if x0 is not None:
                growth = (log_x - np.log(x0)) / a_prev - cxbar
                per_row["log_growth_bound"] = np.fmax.reduce(growth, 1) + self_play[:, 0]
    # the largest violation over the snapshots, at least 0, a NaN one as inf
    return DiagnosticsReport(checks=[
        DiagnosticCheck(name, len(table),
                        float(np.max(np.where(np.isnan(v), np.inf, v), initial=0.0)),
                        ACCUMULATED_TOL) for name, v in per_row.items()])
