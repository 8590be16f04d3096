"""The trace writers' integer formatter against the % conversions it
replaced: each value's field against '%.17g' and repr, and whole files
against the per-record reference writers, byte for byte. Also the checks
Trace.from_file makes on a CSV header and on a JSON record's fields."""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_trace_reference import (
    emitted,
    reference_csv,
    reference_jsonl,
    reference_records,
)

import hedgenash.dynamics as dynamics
from hedgenash import (
    DEFAULT_SCHEDULE,
    GAME_KINDS,
    GameError,
    Trace,
    generate_game,
    parse_schedule,
    run_trajectory,
    uniform_strategy,
)
from hedgenash.dynamics import _decimal_digits, _format_values

TINY = sys.float_info.min


def fields(values, shortest):
    """The formatter's text of each value."""
    return [bytes(slot).replace(b"\0", b"").decode()
            for slot in _format_values(np.asarray(values, dtype=float), shortest)]


def assert_fields_match(values):
    values = np.asarray(values, dtype=float)
    assert fields(values, shortest=False) == ["%.17g" % v for v in values.tolist()]
    assert fields(values, shortest=True) == [repr(v) for v in values.tolist()]


def neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


EDGES = sorted({abs(float(v)) for v in [
    0.0, 5e-324, 1e-323, TINY / 2, *neighbours(TINY), 2.0 ** -1074 * 12345,
    *(2.0 ** k for k in range(-80, 60)), *(10.0 ** k for k in range(-20, 25)),
    *neighbours(1e-4), *neighbours(1e-5), *neighbours(1e16), *neighbours(1e17),
    *neighbours(1e-11), *neighbours(2.0 ** 51), *neighbours(2.0 ** 52),
    0.1, 0.2, 0.3, 2 / 3, 1 / 3, 0.5, 1.0, 9.5, 10.0, 99.99999999999999,
    100.0, 1234.5, 123456789.125, 4503599627370495.5, 0.000123456789,
    5e-5, 1.7976931348623157e308, 2.5, 0.25, 0.125, 3.0, 7.0, 30.0, 123.0,
    1000000000000001.25, 8914840910187.688,                # rounding ties
]})
EDGES = [-0.0, *(-v for v in EDGES if v), *EDGES]


@pytest.mark.parametrize("shortest", [False, True])
def test_edge_values_take_both_paths(shortest):
    assert_fields_match(EDGES)
    settled = _decimal_digits(np.array(EDGES), shortest)[3]
    # zero, subnormals, values past 2**51 and ties go through %; the rest
    # does not
    assert settled.any() and not settled.all()
    assert not settled[[EDGES.index(v) for v in (0.0, 5e-324, 1e17,
                                                 1000000000000001.25)]].any()
    assert settled[[EDGES.index(v) for v in (0.1, 2 / 3, 1e-5, 1234.5)]].all()


# Doubles beside a power of ten, where the one multiplication by 10**t, t =
# 16 - floor(log10|v|), misses [1e16, 1e17) or rounds up to 1e17: the double
# just below each power from 1e-11 to 1e15 but 1 and 10, and 1e-11, 1e-7 and
# 1e-6, which lie just below their powers
BESIDE_TEN = [*(float(np.nextafter(float(f"1e{k}"), 0.0)) for k in range(-11, 16)
                if k not in (0, 1)), 1e-11, 1e-7, 1e-6]
BESIDE_TEN = [*BESIDE_TEN, *(-v for v in BESIDE_TEN)]


@pytest.mark.parametrize("shortest", [False, True])
def test_values_beside_a_power_of_ten_are_left_to_percent(shortest):
    assert not _decimal_digits(np.array(BESIDE_TEN), shortest)[3].any()


def test_values_beside_a_power_of_ten_match():
    assert_fields_match([w for v in BESIDE_TEN for w in neighbours(v)])
    # every double within 20 ulps of a power of ten, whichever path it takes
    powers = np.array([float(f"1e{k}") for k in range(-13, 18)])
    around = (powers.view(np.int64)[:, None] + np.arange(-20, 21)).view(np.float64).ravel()
    assert_fields_match(np.concatenate([around, -around]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_fields_match(values[np.isfinite(values)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-12, 1e16, allow_nan=False), min_size=1, max_size=64),
       st.booleans())
def test_values_in_the_integer_range(values, negate):
    values = np.array(values) * (-1 if negate else 1)
    assert_fields_match(values)


def assert_writes_reference(trace, records, tmp_path):
    for fmt, text in (("csv", reference_csv(records, trace.n)),
                      ("jsonl", reference_jsonl(records))):
        path = tmp_path / f"trace.{fmt}"
        getattr(trace, f"to_{fmt}")(path)
        assert path.read_bytes() == text.encode()


def width(n):
    return 5 + 2 * n


@pytest.mark.parametrize("chunk", [1, 3, "three records"])
@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("kind", GAME_KINDS)
def test_small_chunks_write_reference(tmp_path, monkeypatch, kind, n, chunk):
    # a chunk of 1 or 3 values holds one record; then three records
    cells = 3 * width(n) if chunk == "three records" else chunk
    monkeypatch.setattr(dynamics, "_WRITE_CHUNK", cells)
    game = generate_game(kind, n, 2)
    reference = reference_records(game, uniform_strategy(n), DEFAULT_SCHEDULE, 40)
    for emit_every in (1, 7):
        trace = run_trajectory(game, uniform_strategy(n), DEFAULT_SCHEDULE, 40,
                               emit_every=emit_every)
        assert_writes_reference(trace, emitted(reference, emit_every), tmp_path)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_steps_cross_999_within_a_chunk(tmp_path, n):
    game = generate_game("random_uniform", n, 4)
    rows = dynamics._WRITE_CHUNK // width(n)
    assert 999 // rows == 1000 // rows
    trace = run_trajectory(game, uniform_strategy(n), DEFAULT_SCHEDULE, 1100,
                           emit_every=1)
    records = reference_records(game, uniform_strategy(n), DEFAULT_SCHEDULE, 1100)
    assert_writes_reference(trace, records, tmp_path)


def test_forced_run_to_subnormals_writes_reference(tmp_path):
    game = generate_game("zero_sum_symmetric", 6, 1)
    schedule = parse_schedule("constant:40")
    trace = run_trajectory(game, uniform_strategy(6), schedule, 300, emit_every=1,
                           force=True)
    x = trace.table[:, 5:11]
    assert ((x > 0) & (x < TINY)).any()
    records = reference_records(game, uniform_strategy(6), schedule, 300)
    assert_writes_reference(trace, records, tmp_path)


@pytest.mark.parametrize("n", [2, 16])
def test_negative_values_write_reference(tmp_path, n):
    game = generate_game("doubly_symmetric", n, 0)
    run = run_trajectory(game, uniform_strategy(n), DEFAULT_SCHEDULE, 300, emit_every=3)
    table = run.table.copy()
    table[:, 2:4] = -np.abs(table[:, 2:4]) * np.linspace(1.0, 1e10, len(table))[:, None]
    trace = Trace(run.steps, table)
    assert (trace.table[:, 2] < 0).any()
    assert_writes_reference(trace, trace.records, tmp_path)


# ---------------------------------------------------------------------------
# What Trace.from_file accepts
# ---------------------------------------------------------------------------

RECORD = "0,1,1,0,0,0,0.25,0.75,0.25,0.75"


@pytest.mark.parametrize("header", [
    "K,A_K,alpha,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_1,Xbar_2",
    "step,a,b,c,d,e,X_1,X_2,Y1,Y2",
    "K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_2,Xbar_1",
    "K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,Xbar_1,X_2,Xbar_2",
    "K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_1,Xbar_2,Xbar_3",
    "K, alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_1,Xbar_2",
])
def test_csv_header_must_name_the_wire_columns(tmp_path, header):
    # the records parse (n is counted from the X_ columns) under a header
    # that is not the wire header
    path = tmp_path / "trace.csv"
    path.write_text(f"\n{header}\n{RECORD}\n")
    with pytest.raises(GameError, match=re.escape(f"{path}:2: the CSV header is not ")):
        Trace.from_file(path)


def test_wire_header_loads(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_1,Xbar_2\n"
                    f"{RECORD}\n")
    assert Trace.from_file(path).n == 2


def test_extra_json_field_is_unreadable(tmp_path):
    record = {"K": 0, "alpha": 1.0, "A_K": 1.0, "gap_avg": 0.0, "gap_iter": 0.0,
              "avg_step_norm": 0.0, "X": [0.5, 0.5], "Xbar": [0.5, 0.5]}
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(record), json.dumps({**record, "K": 1})]
    path.write_text("\n".join(lines) + "\n")
    assert Trace.from_file(path).n == 2
    lines[1] = json.dumps({**record, "K": 1, "extra": 5})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GameError, match=re.escape(f"{path}:2: unreadable trace record")):
        Trace.from_file(path)
