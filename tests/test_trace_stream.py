"""Trace.from_file reads a file a block at a time. Against the whole-file
reader it replaced, kept here as the reference, with the block cut down to
1, 7 and 64 bytes: every line separator, stripped blank lines and spaces,
CRLF, a BOM, a JSONL width change and the malformed records give the same
columns bit for bit, or a GameError at the same line. Also the error for a
file that is not UTF-8, and the memory a read holds."""

import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import hedgenash.dynamics as dynamics
from hedgenash import (
    DEFAULT_SCHEDULE,
    GameError,
    Trace,
    generate_game,
    run_trajectory,
    uniform_strategy,
)
from hedgenash.cli import main

GAME = "random_uniform:3:1"


def whole_file_read(path):
    """The reader the chunked one replaced: the whole text, its stripped
    copy and a list of every line, held at once and parsed in one piece."""
    text = path.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    # the file line of lines[0]: one past the line breaks stripped before it
    leading = text[:len(text) - len(text.lstrip())]
    first = len((leading + ".").splitlines())
    header = None
    if lines and lines[0].startswith("{"):
        body, parse = lines, dynamics._jsonl_columns
    else:
        header = lines[0].split(",") if lines else []
        n = sum(1 for name in header if name.startswith("X_"))
        body, first = lines[1:], first + 1
        parse = functools.partial(dynamics._csv_columns, n=n)
    if not body:
        raise GameError(f"trace file {path} contains no records")
    trace = Trace(*dynamics._parse_located(parse, body, path, first))
    if header is not None and header != dynamics._csv_names(trace.n):
        raise GameError(f"{path}:{first - 1}: the CSV header is not K,"
                        f"{','.join(dynamics._WIRE_SCALARS)},X_1..X_n,Xbar_1..Xbar_n")
    dynamics._check_records(trace, path, first)
    return trace


def outcome(read, path):
    """The columns' bits and shape, or the GameError's message."""
    try:
        trace = read(path)
    except GameError as exc:
        return str(exc)
    return (trace.steps.tobytes(), np.ascontiguousarray(trace.table).tobytes(),
            trace.table.shape)


def base_text(tmp_path, fmt):
    trace = run_trajectory(generate_game("random_uniform", 3, 1), uniform_strategy(3),
                           DEFAULT_SCHEDULE, 12, emit_every=1)
    path = tmp_path / f"base.{fmt}"
    getattr(trace, f"to_{fmt}")(path)
    return path.read_text()


def malformed(fmt, line):
    """The bad records of test_dynamics' malformed-records test, made from
    the last record."""
    if fmt == "csv":
        fields = line.split(",")
        return {"truncated": line.rsplit(",", 1)[0],
                "unparsable": line.replace(",", ",x", 1),
                "short": "3,0.5", "long": line + ",0.25",
                "K 3.5": ",".join(["3.5"] + fields[1:]),
                "K 1e3": ",".join(["1e3"] + fields[1:]),
                "nan": line.rsplit(",", 1)[0] + ",nan",
                "inf X": ",".join(fields[:7] + ["inf"] + fields[8:])}
    record = json.loads(line)
    return {"truncated": line[:-10], "blank": "",
            "narrow": json.dumps({**record, "Xbar": record["Xbar"][:2]}),
            "wide X": json.dumps({**record, "X": record["X"] + [0.0]}),
            "K 3.5": json.dumps({**record, "K": 3.5}),
            "K 1e3": '{"K": 1e3' + line[len(f'{{"K": {record["K"]}'):],
            "nan": json.dumps({**record, "Xbar": [math.nan] * 3}),
            "huge": json.dumps({**record, "X": [10 ** 400] + record["X"][1:]})}


def narrowed(line):
    record = json.loads(line)
    return json.dumps({**record, "X": record["X"][1:], "Xbar": record["Xbar"][1:]})


def cases(fmt, text):
    """(name, file text) pairs; the names of JSONL width changes start with
    'width'."""
    lines = text.splitlines()
    yield "plain", text
    yield "blank lines and spaces around", "\n \n\t  \n   " + text + "  \n\n \t\n  "
    yield "spaces on every line", "\n".join(f"  {line}  " for line in lines) + "\n"
    yield "CRLF", text.replace("\n", "\r\n")
    yield "lone CR", text.replace("\n", "\r")
    yield "CR and CRLF", "\r\n".join(lines[:3]) + "\r" + "\r\n\r".join(lines[3:]) + "\n\r"
    for sep in ("\v", "\f", "\x1c", "\x85", "\u2028", "\x1d\x1e", "\u2029"):
        yield f"separator {sep!r}", sep.join(lines) + sep
        yield f"separator {sep!r} around", sep * 3 + sep.join(lines) + sep * 2
    yield "spaces after the last line", text[:-1] + "\xa0\u3000\x1f\t"
    yield "blank run, then a bad record", "\n" * 150 + "\n".join(
        lines[:6] + [lines[6][:-7] + "x"] + lines[7:]) + "\n"
    yield "NBSP and ideographic space around", "\xa0\n\u3000" + text + "\xa0\n\u3000"
    yield "BOM", "\ufeff" + text
    yield "empty", ""
    yield "whitespace only", " \n\n\t\r\n\x85"
    yield "interior blank line", "\n".join(lines[:4] + [""] + lines[4:]) + "\n"
    yield "interior spaces", "\n".join(lines[:4] + ["   "] + lines[4:]) + "\n"
    yield "interior blank run", "\n".join(lines[:4] + [" "] * 40 + lines[4:]) + "\n"
    yield "out of order", "\n".join(lines[:5] + [lines[7]] + lines[5:]) + "\n"
    for name, bad in malformed(fmt, lines[-1]).items():
        yield name, "\n".join(lines[:-1] + [bad, lines[-1]]) + "\n"
    if fmt == "csv":
        yield "header only", lines[0] + "\n"
        yield "header only, no line end", lines[0]
        yield "bad header", "\n".join(["K,a" + lines[0][7:]] + lines[1:]) + "\n"
    else:
        for k in (1, 5, len(lines) - 1):
            yield f"width change at line {k + 1}", "\n".join(
                lines[:k] + [narrowed(lines[k])] + lines[k + 1:]) + "\n"
            yield f"width change from line {k + 1}", "\n".join(
                lines[:k] + [narrowed(line) for line in lines[k:]]) + "\n"


@pytest.mark.parametrize("block", [1, 7, 64, dynamics._READ_BLOCK])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_blocks_read_as_the_whole_file(tmp_path, monkeypatch, fmt, block):
    monkeypatch.setattr(dynamics, "_READ_BLOCK", block)
    path = tmp_path / f"trace.{fmt}"
    for name, text in cases(fmt, base_text(tmp_path, fmt)):
        path.write_bytes(text.encode())
        want, got = outcome(whole_file_read, path), outcome(Trace.from_file, path)
        if name.startswith("width") and block < len(text):
            # a record whose width differs from an earlier block's fails
            # alone, with its own error: the same line, a message that
            # names the width
            location = rf"{re.escape(str(path))}:\d+: unreadable trace record \("
            assert re.match(location, want)[0] == re.match(location, got)[0], name
        else:
            assert got == want, name


@pytest.mark.parametrize("block", [7, dynamics._READ_BLOCK])
def test_width_change_past_the_first_block_names_the_width(tmp_path, monkeypatch, block):
    monkeypatch.setattr(dynamics, "_READ_BLOCK", block)
    lines = base_text(tmp_path, "jsonl").splitlines()
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines[:6] + [narrowed(line) for line in lines[6:]]) + "\n")
    with pytest.raises(GameError) as info:
        Trace.from_file(path)
    if block == 7:
        assert str(info.value) == (f"{path}:7: unreadable trace record "
                                   "(X and Xbar hold 2 numbers, expected 3)")
    else:   # one block, parsed in one piece as before
        assert str(info.value).startswith(f"{path}:7: unreadable trace record (")
        assert "inhomogeneous shape" in str(info.value)


def test_non_utf8_trace_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xff" + base_text(tmp_path, "jsonl").encode())
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize("block", [1, 7, 64, dynamics._READ_BLOCK])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_first_bad_line_wins_over_a_later_bad_byte(tmp_path, monkeypatch, fmt, block):
    monkeypatch.setattr(dynamics, "_READ_BLOCK", block)
    lines = base_text(tmp_path, fmt).encode().splitlines()
    path = tmp_path / f"trace.{fmt}"
    # a truncated UTF-8 sequence in the record on file line 10, after two
    # blank lines
    lines[7] = lines[7][:20] + b"\xe2\x80" + lines[7][20:]
    path.write_bytes(b"\n \n" + b"\n".join(lines) + b"\n")
    with pytest.raises(GameError, match=re.escape(f"{path}:10: not UTF-8 text (byte 0xe2)")):
        Trace.from_file(path)
    # an unreadable record before it is named instead
    lines[4] = lines[4].replace(b",", b",x,", 1)
    path.write_bytes(b"\n \n" + b"\n".join(lines) + b"\n")
    with pytest.raises(GameError, match=re.escape(f"{path}:7: unreadable trace record")):
        Trace.from_file(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_read_holds_the_table_and_one_block(tmp_path, fmt):
    # 20,000 records at n = 16: a 5.9 MB table from a 16 MB (CSV) or 18 MB
    # (JSONL) file; the whole-file reader peaked at 8-9 times the table
    path = tmp_path / f"trace.{fmt}"
    trace = run_trajectory(generate_game("random_uniform", 16, 0), uniform_strategy(16),
                           DEFAULT_SCHEDULE, 19_999, emit_every=1)
    getattr(trace, f"to_{fmt}")(path)
    tracemalloc.start()
    try:
        loaded = Trace.from_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.table, trace.table)
    assert np.array_equal(loaded.steps, trace.steps)
    assert peak <= 2.5 * loaded.table.nbytes + 4 * 2 ** 20
