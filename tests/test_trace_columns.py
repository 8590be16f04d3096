"""The columnar Trace: the template JSONL encoder against json.dumps, n and
x0 read from the table, the checks a file trace must pass, the derived
records, the vectorised trajectory identities against their per-record
loop and on file traces, and extract --trace on mutated trace files."""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgenash import (
    DEFAULT_SCHEDULE,
    GAME_KINDS,
    GameError,
    Trace,
    TraceRecord,
    diagnose_trajectory_identities,
    generate_game,
    parse_schedule,
    run_trajectory,
    uniform_strategy,
    validate_game,
)
from hedgenash.cli import main
from hedgenash.dynamics import _WIRE_SCALARS, ACCUMULATED_TOL, TRAJECTORY_CHECKS
from hedgenash.rng import Xoshiro256StarStar

GAME = "random_uniform:4:1"


def json_reference(trace) -> str:
    """The per-record json.dumps writer the template replaced."""
    return "".join(json.dumps({
        "K": r.step, "alpha": r.alpha, "A_K": r.weight_sum, "gap_avg": r.gap_avg,
        "gap_iter": r.gap_iter, "avg_step_norm": r.avg_step_norm,
        "X": r.x.tolist(), "Xbar": r.xbar.tolist()}) + "\n" for r in trace.records)


def write(trace, tmp_path, fmt):
    path = tmp_path / f"trace.{fmt}"
    getattr(trace, f"to_{fmt}")(path)
    return path


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
def test_jsonl_template_matches_json_dumps(tmp_path, n):
    for kind in GAME_KINDS:
        trace = run_trajectory(generate_game(kind, n, 2), uniform_strategy(n),
                               DEFAULT_SCHEDULE, 600, emit_every=7)
        assert write(trace, tmp_path, "jsonl").read_text() == json_reference(trace)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_n_and_x0_are_read_from_the_table(tmp_path, fmt):
    x0 = Xoshiro256StarStar(3).interior_point(5)
    trace = run_trajectory(generate_game("doubly_symmetric", 5, 2), x0,
                           DEFAULT_SCHEDULE, 50, emit_every=7)
    assert trace.n == 5 and np.array_equal(trace.x0, x0)
    assert np.shares_memory(trace.x0, trace.table)
    back = Trace.from_file(write(trace, tmp_path, fmt))
    assert back.n == 5 and np.array_equal(back.x0, x0)


def test_records_are_derived_views(tmp_path):
    trace = run_trajectory(generate_game("zero_sum_symmetric", 5, 0), uniform_strategy(5),
                           DEFAULT_SCHEDULE, 300, emit_every=10)
    records = trace.records
    assert trace.records is records and len(records) == len(trace.steps) == 31
    assert all(type(r) is TraceRecord for r in records)
    assert [r.step for r in records] == list(range(0, 301, 10))
    assert all(r.x.base is not None for r in records)          # views, not copies
    assert np.shares_memory(records[-1].xbar, trace.table)
    final = trace.final
    for name in ("step", "alpha", "weight_sum", "gap_avg", "gap_iter",
                 "avg_step_norm", "avg_self_play"):
        assert getattr(final, name) == getattr(records[-1], name)
        assert type(getattr(final, name)) is type(getattr(records[-1], name))
    for name in ("x", "xbar"):
        assert np.array_equal(getattr(final, name), getattr(records[-1], name))
    back = Trace.from_file(write(trace, tmp_path, "csv"))
    assert back.records[0].avg_self_play is None and back.final.avg_self_play is None


# ---------------------------------------------------------------------------
# File trace checks
# ---------------------------------------------------------------------------

def rewrite(path, fmt, edit):
    """Apply edit to the record lines of a trace file, keeping a CSV header."""
    lines = path.read_text().splitlines()
    head, body = (lines[:1], lines[1:]) if fmt == "csv" else ([], lines)
    path.write_text("\n".join(head + edit(body)) + "\n")
    return len(head) + 1        # the line number of the first record


def scaled_x(fmt, line, factor, side=0):
    """line with its X (side 0) or Xbar (side 1) scaled by factor."""
    if fmt == "jsonl":
        record = json.loads(line)
        key = ("X", "Xbar")[side]
        return json.dumps({**record, key: [v * factor for v in record[key]]})
    fields = line.split(",")
    n = (len(fields) - 6) // 2
    lo = 6 + side * n
    fields[lo:lo + n] = [repr(float(v) * factor) for v in fields[lo:lo + n]]
    return ",".join(fields)


def negated_first(fmt, line):
    if fmt == "jsonl":
        record = json.loads(line)
        record["Xbar"][0] *= -1
        record["Xbar"][1] -= 2 * record["Xbar"][0]     # the sum stays 1
        return json.dumps(record)
    fields = line.split(",")
    n = (len(fields) - 6) // 2
    a, b = float(fields[6 + n]), float(fields[7 + n])
    fields[6 + n], fields[7 + n] = repr(-a), repr(b + 2 * a)
    return ",".join(fields)


@pytest.fixture(params=["csv", "jsonl"])
def trace_file(request, tmp_path):
    trace = run_trajectory(generate_game("random_uniform", 4, 1), uniform_strategy(4),
                           DEFAULT_SCHEDULE, 60, emit_every=3)
    return request.param, write(trace, tmp_path, request.param)


@pytest.mark.parametrize("case, edit, offset, message", [
    ("reversed", lambda b, f: b[::-1], 1, "K = 57 after K = 60"),
    ("duplicate", lambda b, f: b[:5] + b[4:], 5, "K = 12 after K = 12"),
    ("swapped", lambda b, f: b[:3] + [b[4], b[3]] + b[5:], 4, "K = 9 after K = 12"),
    ("X off 1", lambda b, f: b[:6] + [scaled_x(f, b[6], 1.00001)] + b[7:], 6,
     "X is not a probability vector"),
    ("Xbar off 1", lambda b, f: b[:6] + [scaled_x(f, b[6], 0.99999, 1)] + b[7:], 6,
     "Xbar is not a probability vector"),
    ("negative", lambda b, f: b[:9] + [negated_first(f, b[9])] + b[10:], 9,
     "Xbar is not a probability vector (min -"),
])
def test_bad_file_trace_names_first_offending_line(trace_file, capsys, case, edit,
                                                   offset, message):
    fmt, path = trace_file
    first = rewrite(path, fmt, lambda body: edit(body, fmt))
    with pytest.raises(GameError, match=re.escape(f"{path}:{first + offset}: {message}")):
        Trace.from_file(path)
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}:{first + offset}: ")


def with_scalar(fmt, line, column, value):
    """line with its scalar field ``column`` set to value."""
    if fmt == "jsonl":
        return json.dumps({**json.loads(line), column: value})
    fields = line.split(",")
    fields[1 + _WIRE_SCALARS.index(column)] = repr(value)
    return ",".join(fields)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["alpha", "gap_avg", "avg_step_norm"])
def test_non_finite_scalar_names_its_line(trace_file, capsys, column, value):
    # json.dumps writes NaN, Infinity or -Infinity, which json reads back
    fmt, path = trace_file
    first = rewrite(path, fmt, lambda body: body[:7] + [
        with_scalar(fmt, body[7], column, value)] + body[8:])
    with pytest.raises(GameError, match=re.escape(f"{path}:{first + 7}: record has a "
                                                  "non-finite value")):
        Trace.from_file(path)
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}:{first + 7}: ")


def garbled(fmt, line):
    """line broken so that it fails alone: cut short, or given a word field."""
    return line[:-7] if fmt == "jsonl" else line.replace(",", ",x,", 1)


def narrowed(fmt, line):
    """line with X and Xbar one entry short: only a JSON line parses so alone."""
    if fmt == "csv":
        return line.rsplit(",", 2)[0]
    record = json.loads(line)
    return json.dumps({**record, "X": record["X"][1:], "Xbar": record["Xbar"][1:]})


@pytest.mark.parametrize("edit, own_error", [
    (garbled, {"csv": "could not convert string 'x'",
               "jsonl": "Expecting ',' delimiter: line 1 column "}),
    (narrowed, {"csv": "fields, expected 14", "jsonl": "inhomogeneous shape"}),
])
def test_error_names_file_line_after_leading_blank_lines(trace_file, edit, own_error):
    # lines are numbered from the file, not from its stripped text, and a
    # line that fails alone is quoted with its own error, whose positions
    # are within that line; a JSON line that is only too narrow for the
    # records before it keeps the error of the prefix that failed
    fmt, path = trace_file
    lines = path.read_text().splitlines()
    bad = 4 if fmt == "jsonl" else 5               # the record on file line 7 or 8
    lines[bad] = edit(fmt, lines[bad])
    path.write_text("\n\n" + "\n".join(lines) + "\n")
    with pytest.raises(GameError) as info:
        Trace.from_file(path)
    assert str(info.value).startswith(f"{path}:{bad + 3}: unreadable trace record (")
    assert own_error[fmt] in str(info.value)
    if own_error[fmt].startswith("Expecting"):
        column = int(re.search(r"column (\d+)", str(info.value))[1])
        # a position in the line as its chunk brackets it, or just past its end
        assert column <= len(f"[{lines[bad]}]") + 1


@pytest.mark.parametrize("fmt, text, line", [
    ("csv", "K,alpha,A_K,gap_avg,gap_iter,avg_step_norm\n0,1,1,0,0,0\n1,1,2,0,0,0\n", 2),
    ("jsonl", '{"K": 0, "alpha": 1, "A_K": 1, "gap_avg": 0, "gap_iter": 0, '
              '"avg_step_norm": 0, "X": [], "Xbar": []}\n', 1),
])
def test_zero_width_trace_names_its_line(tmp_path, capsys, fmt, text, line):
    # a CSV header without X_ columns, or a JSON line with empty X and Xbar
    path = tmp_path / f"trace.{fmt}"
    path.write_text(text)
    message = f"{path}:{line}: X is not a probability vector (no entries)"
    with pytest.raises(GameError, match=re.escape(message)):
        Trace.from_file(path)
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_sum_within_tolerance_is_accepted(trace_file):
    fmt, path = trace_file
    rewrite(path, fmt, lambda body: body[:6] + [scaled_x(fmt, body[6], 1 + 5e-7)] + body[7:])
    assert len(Trace.from_file(path).steps) == 21


def test_trace_without_step_zero_has_no_start(trace_file, capsys):
    # extraction reads only the final record, so it needs no X^0
    fmt, path = trace_file
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 0
    full = capsys.readouterr()
    rewrite(path, fmt, lambda body: body[1:])
    trace = Trace.from_file(path)
    assert trace.x0 is None and trace.n == 4 and trace.steps[0] == 3
    assert main(["extract", "--game", GAME, "--trace", str(path)]) == 0
    assert capsys.readouterr() == full
    # every identity needs X^0, so the report holds none
    game = generate_game("random_uniform", 4, 1)
    assert diagnose_trajectory_identities(game, trace).checks == []


# ---------------------------------------------------------------------------
# Trajectory identities against the per-record loop
# ---------------------------------------------------------------------------

def identities_loop(game, trace, checks):
    """The per-record evaluation, one step back from each record K >= 1:
    Xbar^{K-1} and the self-play average to K - 1 recovered from record K."""
    c = game.payoff
    log_c0 = math.log(trace.x0.min() / trace.x0.max())
    viol = dict.fromkeys(checks, 0.0)
    later = [r for r in trace.records if r.step > 0]
    for r in later:
        a_prev = r.weight_sum - r.alpha
        cxbar = c @ ((r.weight_sum * r.xbar - r.alpha * r.x) / a_prev)
        log_x = np.log(r.x)
        if "log_ratio_identity" in checks:
            d = log_x / a_prev - cxbar
            viol["log_ratio_identity"] = max(viol["log_ratio_identity"],
                                             float(d.max() - d.min()))
        if "payoff_floor_bound" in checks:
            floor = (log_c0 + log_x) / a_prev
            gap_to_max = cxbar - cxbar.max()
            viol["payoff_floor_bound"] = max(viol["payoff_floor_bound"],
                                             float(np.max(floor - gap_to_max)))
        if "self_play_bound" in checks:
            xcx = float(r.x @ (c @ r.x))
            self_play = (r.weight_sum * r.avg_self_play - r.alpha * xcx) / a_prev
            viol["self_play_bound"] = max(viol["self_play_bound"],
                                          self_play - float(r.x @ cxbar))
        if "log_growth_bound" in checks:
            growth = (log_x - np.log(trace.x0)) / a_prev - cxbar
            viol["log_growth_bound"] = max(viol["log_growth_bound"],
                                           float(growth.max()) + self_play)
    return [(name, len(later), viol[name], ACCUMULATED_TOL) for name in checks]


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("kind", GAME_KINDS)
def test_identities_match_per_record_loop(kind, n):
    game = generate_game(kind, n, 3)
    starts = {"uniform": (uniform_strategy(n), TRAJECTORY_CHECKS),
              "random": (Xoshiro256StarStar(n).interior_point(n), TRAJECTORY_CHECKS[1:])}
    for x0, checks in starts.values():
        for emit_every in (1, 7, 1000):
            trace = run_trajectory(game, x0, DEFAULT_SCHEDULE, 1500, emit_every=emit_every)
            report = diagnose_trajectory_identities(game, trace)
            got = [(c.name, c.samples, c.max_violation, c.tolerance) for c in report.checks]
            assert got == identities_loop(game, trace, checks)
            assert all(type(c.max_violation) is float for c in report.checks)


@pytest.mark.parametrize("spec", ["power:0.6666666666666666", "harmonic",
                                  "constant:0.3", "power:0.4", "constant:5"])
def test_log_growth_bound_holds_under_each_schedule(spec):
    # the bound holds along any run, forced schedules included
    for kind in GAME_KINDS:
        for n in (2, 8):
            game = generate_game(kind, n, 1)
            for x0 in (uniform_strategy(n), Xoshiro256StarStar(n).interior_point(n)):
                trace = run_trajectory(game, x0, parse_schedule(spec), 2000,
                                       emit_every=1, force=True)
                growth = diagnose_trajectory_identities(game, trace).checks[-1]
                assert growth.name == "log_growth_bound" and growth.passed


def test_raised_self_play_fails_log_growth_bound():
    # the uniform start is a rest point of the coordination game, where the
    # bound holds with equality
    game = generate_game("coordination", 4, 0)
    trace = run_trajectory(game, uniform_strategy(4), DEFAULT_SCHEDULE, 600,
                           emit_every=1)
    assert diagnose_trajectory_identities(game, trace).all_passed
    trace.avg_self_play[300] += 1e-6
    checks = {c.name: c for c in diagnose_trajectory_identities(game, trace).checks}
    assert not checks["log_growth_bound"].passed
    assert checks["log_ratio_identity"].passed and checks["payoff_floor_bound"].passed


WIRE_CHECKS = ("log_ratio_identity", "payoff_floor_bound")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("kind", GAME_KINDS)
def test_file_trace_identities_match_memory(tmp_path, kind, fmt):
    for n in (3, 8):
        game = generate_game(kind, n, 5)
        trace = run_trajectory(game, uniform_strategy(n), DEFAULT_SCHEDULE, 600,
                               emit_every=1)
        want = diagnose_trajectory_identities(game, trace).to_dict()["checks"][:2]
        back = Trace.from_file(write(trace, tmp_path, fmt))
        assert diagnose_trajectory_identities(game, back).to_dict() == {
            "all_passed": True, "checks": want}
        assert want[0]["samples"] == 600


def nudged(fmt, line, delta):
    """line with delta moved from its X_2 to its X_1: the sum stays 1."""
    if fmt == "jsonl":
        record = json.loads(line)
        record["X"][0] += delta
        record["X"][1] -= delta
        return json.dumps(record)
    fields = line.split(",")
    fields[6] = repr(float(fields[6]) + delta)
    fields[7] = repr(float(fields[7]) - delta)
    return ",".join(fields)


def test_nudged_iterate_fails_log_ratio_check(trace_file):
    fmt, path = trace_file
    game = generate_game("random_uniform", 4, 1)
    before = diagnose_trajectory_identities(game, Trace.from_file(path))
    assert before.all_passed
    rewrite(path, fmt, lambda body: body[:10] + [nudged(fmt, body[10], 1e-6)] + body[11:])
    log_ratio = diagnose_trajectory_identities(game, Trace.from_file(path)).checks[0]
    assert log_ratio.name == "log_ratio_identity" and not log_ratio.passed


def test_underflowed_iterate_left_out_of_log_checks(tmp_path):
    # strategy 1 loses 5 per step: its mass is below the smallest normal
    # float from about step 142 and 0 on the wire from about step 149
    game = validate_game([[1.0, 1.0], [0.0, 0.0]])
    trace = run_trajectory(game, uniform_strategy(2), parse_schedule("constant:5"), 200,
                           emit_every=1, force=True)
    assert trace.table[-1, 6] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnose_trajectory_identities(game, trace)
        back = Trace.from_file(write(trace, tmp_path, "csv"))
        assert diagnose_trajectory_identities(game, back).checks == report.checks[:2]
    assert report.all_passed, report.to_dict()


def test_cancelled_weight_fails_the_identities(tmp_path):
    # A_1 = 1e-300 + 1 rounds to 1, so A_1 - alpha_1 is 0 and Xbar^0 cannot
    # be recovered from record 1: its checks read inf or NaN, never a pass.
    # A run refuses such rates, so the file is written by hand.
    path = tmp_path / "trace.csv"
    path.write_text("K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,Xbar_1,Xbar_2\n"
                    "0,1e-300,1e-300,0,0,0,0.5,0.5,0.5,0.5\n"
                    "1,1,1,0,0,0,0.25,0.75,0.25,0.75\n")
    game = generate_game("random_uniform", 2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnose_trajectory_identities(game, Trace.from_file(path))
    assert [c.max_violation for c in report.checks] == [math.inf] * 2


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_self_play_bound_needs_a_memory_trace(tmp_path, fmt):
    # a file trace reports the wire checks its start allows, and no self-play
    game = generate_game("random_uniform", 4, 1)
    starts = {"uniform": (uniform_strategy(4), list(WIRE_CHECKS)),
              "random": (Xoshiro256StarStar(4).interior_point(4), ["payoff_floor_bound"])}
    for x0, names in starts.values():
        trace = run_trajectory(game, x0, DEFAULT_SCHEDULE, 60, emit_every=3)
        report = diagnose_trajectory_identities(game, Trace.from_file(
            write(trace, tmp_path, fmt)))
        assert [c.name for c in report.checks] == names and report.all_passed


# ---------------------------------------------------------------------------
# extract --trace on mutated files
# ---------------------------------------------------------------------------

TOKENS = ["", "x", "nan", "inf", "-inf", "-1", "0", "2", "-0.0", "1e308", "1e-320",
          "3.5", "1e3", "null", "true", "[]", '"s"', "99999999999999999999999"]


@pytest.fixture(scope="module")
def base_traces(tmp_path_factory):
    trace = run_trajectory(generate_game("random_uniform", 4, 1), uniform_strategy(4),
                           DEFAULT_SCHEDULE, 60, emit_every=3)
    root = tmp_path_factory.mktemp("fuzz")
    return root, {fmt: write(trace, root, fmt).read_text() for fmt in ("csv", "jsonl")}


def corrupt_field(fmt, line, pick, token):
    """line with one field replaced by token: a CSV field, or a JSON number."""
    if fmt == "csv":
        fields = line.split(",")
        fields[pick % len(fields)] = token
        return ",".join(fields)
    spans = [m.span() for m in re.finditer(r"-?\d[\d.eE+-]*", line)]
    lo, hi = spans[pick % len(spans)]
    return line[:lo] + token + line[hi:]


mutations = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 30)),
    st.tuples(st.just("duplicate"), st.integers(0, 30)),
    st.tuples(st.just("swap"), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.just("field"), st.integers(0, 30), st.integers(0, 40),
              st.sampled_from(TOKENS)),
    st.tuples(st.just("truncate"), st.integers(0, 4000)))


def mutate(text, mutation):
    lines = text.splitlines()
    kind, *args = mutation
    if kind == "truncate":
        return text[:args[0] % (len(text) + 1)]
    i = args[0] % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = args[1] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["csv", "jsonl"]), mutation=mutations)
def test_extract_on_mutated_trace_exits_cleanly(base_traces, fmt, mutation):
    root, texts = base_traces
    text = texts[fmt]
    if mutation[0] == "field":
        _, line, pick, token = mutation
        lines = text.splitlines()
        i = line % len(lines)
        lines[i] = corrupt_field(fmt, lines[i], pick, token)
        text = "\n".join(lines) + "\n"
    else:
        text = mutate(text, mutation)
    path = root / f"mutated.{fmt}"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["extract", "--game", GAME, "--trace", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == "" and "certificate" in json.loads(out.getvalue())
