"""The block-evaluated trajectory and the columnar trace codecs against the
step-by-step loop, the per-record writers and the line parser they replaced,
kept here as references. Records must agree bit for bit, written traces byte
for byte, and a malformed file must fail at the same line."""

import json
import math
import re

import numpy as np
import pytest

import hedgenash.dynamics as dynamics
from hedgenash import (
    GAME_KINDS,
    GameError,
    generate_game,
    uniform_strategy,
    validate_game,
)
from hedgenash.dynamics import (
    DEFAULT_SCHEDULE,
    Trace,
    TraceRecord,
    parse_schedule,
    run_trajectory,
)
from hedgenash.game import as_strategy

FIELDS = ("step", "alpha", "weight_sum", "gap_avg", "gap_iter", "avg_step_norm",
          "x", "xbar", "avg_self_play")


def reference_records(game, x0, schedule, k_max):
    """The step-by-step loop, emitting every step. A record at step K does
    not depend on emit_every, so other emissions are a filter of these."""
    c = game.payoff
    alphas = schedule.rates(k_max + 1)
    logits = np.log(x0)
    x = as_strategy(x0).copy()
    accum = np.zeros_like(x)
    weight = 0.0
    self_play_sum = 0.0
    records = []
    for k in range(k_max + 1):
        alpha = alphas[k]
        cx = np.dot(c, x)
        xcx = np.dot(x, cx)
        weight += alpha
        accum += alpha * x
        self_play_sum += alpha * xcx
        logits += alpha * cx
        shifted = logits - logits.max()
        w = np.exp(shifted)
        wsum = w.sum()
        xbar = accum / weight
        cxbar = np.dot(c, xbar)
        if k == 0:
            step_norm = 0.0
        else:
            xbar_prev = (accum - alpha * x) / (weight - alpha)
            step_norm = float(np.linalg.norm(xbar - xbar_prev))
        records.append(TraceRecord(
            step=k, alpha=float(alpha), weight_sum=weight,
            gap_avg=float(cxbar.max() - np.dot(xbar, cxbar)),
            gap_iter=float(cx.max() - xcx), avg_step_norm=step_norm,
            x=x.copy(), xbar=xbar, avg_self_play=self_play_sum / weight))
        x = w / wsum
    return records


def emitted(records, emit_every):
    k_max = records[-1].step
    return [r for r in records if r.step % emit_every == 0 or r.step == k_max]


def reference_csv(records, n) -> str:
    xs = ",".join(f"X_{i + 1}" for i in range(n))
    xbars = ",".join(f"Xbar_{i + 1}" for i in range(n))
    lines = [f"K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,{xs},{xbars}"]
    for r in records:
        fields = [str(r.step)] + [
            f"{v:.17g}" for v in (r.alpha, r.weight_sum, r.gap_avg,
                                  r.gap_iter, r.avg_step_norm)
        ] + [f"{v:.17g}" for v in r.x] + [f"{v:.17g}" for v in r.xbar]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def reference_jsonl(records) -> str:
    return "".join(json.dumps({
        "K": r.step, "alpha": r.alpha, "A_K": r.weight_sum, "gap_avg": r.gap_avg,
        "gap_iter": r.gap_iter, "avg_step_norm": r.avg_step_norm,
        "X": [float(v) for v in r.x], "Xbar": [float(v) for v in r.xbar],
    }) + "\n" for r in records)


def reference_read(path):
    """The line-by-line parser: (n, records), or GameError naming the line."""
    lines = path.read_text().strip().splitlines()
    jsonl = bool(lines) and lines[0].startswith("{")
    if jsonl:
        n, first = None, 1
    else:
        header = lines[0].split(",") if lines else []
        n = sum(1 for name in header if name.startswith("X_"))
        lines, first = lines[1:], 2
    records = []
    for lineno, line in enumerate(lines, start=first):
        try:
            if jsonl:
                row = json.loads(line)
                record = TraceRecord(
                    step=int(row["K"]), alpha=row["alpha"], weight_sum=row["A_K"],
                    gap_avg=row["gap_avg"], gap_iter=row["gap_iter"],
                    avg_step_norm=row["avg_step_norm"],
                    x=np.array(row["X"], dtype=float),
                    xbar=np.array(row["Xbar"], dtype=float))
            else:
                vals = line.split(",")
                record = TraceRecord(
                    step=int(vals[0]), alpha=float(vals[1]), weight_sum=float(vals[2]),
                    gap_avg=float(vals[3]), gap_iter=float(vals[4]),
                    avg_step_norm=float(vals[5]),
                    x=np.array([float(v) for v in vals[6:6 + n]]),
                    xbar=np.array([float(v) for v in vals[6 + n:]]))
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise GameError(f"{path}:{lineno}: unreadable ({exc})") from None
        n = record.x.size if n is None else n
        if record.x.size != n or record.xbar.size != n:
            raise GameError(f"{path}:{lineno}: width")
        records.append(record)
    if not records:
        raise GameError(f"trace file {path} contains no records")
    finite = (np.isfinite([r.x for r in records]).all(axis=1)
              & np.isfinite([r.xbar for r in records]).all(axis=1))
    if not finite.all():
        raise GameError(f"{path}:{first + int(np.argmin(finite))}: non-finite")
    return n, records


def bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def assert_same_records(got, want, fields=FIELDS):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in fields:
            assert bits(getattr(g, name)) == bits(getattr(w, name)), (name, w.step)


def assert_matches_reference(trace, reference, tmp_path):
    assert_same_records(trace.records, reference)
    texts = {"csv": reference_csv(reference, trace.n), "jsonl": reference_jsonl(reference)}
    for fmt, text in texts.items():
        path = tmp_path / f"trace.{fmt}"
        getattr(trace, f"to_{fmt}")(path)
        assert path.read_bytes() == text.encode()
        back = Trace.from_file(path)
        n, want = reference_read(path)
        assert back.n == n
        assert_same_records(back.records, want, FIELDS[:8])


@pytest.mark.parametrize("k_max", [127, 128])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("kind", GAME_KINDS)
def test_matches_reference_across_blocks(tmp_path, monkeypatch, kind, n, k_max):
    # 64-step blocks: k_max = 127 ends on a block boundary, 128 one step past it
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 64)
    game = generate_game(kind, n, 5)
    x0 = np.random.default_rng(n).dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    reference = reference_records(game, x0, DEFAULT_SCHEDULE, k_max)
    for emit_every in (1, 7, 1000, k_max, k_max + 1, 2 ** 70):
        trace = run_trajectory(game, x0, DEFAULT_SCHEDULE, k_max, emit_every=emit_every)
        assert_matches_reference(trace, emitted(reference, emit_every), tmp_path)


BLOCK = dynamics._BLOCK_STEPS


@pytest.mark.parametrize("spec, k_max, emit_every", [
    ("power:0.6666666666666666", BLOCK - 1, 1), ("power:0.6666666666666666", BLOCK, 1),
    ("power:0.6666666666666666", 3 * BLOCK + 1, BLOCK), ("harmonic", 2000, 1),
    ("power:0.7", 2000, 7)])
def test_matches_reference_at_full_block_size(tmp_path, spec, k_max, emit_every):
    game = generate_game("random_uniform", 8, 3)
    schedule = parse_schedule(spec)
    trace = run_trajectory(game, uniform_strategy(8), schedule, k_max,
                           emit_every=emit_every)
    reference = reference_records(game, uniform_strategy(8), schedule, k_max)
    assert_matches_reference(trace, emitted(reference, emit_every), tmp_path)


def corruptions(fmt, line):
    """Ways to break one trace line."""
    if fmt == "csv":
        fields = line.split(",")
        return {"short": ",".join(fields[:-1]), "long": line + ",0.5",
                "few": ",".join(fields[:4]), "blank": "",
                "word": ",".join(fields[:3] + ["x"] + fields[4:]),
                "K float": ",".join(["3.5"] + fields[1:]),
                "K exponent": ",".join(["1e3"] + fields[1:]),
                "nan X": ",".join(fields[:7] + ["nan"] + fields[8:]),
                "inf Xbar": ",".join(fields[:-1] + ["inf"])}
    record = json.loads(line)
    return {"truncated": line[:-7], "blank": "", "two": line + " " + line,
            "list": "[1, 2]", "no K": json.dumps({k: v for k, v in record.items()
                                                  if k != "K"}),
            "narrow X": json.dumps({**record, "X": record["X"][:-1]}),
            "wide Xbar": json.dumps({**record, "Xbar": record["Xbar"] + [0.1]}),
            "NaN X": json.dumps({**record, "X": [math.nan] + record["X"][1:]})}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_malformed_line_matches_reference(tmp_path, fmt):
    game = generate_game("zero_sum_symmetric", 4, 1)
    trace = run_trajectory(game, uniform_strategy(4), DEFAULT_SCHEDULE, 40, emit_every=3)
    path = tmp_path / f"trace.{fmt}"
    getattr(trace, f"to_{fmt}")(path)
    lines = path.read_text().splitlines()
    offset = 0 if fmt == "jsonl" else 1
    for index in (offset, offset + 1, len(lines) // 2, len(lines) - 1):
        for name, bad in corruptions(fmt, lines[index]).items():
            path.write_text("\n".join(lines[:index] + [bad] + lines[index + 1:]) + "\n")
            try:
                n, want = reference_read(path)
            except GameError as exc:
                line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))[1]
                with pytest.raises(GameError, match=re.escape(f"{path}:{line}: ")):
                    Trace.from_file(path)
            else:       # a blank first or last line is stripped by both
                assert_same_records(Trace.from_file(path).records, want, FIELDS[:8])


@pytest.mark.parametrize("n", [130, 300])
def test_matches_reference_with_cell_limited_blocks(tmp_path, n):
    # _BLOCK_CELLS // n steps per block: 504 at n = 130, 218 at n = 300
    block = dynamics._BLOCK_CELLS // n
    assert block < dynamics._BLOCK_STEPS
    game = generate_game("random_uniform", n, 1)
    x0 = np.random.default_rng(n).dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    reference = reference_records(game, x0, DEFAULT_SCHEDULE, 2 * block + 1)
    trace = run_trajectory(game, x0, DEFAULT_SCHEDULE, 2 * block + 1, emit_every=1)
    assert_same_records(trace.records, reference)
    trace = run_trajectory(game, x0, DEFAULT_SCHEDULE, 2 * block + 1, emit_every=9)
    assert_matches_reference(trace, emitted(reference, 9), tmp_path)


def test_matches_reference_on_tied_logits(tmp_path, monkeypatch):
    # strategies 0 and 1 are copies and the best replies, so from a uniform
    # start the two largest logits are equal at every step
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 64)
    payoff = np.random.default_rng(4).uniform(0.0, 0.5, size=(5, 5))
    payoff[1], payoff[:, 1] = payoff[0], payoff[:, 0]
    payoff[:2] += 0.5
    game = validate_game(payoff)
    reference = reference_records(game, uniform_strategy(5), DEFAULT_SCHEDULE, 150)
    assert all(r.x[0] == r.x[1] == r.x.max() for r in reference)
    trace = run_trajectory(game, uniform_strategy(5), DEFAULT_SCHEDULE, 150,
                           emit_every=1)
    assert_matches_reference(trace, reference, tmp_path)


@pytest.mark.parametrize("spec", ["constant:0.5", "power:1000"])
def test_matches_reference_forced(tmp_path, monkeypatch, spec):
    # power:1000 underflows to alpha_k = 0 from k = 2 on
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 64)
    game = generate_game("zero_sum_symmetric", 6, 2)
    schedule = parse_schedule(spec)
    reference = reference_records(game, uniform_strategy(6), schedule, 200)
    trace = run_trajectory(game, uniform_strategy(6), schedule, 200, emit_every=1,
                           force=True)
    assert not schedule.valid
    assert_matches_reference(trace, reference, tmp_path)


def test_early_records_survive_later_blocks(tmp_path, monkeypatch):
    # 5-step blocks: the step buffers are rewritten 20 times after the first
    # block's records are taken, and every record must still hold its own step
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 5)
    game = generate_game("doubly_symmetric", 4, 3)
    reference = reference_records(game, uniform_strategy(4), DEFAULT_SCHEDULE, 103)
    for emit_every in (1, 4):
        trace = run_trajectory(game, uniform_strategy(4), DEFAULT_SCHEDULE, 103,
                               emit_every=emit_every)
        assert_matches_reference(trace, emitted(reference, emit_every), tmp_path)


@pytest.mark.parametrize("block", [1, 64])
def test_malformed_jsonl_line_matches_reference_across_chunks(tmp_path, monkeypatch,
                                                             block):
    # JSON lines are parsed a block at a time: a bad line past the first
    # block, or a width that differs only from an earlier block's, must
    # still fail at the reference's line
    monkeypatch.setattr(dynamics, "_READ_BLOCK", block)
    test_malformed_line_matches_reference(tmp_path, "jsonl")
    path = tmp_path / "trace.jsonl"
    run_trajectory(generate_game("random_uniform", 4, 0), uniform_strategy(4),
                   DEFAULT_SCHEDULE, 30, emit_every=1).to_jsonl(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[6])
    lines[6] = json.dumps({**record, "X": record["X"][1:], "Xbar": record["Xbar"][1:]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GameError, match=re.escape(f"{path}:7: ")):
        Trace.from_file(path)
