"""run, verify and extract driven with malformed game specs, schedules,
start and strategy vectors, supports, tolerances, and tokens of any kind
for the integer flags: every call must end in exit 0 or 1, or exit 2 with
one line on stderr, and never in a traceback or a stray warning.

Generated games have n <= 6, or n past GENERATOR_MAX_N, where the spec is
refused before anything is drawn: a game of n strategies draws n^2 doubles,
so a large n within the limit would run for seconds."""

import contextlib
import io
import os
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hedgenash import GAME_KINDS
from hedgenash.cli import main
from hedgenash.game import GENERATOR_MAX_N

NUMBER_TOKENS = ["", " ", "x", "nan", "inf", "-inf", "0", "-0.0", "1", "-1", "2/3",
                 "0.5", "0.51", "0.7", "1.5", "1e-320", "1e308", "-1e308", "1e400",
                 "1_0", "0x10", "٣"]


def mostly(valid, malformed):
    """valid three times in four, so that most calls get past their first
    argument and a malformed one meets the checks after it."""
    return st.sampled_from([valid, valid, valid, malformed]).flatmap(lambda s: s)


numbers = st.one_of(st.sampled_from(NUMBER_TOKENS),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr))

game_specs = mostly(
    st.builds(lambda kind, n, seed: f"{kind}:{n}:{seed}", st.sampled_from(GAME_KINDS),
              mostly(st.integers(2, 6), st.integers(GENERATOR_MAX_N + 1, 2**70)),
              st.integers(-2**70, 2**70)),
    st.one_of(
        st.builds(lambda kind, n, tail: f"{kind}:{n}{tail}",
                  st.sampled_from(GAME_KINDS + ("bogus", "", "Random_uniform")),
                  st.one_of(st.integers(-3, 8).map(str),
                            st.sampled_from(["", "x", "2.5", "1e1", " 3", "٣", "-0"])),
                  st.sampled_from(["", ":", ":x", ":1.5", ":1:2"])),
        st.text(alphabet=st.characters(blacklist_characters="/"), max_size=12)))

# the schedule files are written by the fixture below
SCHEDULE_FILES = {"empty": "", "word": "1 x", "nan": "nan 1", "huge": "1e400",
                  "negative": "-1 2 3", "zeros": "1 0 0.5 " * 120,
                  "long": "0.5 " * 400, "overflowing": "1e308 " * 400}

schedules = mostly(
    st.one_of(st.none(), st.sampled_from(["harmonic", "file:{dir}/long"]),
              st.floats(0.5, 1.0, exclude_min=True).map(lambda p: f"power:{p!r}")),
    st.one_of(
        st.builds(lambda kind, p: f"{kind}:{p}", st.sampled_from(["power", "constant"]),
                  numbers),
        st.sampled_from(["harmonic:", "power", "file:", "file:missing.txt", "file:."]),
        st.sampled_from(sorted(SCHEDULE_FILES)).map(lambda name: f"file:{{dir}}/{name}"),
        st.text(max_size=10)))

vectors = mostly(
    st.sampled_from(["uniform", "random"]),
    st.one_of(
        st.sampled_from(["csv:", "csv:1", "bogus", "Uniform", "csv:0.5,0.5", "csv:1,0,0",
                         "csv:-1,1,1", "csv:1e-320,0.5,0.5"]),
        st.lists(numbers, max_size=6).map(lambda values: "csv:" + ",".join(values)),
        st.text(max_size=10)))

supports = mostly(
    st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
        lambda ks: ",".join(map(str, ks))),
    st.one_of(st.lists(st.integers(-3, 10), max_size=6).map(
        lambda ks: ",".join(map(str, ks))), st.text(max_size=8)))

tolerances = mostly(
    st.one_of(st.none(), st.floats(0.0, 1e-3).map(repr)),
    st.one_of(st.sampled_from(NUMBER_TOKENS + ["abc"]), st.floats().map(repr)))

# tokens for argparse's int(): numbers of every syntax, and words
untyped = st.one_of(st.sampled_from(NUMBER_TOKENS + ["abc", "1.0", "--", "-x"]),
                    st.text(max_size=6))


def int_flag(valid, malformed):
    """An integer flag's token: an integer, valid three times in four; else a
    malformed integer, or one time in sixteen a token that is no integer."""
    return mostly(valid.map(str), mostly(malformed.map(str), untyped))


steps = int_flag(st.integers(1, 300), st.integers(-2, 0))
emit_intervals = int_flag(st.integers(1, 400), st.sampled_from([-1, 0, 2**63, 10**30]))
seeds = int_flag(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))


@pytest.fixture(scope="module")
def schedule_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("schedules")
    for name, text in SCHEDULE_FILES.items():
        (root / name).write_text(text)
    return root


@contextlib.contextmanager
def tolerance_env(value):
    saved = os.environ.pop("HEDGE_NASH_TOL", None)
    if value is not None:
        os.environ["HEDGE_NASH_TOL"] = value
    try:
        yield
    finally:
        os.environ.pop("HEDGE_NASH_TOL", None)
        if saved is not None:
            os.environ["HEDGE_NASH_TOL"] = saved


def assert_clean_exit(argv, tol):
    out, err = io.StringIO(), io.StringIO()
    with tolerance_env(tol), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


def run_flags(schedule_dir, schedule, x0, k, emit_every, seed, force):
    flags = [f"--steps={k}", f"--emit-every={emit_every}", f"--seed={seed}", f"--x0={x0}"]
    if schedule is not None:
        flags.append("--schedule=" + schedule.replace("{dir}", str(schedule_dir)))
    return flags + ["--force"] * force


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(game=game_specs, schedule=schedules, x0=vectors, k=steps,
       emit_every=emit_intervals, seed=seeds, force=st.booleans(), tol=tolerances)
# rates that overflow, start entries whose sum overflows, an interval past int64,
# and argparse type errors
@example(game="random_uniform:3:0", schedule="power:-1e308", x0="uniform", k="5",
         emit_every="1", seed="0", force=True, tol=None)
@example(game="random_uniform:3:0", schedule=None, x0="csv:1e308,1e308,1e308", k="5",
         emit_every="1", seed="0", force=False, tol=None)
@example(game="random_uniform:3:0", schedule=None, x0="uniform", k="600",
         emit_every=str(2**63), seed="0", force=False, tol=None)
@example(game="random_uniform:3:0", schedule=None, x0="uniform", k="abc",
         emit_every="1.5", seed="x", force=False, tol=None)
def test_run_exits_cleanly(schedule_dir, tmp_path, game, schedule, x0, k, emit_every,
                           seed, force, tol):
    argv = ["run", f"--game={game}", f"--out={tmp_path / 'trace.csv'}",
            *run_flags(schedule_dir, schedule, x0, k, emit_every, seed, force)]
    assert_clean_exit(argv, tol)


@FUZZ
@given(game=game_specs, schedule=schedules, x0=vectors, k=steps,
       emit_every=emit_intervals, seed=seeds, force=st.booleans(), tol=tolerances)
def test_extract_exits_cleanly(schedule_dir, game, schedule, x0, k, emit_every, seed,
                               force, tol):
    argv = ["extract", f"--game={game}",
            *run_flags(schedule_dir, schedule, x0, k, emit_every, seed, force)]
    assert_clean_exit(argv, tol)


verify_inputs = mostly(
    st.one_of(vectors.map(lambda x: [f"--x={x}"]),
              supports.map(lambda s: [f"--support={s}"])),
    st.one_of(st.just([]), st.builds(lambda x, s: [f"--x={x}", f"--support={s}"],
                                     vectors, supports)))


@FUZZ
@given(game=game_specs, inputs=verify_inputs, seed=seeds, tol=tolerances,
       tol_flag=mostly(st.none(), tolerances))
@example(game="random_uniform:3:0", inputs=["--x=csv:1e308,1e308,1e308"], seed="0",
         tol=None, tol_flag=None)
@example(game="random_uniform:3:0", inputs=["--x=uniform"], seed="0", tol="1_0",
         tol_flag="\u0663")
def test_verify_exits_cleanly(game, inputs, seed, tol, tol_flag):
    flags = [] if tol_flag is None else [f"--tol={tol_flag}"]
    assert_clean_exit(["verify", f"--game={game}", f"--seed={seed}", *inputs, *flags],
                      tol)


def test_step_count_past_memory_is_config_error(tmp_path, capsys):
    # 10^15 rates need 7 PiB, more than any address space: refused at once
    assert main(["run", "--game", "random_uniform:3:0", "--steps", str(10**15),
                 "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")
