import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hedgenash.dynamics as dynamics
from hedgenash import (
    DEFAULT_SCHEDULE,
    GAME_KINDS,
    GameError,
    ScheduleError,
    Trace,
    diagnose_entropy_bounds,
    diagnose_trajectory_identities,
    generate_game,
    hedge_step,
    normalize_payoffs,
    parse_schedule,
    run_trajectory,
    uniform_strategy,
    validate_game,
)
from hedgenash.dynamics import _re_on_support

POWER_23 = DEFAULT_SCHEDULE
SCHEDULES = ("harmonic", "power:0.55", "power:0.9")


def direct_update(game, x, alpha):
    """Independent oracle: the multiplicative update evaluated literally."""
    w = np.asarray(x) * np.exp(alpha * (game.payoff @ x))
    return w / w.sum()


def random_normalized_game(seed, n):
    raw = np.random.default_rng(seed).uniform(-2, 2, size=(n, n))
    game, _, _ = normalize_payoffs(validate_game(raw))
    return game


def interior_point(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(n)) + 1e-6
    return x / x.sum()


class TestHedgeStep:
    def test_uniform_fixed_point_identity(self, identity2):
        for alpha in (0.1, 1.0, 2.0):
            out = hedge_step(identity2, [0.5, 0.5], alpha)
            assert np.max(np.abs(out - 0.5)) <= 1e-15

    def test_frozen_oracle_value(self, identity2):
        out = hedge_step(identity2, [0.75, 0.25], 1.0)
        assert out[0] == pytest.approx(0.83182, abs=5e-6)
        assert out[1] == pytest.approx(0.16818, abs=5e-6)

    def test_matches_direct_formula(self):
        for seed in range(30):
            g = random_normalized_game(seed, 4)
            x = interior_point(seed + 1000, 4)
            alpha = 0.1 + (seed % 7) * 0.3
            assert np.max(np.abs(hedge_step(g, x, alpha)
                                 - direct_update(g, x, alpha))) <= 1e-12

    def test_vanishing_rate_is_identity(self, rps_norm):
        x = np.array([0.6, 0.2, 0.2])
        out = hedge_step(rps_norm, x, 1e-12)
        assert np.max(np.abs(out - x)) <= 1e-10

    def test_rejects_boundary_and_bad_rates(self, identity2):
        with pytest.raises(GameError):
            hedge_step(identity2, [1.0, 0.0], 1.0)
        with pytest.raises(GameError):
            hedge_step(identity2, [0.5, 0.5], 0.0)
        with pytest.raises(GameError):
            hedge_step(identity2, [0.5, 0.5], -1.0)
        with pytest.raises(GameError):
            hedge_step(identity2, [0.5, 0.5], math.inf)

    def test_rejects_a_strategy_of_the_wrong_length(self, identity2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GameError, match=r"strategy has length 3, game has n=2"):
                hedge_step(identity2, [0.2, 0.3, 0.5], 1.0)

    @pytest.mark.parametrize("payoff, x, alpha", [
        ([[1e308, 0], [0, 1e308]], [0.5, 0.5], 10.0),       # alpha * Cx is inf
        ([[-1e308, 0], [0, -1e308]], [0.5, 0.5], 10.0),     # every logit is -inf
        ([[-8e307, 0], [0, 8e307]], [0.5, 0.5], 2.5)])      # finite, 2e308 apart
    def test_rejects_an_overflowing_step(self, payoff, x, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GameError, match="hedge step overflows"):
                hedge_step(validate_game(payoff), x, alpha)

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=2, max_value=6),
           st.floats(min_value=1e-3, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_simplex_preservation(self, seed, n, alpha):
        g = random_normalized_game(seed, n)
        x = interior_point(seed, n)
        out = hedge_step(g, x, alpha)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert out.min() > 0.0

    def test_fixed_point_at_equalizers(self, rps_norm):
        # uniform equalizes RPS payoffs; a constant game equalizes everything
        for alpha in (0.5, 1.0, 2.0):
            out = hedge_step(rps_norm, uniform_strategy(3), alpha)
            assert np.max(np.abs(out - 1 / 3)) <= 1e-10
        const = validate_game(np.full((3, 3), 0.7))
        x = np.array([0.2, 0.3, 0.5])
        for alpha in (0.5, 2.0):
            assert np.max(np.abs(hedge_step(const, x, alpha) - x)) <= 1e-10

    def test_shift_invariance(self):
        for seed in range(20):
            g = random_normalized_game(seed, 3)
            x = interior_point(seed, 3)
            b = -1.0 + (seed % 5) * 0.5
            shifted = validate_game(g.payoff + b)
            assert np.max(np.abs(hedge_step(shifted, x, 1.3)
                                 - hedge_step(g, x, 1.3))) <= 1e-12

    def test_scale_rate_duality(self):
        for seed in range(20):
            g = random_normalized_game(seed, 3)
            x = interior_point(seed, 3)
            a = 0.1 + (seed % 5) * 0.45
            scaled = validate_game(a * g.payoff)
            assert np.max(np.abs(hedge_step(scaled, x, 1.0)
                                 - hedge_step(g, x, a))) <= 1e-12


def schedule_of(tmp_path, spec, rates=None):
    """parse_schedule(spec); the spec "file" first writes ``rates`` to a
    rate file and parses file:PATH."""
    if spec != "file":
        return parse_schedule(spec)
    path = tmp_path / "rates.txt"
    path.write_text(rates)
    return parse_schedule(f"file:{path}")


class TestSchedules:
    def test_power_two_thirds_valid(self):
        assert parse_schedule("power:0.6666666666666666").valid
        assert DEFAULT_SCHEDULE.label == "power:0.6666666666666666"

    def test_power_too_flat_invalid(self):
        v = parse_schedule("power:0.4")
        assert not v.valid and "diverges" in v.reason

    def test_power_too_steep_invalid(self):
        assert not parse_schedule("power:1.5").valid

    def test_constant_invalid(self):
        v = parse_schedule("constant:0.1")
        assert not v.valid
        assert v.reason == "alpha_k does not tend to 0"

    def test_harmonic_valid(self):
        s = parse_schedule("harmonic")
        assert s.valid
        rates = s.rates(4)
        assert rates[0] == 1.0 and rates[3] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 1000, 1_000_007])
    def test_harmonic_rates_bit_for_bit(self, count):
        # alpha_0 = 1, then 1/k as one division each: the bits of the loop
        expected = np.array([1.0] + [1.0 / k for k in range(1, count)])[:count]
        rates = parse_schedule("harmonic").rates(count)
        assert rates.dtype == np.float64
        assert rates.tobytes() == expected.tobytes()

    def test_custom_flagged(self, tmp_path):
        v = schedule_of(tmp_path, "file", "0.5 0.25 0.125")
        assert v.valid and "unverified-asymptotics" in v.flags

    @pytest.mark.parametrize("spec, rates, flags", [
        ("file", "0.5 0.25", ("unverified-asymptotics",)), ("file", "0.5 0", ()),
        ("file", "", ()), ("harmonic", None, ()), ("power:0.6", None, ()),
        ("power:0.4", None, ()), ("constant:0.1", None, ())])
    def test_flags_follow_label_and_validity(self, tmp_path, spec, rates, flags):
        # a valid file: schedule is flagged, as its asymptotics are unchecked;
        # flags is derived, not a field that can be set
        schedule = schedule_of(tmp_path, spec, rates)
        assert schedule.flags == flags
        assert "flags" not in {field.name for field in dataclasses.fields(schedule)}

    def test_custom_nonpositive_invalid(self, tmp_path):
        assert not schedule_of(tmp_path, "file", "0.5 0.0").valid
        assert not schedule_of(tmp_path, "file", "").valid

    def test_parse_schedule(self, tmp_path):
        power = parse_schedule("power:0.6667")
        assert power.label == "power:0.6667"
        assert np.array_equal(power.rates(3), np.arange(1.0, 4.0) ** -0.6667)
        assert parse_schedule("harmonic").label == "harmonic"
        constant = parse_schedule("constant:0.1")
        assert constant.label == "constant:0.1"
        assert np.array_equal(constant.rates(3), [0.1, 0.1, 0.1])
        listed = schedule_of(tmp_path, "file", "1.0 0.5\n0.25\n")
        assert listed.label == f"file:{tmp_path / 'rates.txt'}"
        assert np.array_equal(listed.rates(3), [1.0, 0.5, 0.25])
        with pytest.raises(ScheduleError):
            parse_schedule("exponential:2")

    @pytest.mark.parametrize("schedule", [
        ("power:nan",), ("file", "0.5 nan"), ("file", "0.5 inf")],
        ids=["power-nan", "custom-nan", "custom-inf"])
    def test_non_finite_invalid(self, tmp_path, schedule):
        # nan and inf are no decimals to parse_float
        with pytest.raises(GameError, match="could not convert string to float"):
            schedule_of(tmp_path, *schedule)

    @pytest.mark.parametrize("schedule", [
        ("power:1e400",), ("file", "0.5 1e400"), ("file", "0.5 -1e400")],
        ids=["power", "custom", "custom-negative"])
    def test_overflowing_decimal_invalid(self, tmp_path, schedule):
        # a decimal past the float range reads as inf
        assert not schedule_of(tmp_path, *schedule).valid

    @pytest.mark.parametrize("schedule", [
        ("power:-1e400",), ("constant:1e400",), ("constant:-1e400",), ("power:-1e3",),
        ("file", "0.5 1e400 " * 10)])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_rates_rejected_even_forced(self, identity2, tmp_path, schedule):
        with pytest.raises(ScheduleError, match="non-finite"):
            run_trajectory(identity2, uniform_strategy(2),
                           schedule_of(tmp_path, *schedule), 10, force=True)

    @pytest.mark.parametrize("schedule", [
        ("constant:0",), ("constant:-0.5",), ("file", "1 -1 0.5 0.5 0.5"),
        ("file", "0 1 1 1 1")], ids=["zero", "negative", "file-negative", "file-zero"])
    def test_non_positive_weight_rejected_even_forced(self, identity2, tmp_path,
                                                      schedule):
        with pytest.raises(ScheduleError, match="alpha_0 > 0"):
            run_trajectory(identity2, uniform_strategy(2),
                           schedule_of(tmp_path, *schedule), 3, force=True)

    def test_underflowing_rates_still_run_forced(self, hawk_dove_norm):
        # (k+1)^-1000 is 0.0 from k = 2 on; A_K stays positive
        schedule = parse_schedule("power:1000")
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), schedule, 50,
                            emit_every=1, force=True)
        assert not schedule.valid
        assert all(r.weight_sum >= 1.0 and np.all(np.isfinite(r.xbar))
                   for r in tr.records)

    @pytest.mark.parametrize("payoff, step", [
        ([[1.0, 0.0], [0.0, 1.0]], 17),       # A_17 = 18e307 overflows first
        ([[-1.0, -2.0], [-2.0, -1.0]], 11)],  # logits reach -1.8e308 at K = 11
        ids=["weight", "logits"])
    def test_overflowing_forced_schedule_rejected(self, payoff, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match=f"overflows at step {step}:"):
                run_trajectory(validate_game(payoff), uniform_strategy(2),
                               parse_schedule("constant:1e307"), 100, force=True)

    def test_overflow_past_the_last_record_is_accepted(self, tmp_path):
        # step 1's logits overflow, but they give X^2, which a run of one
        # step does not record; with a third rate X^2 is recorded
        game = validate_game([[1, -1], [-1, 1]])
        x0 = np.array([0.6, 0.4])
        schedule = schedule_of(tmp_path, "file", "1e300 1.2e308")
        assert schedule.valid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_trajectory(game, x0, schedule, 1, emit_every=1)
            assert trace.steps.tolist() == [0, 1]
            assert np.isfinite(trace.table).all()
            assert np.isfinite(trace.avg_self_play).all()
            with pytest.raises(ScheduleError, match="overflows at step 1:"):
                run_trajectory(game, x0, schedule_of(tmp_path, "file", "1e300 1.2e308 1"),
                               2, emit_every=1)

    def test_overflowing_self_play_sum_rejected(self):
        # every payoff 1.7e308: X^1 has finite logits, but the running
        # self-play sum alpha_0 X.CX + alpha_1 X.CX behind record 1 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match="overflows at step 1:"):
                run_trajectory(validate_game(np.full((2, 2), 1.7e308)),
                               uniform_strategy(2), DEFAULT_SCHEDULE, 1, emit_every=1)

    @pytest.mark.parametrize("force", [False, True])
    def test_cancelled_weight_rejected(self, tmp_path, monkeypatch, force):
        # A_1 = 1e-300 + 1 rounds to 1, so A_1 - alpha_1 is 0 and Xbar^0
        # cannot be recovered from step 1; the rates pass validation
        schedule = schedule_of(tmp_path, "file", "1e-300 1 1 1 1 " * 30)
        assert schedule.valid
        game = generate_game("random_uniform", 3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match=re.escape(
                    f"{schedule.label} cancels at step 1: A_K - alpha_K is not positive")):
                run_trajectory(game, uniform_strategy(3), schedule, 4, force=force)
            # past the first block too: 1e-300 then 1 at step 130
            monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 64)
            rates = ["1"] * 130 + ["1e300"] + ["1"] * 10
            with pytest.raises(ScheduleError, match="cancels at step 130:"):
                run_trajectory(game, uniform_strategy(3),
                               schedule_of(tmp_path, "file", " ".join(rates)), 140,
                               force=force)

    def test_custom_exhaustion(self, tmp_path):
        with pytest.raises(ScheduleError):
            schedule_of(tmp_path, "file", "1.0 0.5").rates(5)


class TestRelativeEntropy:
    """RE(y, q) as the entropy diagnostics evaluate it."""

    def test_zero_at_equality(self):
        assert _re_on_support(uniform_strategy(3), uniform_strategy(3)) == 0.0

    def test_point_vs_coin(self):
        assert _re_on_support(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == \
            pytest.approx(math.log(2))

    def test_batched_along_last_axis(self):
        ys = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert np.allclose(_re_on_support(ys, np.full((2, 2), 0.5)), [math.log(2), 0.0])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_dominates_squared_distance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) + 1e-9
        q = q / q.sum()
        assert _re_on_support(p, q) + 1e-12 >= np.sum((p - q) ** 2)


class TestRunTrajectory:
    def test_identity_uniform_fixed_point(self, identity2):
        tr = run_trajectory(identity2, uniform_strategy(2), POWER_23, 100,
                            emit_every=1)
        for r in tr.records:
            assert np.max(np.abs(r.x - 0.5)) <= 1e-12
            assert np.max(np.abs(r.xbar - 0.5)) <= 1e-12
            assert r.gap_avg == 0.0 and r.gap_iter == 0.0

    def test_rps_uniform_average_stays_uniform(self, rps_norm):
        tr = run_trajectory(rps_norm, uniform_strategy(3), POWER_23, 200,
                            emit_every=10)
        for r in tr.records:
            assert np.max(np.abs(r.xbar - 1 / 3)) <= 1e-12

    def test_invalid_schedule_requires_force(self, identity2):
        schedule = parse_schedule("power:0.4")
        with pytest.raises(ScheduleError, match="diverges"):
            run_trajectory(identity2, uniform_strategy(2), schedule, 10)
        run_trajectory(identity2, uniform_strategy(2), schedule, 10, force=True)
        assert not schedule.valid

    def test_valid_run_not_flagged(self, identity2):
        run_trajectory(identity2, uniform_strategy(2), POWER_23, 10)
        assert POWER_23.valid

    def test_rejects_bad_inputs(self, identity2):
        with pytest.raises(GameError):
            run_trajectory(identity2, np.array([1.0, 0.0]), POWER_23, 10)
        with pytest.raises(GameError):
            run_trajectory(identity2, uniform_strategy(3), POWER_23, 10)
        with pytest.raises(GameError):
            run_trajectory(identity2, uniform_strategy(2), POWER_23, 0)
        with pytest.raises(GameError):
            run_trajectory(identity2, uniform_strategy(2), POWER_23, 10, emit_every=0)

    def test_telescoped_logits_match_stepwise_oracle(self, hawk_dove_norm):
        k_max = 1000
        tr = run_trajectory(hawk_dove_norm, np.array([0.7, 0.3]), POWER_23,
                            k_max, emit_every=100)
        x = np.array([0.7, 0.3])
        by_step = {0: x.copy()}
        for k, alpha in enumerate(POWER_23.rates(k_max + 1)):
            x = direct_update(hawk_dove_norm, x, alpha)
            by_step[k + 1] = x.copy()
        for r in tr.records:
            assert np.max(np.abs(r.x - by_step[r.step])) <= 1e-9

    def test_contraction_bound_on_recorded_trace(self, hawk_dove_norm):
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23,
                            5000, emit_every=250)
        for r in tr.records[1:]:
            assert r.avg_step_norm <= (r.alpha / r.weight_sum) * math.sqrt(2) + 1e-15

    def test_runs_without_warnings(self, rps_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run_trajectory(rps_norm, np.array([0.5, 0.3, 0.2]), POWER_23, 50,
                                emit_every=1)
        assert tr.records[0].avg_step_norm == 0.0
        assert all(r.avg_step_norm > 0.0 for r in tr.records[1:])

    def test_determinism(self, hawk_dove_norm):
        a = run_trajectory(hawk_dove_norm, np.array([0.7, 0.3]), POWER_23, 500)
        b = run_trajectory(hawk_dove_norm, np.array([0.7, 0.3]), POWER_23, 500)
        assert np.array_equal(a.final.xbar, b.final.xbar)
        assert a.final.gap_avg == b.final.gap_avg


class TestTraceIO:
    def test_csv_header(self, rps_norm):
        tr = run_trajectory(rps_norm, uniform_strategy(3), POWER_23, 10)
        assert tr.csv_header() == (
            "K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,X_1,X_2,X_3,"
            "Xbar_1,Xbar_2,Xbar_3")

    def test_csv_round_trip(self, tmp_path, hawk_dove_norm):
        tr = run_trajectory(hawk_dove_norm, np.array([0.7, 0.3]), POWER_23,
                            300, emit_every=50)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        back = Trace.from_file(path)
        assert len(back.records) == len(tr.records)
        for a, b in zip(tr.records, back.records):
            assert a.step == b.step
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.xbar, b.xbar)
            assert a.gap_avg == b.gap_avg
            assert b.avg_self_play is None

    def test_jsonl_round_trip(self, tmp_path):
        # both formats write each value as '%.17g', and every value reads back
        # bit for bit, in JSONL too; the default schedule, then SCHEDULES
        def seventeen_digits(token):
            assert "%.17g" % float(token) == token, token
            return float(token)

        for kind in GAME_KINDS:
            for n in (3, 8, 16):
                game = generate_game(kind, n, 1)
                for schedule in (POWER_23, *map(parse_schedule, SCHEDULES)):
                    tr = run_trajectory(game, uniform_strategy(n), schedule, 1000,
                                        emit_every=1)
                    for fmt in ("csv", "jsonl"):
                        path = tmp_path / f"trace.{fmt}"
                        getattr(tr, f"to_{fmt}")(path)
                        back = Trace.from_file(path)
                        assert back.steps.tobytes() == tr.steps.tobytes()
                        assert back.table.tobytes() == tr.table.tobytes(), (kind, n, schedule.label)
                    with open(path) as lines:
                        for line in lines:
                            json.loads(line, parse_float=seventeen_digits)

    def test_empty_trace_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy "no data" warning
            path.write_text("K,alpha\n")
            with pytest.raises(GameError):
                Trace.from_file(path)
            path.write_text("")
            with pytest.raises(GameError, match="no records"):
                Trace.from_file(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_malformed_records_name_file_and_line(self, tmp_path, rps_norm, fmt):
        tr = run_trajectory(rps_norm, np.array([0.5, 0.3, 0.2]), POWER_23, 3,
                            emit_every=1)
        path = tmp_path / f"trace.{fmt}"
        getattr(tr, f"to_{fmt}")(path)
        lines = path.read_text().splitlines()
        last = len(lines)
        if fmt == "csv":
            fields = lines[-1].split(",")
            cases = {"truncated": lines[-1].rsplit(",", 1)[0],
                     "unparsable": lines[-1].replace(",", ",x", 1),
                     "short": "3,0.5",
                     "long": lines[-1] + ",0.25",
                     "K 3.5": ",".join(["3.5"] + fields[1:]),
                     "K 1e3": ",".join(["1e3"] + fields[1:]),
                     "nan": lines[-1].rsplit(",", 1)[0] + ",nan",
                     "inf X": ",".join(fields[:7] + ["inf"] + fields[8:])}
        else:
            record = json.loads(lines[-1])
            cases = {"truncated": lines[-1][:-10], "blank": "",
                     "narrow": json.dumps({**record, "Xbar": record["Xbar"][:2]}),
                     "wide X": json.dumps({**record, "X": record["X"] + [0.0]}),
                     "K 3.5": json.dumps({**record, "K": 3.5}),
                     "K 1e3": json.dumps(record).replace('{"K": 3', '{"K": 1e3'),
                     "nan": json.dumps({**record, "Xbar": [math.nan] * 3}),
                     "huge": json.dumps({**record, "X": [10 ** 400] + record["X"][1:]})}
        for bad in cases.values():
            path.write_text("\n".join(lines[:-1] + [bad, lines[-1]]) + "\n")
            with pytest.raises(GameError, match=re.escape(f"{path}:{last}: ")):
                Trace.from_file(path)


class TestDiagnostics:
    def test_entropy_suite_identity(self, identity2):
        report = diagnose_entropy_bounds(identity2, 200, seed=7)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert names == {"entropy_alpha_convexity", "entropy_upper_bound",
                         "entropy_lower_bound"}

    def test_entropy_suite_rps(self, rps_norm):
        assert diagnose_entropy_bounds(rps_norm, 200, seed=3).all_passed

    def test_negative_samples_rejected(self, identity2):
        with pytest.raises(GameError, match="samples"):
            diagnose_entropy_bounds(identity2, -5, seed=0)

    def test_zero_samples_vacuous(self, identity2):
        report = diagnose_entropy_bounds(identity2, 0, seed=0)
        assert report.all_passed and len(report.checks) == 3
        assert all(c.samples == 0 and c.max_violation == 0.0 for c in report.checks)

    def test_requires_normalized_game(self, rps_nonneg):
        with pytest.raises(GameError):
            diagnose_entropy_bounds(rps_nonneg, 10, seed=0)

    def test_trajectory_identities_pass(self, hawk_dove_norm):
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23,
                            1000, emit_every=100)
        report = diagnose_trajectory_identities(hawk_dove_norm, tr)
        assert report.all_passed

    def test_log_ratio_needs_uniform_start(self, rps_norm):
        tr = run_trajectory(rps_norm, np.array([0.6, 0.2, 0.2]), POWER_23,
                            100, emit_every=10)
        report = diagnose_trajectory_identities(rps_norm, tr)
        assert [c.name for c in report.checks] == ["payoff_floor_bound",
                                                   "self_play_bound", "log_growth_bound"]
        assert report.all_passed

    def test_file_traces_lack_logits(self, tmp_path, hawk_dove_norm):
        # a file holds no self-play payoff: only the wire checks are reported
        tr = run_trajectory(hawk_dove_norm, uniform_strategy(2), POWER_23, 100)
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        report = diagnose_trajectory_identities(hawk_dove_norm, Trace.from_file(path))
        assert [c.name for c in report.checks] == ["log_ratio_identity",
                                                   "payoff_floor_bound"]
        assert report.all_passed

    def test_report_serializes(self, identity2):
        payload = diagnose_entropy_bounds(identity2, 10, seed=0).to_dict()
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 3
