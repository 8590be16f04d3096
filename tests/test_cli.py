import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import hedgenash.analysis as analysis
import hedgenash.cli as cli
from hedgenash import (
    DEFAULT_SCHEDULE,
    GAME_KINDS,
    LPError,
    generate_game,
    load_game,
    min_equalizer_gap,
    run_trajectory,
    save_game,
    uniform_strategy,
    validate_game,
)
from hedgenash.cli import main

RPS_NORMALIZED = [[0.5, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.5]]


@pytest.fixture
def rps_file(tmp_path):
    path = tmp_path / "rps.json"
    save_game(validate_game(RPS_NORMALIZED), path)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id2.json"
    save_game(validate_game(np.eye(2)), path)
    return str(path)


class TestRun:
    def test_writes_trace_and_summary(self, rps_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["run", "--game", rps_file, "--steps", "500",
                   "--emit-every", "100", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        assert summary["schedule_valid"] is True
        assert summary["schedule"] == "power:0.6666666666666666"
        assert summary["final_gap_avg"] <= 1e-12  # uniform fixed point on RPS
        assert summary["final_step"] == 500
        header = out.read_text().splitlines()[0]
        assert header == ("K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,"
                          "X_1,X_2,X_3,Xbar_1,Xbar_2,Xbar_3")

    def test_generator_spec_accepted(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", "coordination:2", "--steps", "100",
                   "--out", str(out)])
        assert rc == 0 and out.exists()

    def test_default_flags_run_default_schedule(self, tmp_path):
        out, want = tmp_path / "t.csv", tmp_path / "want.csv"
        assert main(["run", "--game", "random_uniform:3:1", "--steps", "600",
                     "--out", str(out)]) == 0
        run_trajectory(generate_game("random_uniform", 3, 1), uniform_strategy(3),
                       DEFAULT_SCHEDULE, 600, emit_every=1000).to_csv(want)
        assert out.read_bytes() == want.read_bytes()

    def test_jsonl_format(self, rps_file, tmp_path):
        out = tmp_path / "trace.jsonl"
        rc = main(["run", "--game", rps_file, "--steps", "100",
                   "--out", str(out), "--format", "jsonl"])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) == {"K", "alpha", "A_K", "gap_avg", "gap_iter",
                              "avg_step_norm", "X", "Xbar"}

    def test_invalid_schedule_is_config_error(self, rps_file, tmp_path):
        rc = main(["run", "--game", rps_file, "--steps", "100",
                   "--schedule", "power:0.4", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_game_required_without_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--steps", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --game is required without --config"]
        assert list(tmp_path.iterdir()) == []

    def test_steps_required_without_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--game", "random_uniform:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --steps is required without --config"]
        assert list(tmp_path.iterdir()) == []

    def test_config_object_is_config_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.json").write_text(json.dumps(
            {"game": "random_uniform:3", "steps": 10, "out": "u.csv"}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --config must hold a JSON list of run configs"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "forced"])
    # nan is no decimal; -1e400 and 1e400 read as -inf and inf, so the
    # others reach the check of the rates
    @pytest.mark.parametrize("rates", ["power:nan", "power:-1e400", "file"])
    def test_non_finite_schedule_is_config_error(self, rps_file, tmp_path, capsys,
                                                 rates, force):
        if rates == "file":
            path = tmp_path / "rates.txt"
            path.write_text("0.5 1e400 " * 60)
            rates = f"file:{path}"
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", rps_file, "--steps", "100", "--schedule",
                   rates, "--out", str(out)] + force)
        assert rc == 2 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("rates", ["constant:0", "file"])
    def test_non_positive_weight_is_config_error_even_forced(self, rps_file, tmp_path,
                                                              capsys, rates):
        if rates == "file":
            path = tmp_path / "rates.txt"
            path.write_text("1 -1 0.5 0.5 0.5")
            rates = f"file:{path}"
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", rps_file, "--steps", "3", "--emit-every", "1",
                   "--schedule", rates, "--force", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_underflowing_forced_schedule_runs(self, tmp_path):
        # (k+1)^-1000 underflows to 0 from k = 2 on, so A_K stays at 1
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", "random_uniform:3:0", "--steps", "20",
                   "--emit-every", "1", "--schedule", "power:1000", "--force",
                   "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(row[2]) == 1.0 for row in rows)
        summary = json.loads((tmp_path / "t.csv.summary.json").read_text())
        assert np.isfinite(summary["final_gap_avg"])

    def test_overflowing_forced_schedule_is_config_error(self, tmp_path, capsys):
        # A_K overflows at K = 17; no trace, no summary with NaN in it
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", "random_uniform:3:0", "--steps", "40",
                   "--emit-every", "1", "--schedule", "constant:1e307", "--force",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert not (tmp_path / "t.csv.summary.json").exists()
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: schedule constant:1e+307 overflows at step 17: "
            "A_K, the logits or the self-play sum are no longer finite"]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_cancelled_weight_is_config_error(self, tmp_path, capsys, fmt):
        # A_1 = 1e-300 + 1 rounds to 1: A_1 - alpha_1 is 0, and the step norm
        # of record 1 would divide by it; the rates pass validation
        rates = tmp_path / "rates.txt"
        rates.write_text("1e-300 1 1 1 1")
        out = tmp_path / f"t.{fmt}"
        rc = main(["run", "--game", "random_uniform:3:0", "--steps", "4",
                   "--emit-every", "1", "--schedule", f"file:{rates}", "--format", fmt,
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert not (tmp_path / f"t.{fmt}.summary.json").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: schedule file:{rates} cancels at step 1: "
            "A_K - alpha_K is not positive"]

    def test_force_flags_summary(self, rps_file, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", rps_file, "--steps", "100",
                   "--schedule", "power:0.4", "--force", "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "t.csv.summary.json").read_text())
        assert summary["forced"] is True and summary["schedule_valid"] is False

    def test_forced_constant_schedule_summary(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["run", "--game", "doubly_symmetric:4:3", "--steps", "50",
                     "--schedule", "constant:0.3", "--force", "--format", "jsonl",
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(Path(f"{out}.summary.json").read_text())
        for summary in (printed, written):
            assert summary["forced"] is True
            assert summary["forced"] == (not summary["schedule_valid"])
            assert summary["schedule_reason"] == "alpha_k does not tend to 0"

    @pytest.mark.parametrize("schedule", [None, "power:0.666667", "harmonic", "file"])
    def test_summary_schedule_reruns_its_run(self, tmp_path, capsys, schedule):
        # re-running with the summary's "schedule" writes the same bytes
        if schedule == "file":
            rates = tmp_path / "rates.txt"
            rates.write_text(" ".join(repr(0.9 / (k + 1) ** 0.6) for k in range(2001)))
            schedule = f"file:{rates}"
        args = ["run", "--game", "random_uniform:4:1", "--steps", "2000",
                "--emit-every", "500"]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        flags = [] if schedule is None else ["--schedule", schedule]
        assert main([*args, *flags, "--out", str(first)]) == 0
        label = json.loads(Path(f"{first}.summary.json").read_text())["schedule"]
        assert label == (schedule or "power:0.6666666666666666")
        assert main([*args, "--schedule", label, "--out", str(again)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == again.read_bytes()

    def test_double_dash_emit_every_is_usage_error(self, capsys):
        # argparse stores [] for a flag whose value is "--"
        assert main(["run", "--game", "coordination:3", "--steps", "5",
                     "--emit-every=--"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: argument --emit-every: expected one argument"]

    def test_byte_identical_reruns(self, rps_file, tmp_path):
        args = ["run", "--game", rps_file, "--steps", "300", "--x0", "random",
                "--seed", "11", "--emit-every", "50"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_game_is_config_error(self, tmp_path):
        rc = main(["run", "--steps", "10", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_unreadable_game_is_config_error(self, tmp_path):
        rc = main(["run", "--game", str(tmp_path / "nope.json"),
                   "--steps", "10", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_batch_config_matches_single_runs(self, rps_file, identity_file, tmp_path,
                                              monkeypatch, capsys):
        configs = [
            {"game": rps_file, "steps": 200, "emit_every": 10, "out": "r1.csv"},
            {"game": identity_file, "steps": 150, "x0": "random", "seed": 3,
             "schedule": "harmonic", "format": "jsonl", "out": "r2.jsonl"},
        ]
        singles = [
            ["--game", rps_file, "--steps", "200", "--emit-every", "10", "--out", "r1.csv"],
            ["--game", identity_file, "--steps", "150", "--x0", "random", "--seed", "3",
             "--schedule", "harmonic", "--format", "jsonl", "--out", "r2.jsonl"],
        ]
        batch_dir, single_dir = tmp_path / "batch", tmp_path / "single"
        batch_dir.mkdir()
        single_dir.mkdir()
        (tmp_path / "batch.json").write_text(json.dumps(configs))

        def outputs(directory, name):
            summary = json.loads((directory / f"{name}.summary.json").read_text())
            del summary["wall_time_s"]
            return (directory / name).read_bytes(), summary

        monkeypatch.chdir(batch_dir)
        assert main(["run", "--config", str(tmp_path / "batch.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        monkeypatch.chdir(single_dir)
        for argv in singles:
            assert main(["run", *argv]) == 0
        capsys.readouterr()
        for config, summary in zip(configs, printed, strict=True):
            batch = outputs(batch_dir, config["out"])
            assert batch == outputs(single_dir, config["out"])
            assert batch[1] == {k: v for k, v in summary.items() if k != "wall_time_s"}

    def test_bad_later_config_entry_writes_nothing(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "out": "a.csv"},
            {"game": "bogus:3", "steps": 10, "out": "b.csv"}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert captured.err.splitlines() == [
            "error: --config entry 1: game spec 'bogus:3' is neither a readable file "
            f"nor kind:n[:seed] with kind in {GAME_KINDS}"]

    @pytest.mark.parametrize("entry, message", [
        ({"x0": "csv:0.5,x"}, "could not convert string to float: 'x'"),
        ({"schedule": "power"}, "cannot parse schedule spec 'power'"),
        ({"schedule": "file:missing.txt"}, "No such file or directory"),
        ({"format": "xml"}, "unknown trace format 'xml'"),
    ])
    def test_config_entry_loaded_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                entry, message):
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "out": "a.csv"},
            {"game": "random_uniform:3", "steps": 10, "out": "b.csv", **entry}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --config entry 1: ")
        assert message in err[0] and not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"steps": 0}, "k_max must be >= 1"),
        ({"emit_every": 0}, "emit_every must be >= 1"),
        ({"x0": "csv:0.5,0.5"}, "strategy has length 2, game has n=3"),
        ({"x0": "csv:1,0,0"}, "trajectories must start in the simplex interior"),
        ({"x0": "csv:0.5,0.5,0.5"}, "strategy entries sum to 1.5"),
        ({"schedule": "power:0.4"}, "sum alpha_k*(exp(alpha_k)-1) diverges"),
        ({"schedule": "constant:0", "force": True}, "needs alpha_0 > 0"),
        ({"schedule": "power:-1e400", "force": True}, "yields a non-finite rate"),
        ({"schedule": "file:short.txt"}, "custom schedule has 3 rates, 11 needed"),
    ])
    def test_config_entry_checked_as_the_run_would(self, tmp_path, monkeypatch, capsys,
                                                   entry, message):
        # the checks run_trajectory makes before its first step are made for
        # every entry before any runs
        (tmp_path / "short.txt").write_text("0.5 0.5 0.5")
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "out": "a.csv"},
            {"game": "random_uniform:3", "steps": 10, "out": "b.csv", **entry}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --config entry 1: ")
        assert message in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "short.txt"]

    def test_null_config_keys_take_flag_defaults(self, tmp_path, monkeypatch, capsys):
        nulls = dict.fromkeys(["schedule", "x0", "seed", "emit_every", "force",
                               "format"])
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "out": "a.csv", **nulls}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 0
        batch = (tmp_path / "a.csv").read_bytes()
        assert main(["run", "--game", "random_uniform:3", "--steps", "10",
                     "--out", "b.csv"]) == 0
        assert (tmp_path / "b.csv").read_bytes() == batch

    @pytest.mark.parametrize("jobs", ["2", "0", "-3"])
    def test_jobs_flag_is_usage_error(self, rps_file, tmp_path, capsys, jobs):
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps([{"game": rps_file, "steps": 10,
                                    "out": str(tmp_path / "r.csv")}]))
        rc = main(["run", "--config", str(cfg), "--jobs", jobs])
        assert rc == 2 and not (tmp_path / "r.csv").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: unrecognized arguments: --jobs {jobs}"]

    # --config holds every setting of its runs: a run flag would be ignored
    @pytest.mark.parametrize("flags, given", [
        (["--steps", "99999", "--game", "zero_sum_symmetric:9:0", "--format", "jsonl",
          "--schedule", "harmonic"], "--game, --steps, --schedule, --format"),
        (["--x0", "uniform"], "--x0"),
        (["--seed", "0"], "--seed"),
        (["--force"], "--force"),
        (["--emit-every", "1000"], "--emit-every"),
        (["--out", "hedge_trace.csv"], "--out"),
        (["--format", "csv"], "--format"),
    ])
    def test_config_refuses_run_flags(self, tmp_path, monkeypatch, capsys, flags, given):
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "out": "a.csv"}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --config takes no run flags, got {given}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_out_and_format_defaults(self, tmp_path, monkeypatch, capsys):
        assert main(["run", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "trace output path (default hedge_trace.csv)" in help_text
        assert "trace format (default csv)" in help_text
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--game", "random_uniform:3", "--steps", "10"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["trace"], summary["format"]) == ("hedge_trace.csv", "csv")
        assert (tmp_path / "hedge_trace.csv").read_text().startswith("K,alpha,")

    def test_unknown_config_key_is_config_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.json").write_text(json.dumps([
            {"game": "random_uniform:3", "steps": 10, "emit_evry": 1, "out": "u.csv"}]))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "c.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --config entry 0: unknown key 'emit_evry'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("entry, named", [
        (1, "entry 0 is not a JSON object"),
        ([], "entry 0 is not a JSON object"),
        ({"steps": 10}, "has no 'game'"),
        ({"game": None, "steps": 10}, "has no 'game'"),
        ({"game": "GAME"}, "has no 'steps'"),
        ({"game": "GAME", "steps": "10"}, "'steps' must be int"),
        ({"game": "GAME", "steps": True}, "'steps' must be int"),
        ({"game": "GAME", "steps": 10, "x0": 3}, "'x0' must be str"),
        ({"game": 7, "steps": 10}, "'game' must be str"),
        ({"game": "GAME", "steps": 10, "force": "false"}, "'force' must be bool"),
    ])
    def test_malformed_config_entry_is_config_error(self, rps_file, tmp_path, capsys,
                                                    entry, named):
        if isinstance(entry, dict) and entry.get("game") == "GAME":
            entry = {**entry, "game": rps_file}
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps([entry]))
        rc = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and named in err[0]

    @pytest.mark.parametrize("name, data, flag, where", [
        ("game.json", b'\xff{"payoff": [[1, 0], [0, 1]]}', "--game",
         "1: not UTF-8 text (byte 0xff)"),
        ("game.txt", b"2\n1 0\n0 \xfe1\n", "--game", "3: not UTF-8 text (byte 0xfe)"),
        ("rates.txt", b"0.5 0.25\r\n0.125 \xe2\x80\n", "--schedule",
         "2: not UTF-8 text (byte 0xe2)"),
        ("batch.json", b'[\n\n{"game": "\xc3("}]', "--config",
         "3: not UTF-8 text (byte 0xc3)"),
        # a game file's content errors name the file too: PATH: message
        ("game.json", b'{"n": 3, "payoff": [[1, 0], [0, 1]]}', "--game",
         " declared n=3 but matrix is 2x2"),
        ("game.json", b'{"n": 2.0, "payoff": [[1, 0], [0, 1]]}', "--game",
         " declared n=2.0 is not a JSON integer"),
        ("game.json", b'{"payoff": [[1, true], [0, 1]]}', "--game",
         " payoff[0][1] = True is not a JSON number"),
        ("game.json", b'{"payoff": [[1%s, 0], [0, 1]]}' % (b"0" * 400), "--game",
         " payoff matrix is not rectangular numeric data: int too large to convert "
         "to float"),
        ("game.json", b'{"payoff": []}', "--game",
         " payoff matrix must be square, got shape (0,)"),
        ("game.json", b'{"payoff": [[1]]}', "--game",
         " game needs at least 2 pure strategies"),
        ("game.txt", b"2.0\n1 0\n0 1\n", "--game",
         " text game file dimension n: invalid int value: '2.0'"),
        ("game.txt", b"2\n1 0\n0 x\n", "--game",
         " text game file entry: could not convert string to float: 'x'"),
        ("game.txt", b"2\n1 0 0\n1 0\n", "--game", " expected 4 payoff entries, found 5"),
        ("game.txt", b" \n\n", "--game", " empty game file"),
        ("game.txt", b"1\n1\n", "--game",
         " text game file declares n=1; a game needs at least 2 pure strategies"),
    ], ids=["game JSON", "text game", "schedule file", "config", "declared n",
            "fractional n", "boolean entry", "huge entry", "empty matrix",
            "one strategy", "text n", "text entry", "entry count", "empty text game",
            "text n below two"])
    def test_non_utf8_file_names_path_and_line(self, tmp_path, capsys, name, data, flag,
                                               where):
        path = tmp_path / name
        path.write_bytes(data)
        value = {"--schedule": f"file:{path}"}.get(flag, str(path))
        argv = ["run", flag, value]
        if flag != "--config":
            argv += ["--steps", "10", "--out", str(tmp_path / "t.csv")]
        if flag == "--schedule":
            argv += ["--game", "random_uniform:3:1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}:{where}\n"

    @pytest.mark.parametrize("name, text, flag, line, message", [
        ("batch.json", "[\n  {\"game\": x}]", "--config", 2, "Expecting value at column 12"),
        ("batch.json", "", "--config", 1, "Expecting value at column 1"),
        ("batch.json", "[\r {\"game\": x}]", "--config", 2, "Expecting value at column 11"),
        ("game.json", '\n{"payoff": [[1, 0], [0, 1]],}', "--game", 2,
         "Expecting property name enclosed in double quotes at column 29"),
    ], ids=["config", "empty config", "CR line end", "game JSON"])
    def test_bad_json_names_path_and_line(self, tmp_path, capsys, name, text, flag, line,
                                          message):
        path = tmp_path / name
        path.write_text(text)
        argv = ["run", flag, str(path)]
        if flag == "--game":
            argv += ["--steps", "10", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: not JSON ({message})\n"

    def test_game_json_without_payoff_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text('{"n": 2, "payofff": [[1, 0], [0, 1]]}')
        assert main(["verify", "--game", str(path), "--x", "uniform"]) == 2
        assert capsys.readouterr().err == f'error: {path}: the game JSON has no "payoff"\n'

    @pytest.mark.parametrize("argv", [
        ["run", "--steps", "10", "--out", "t.csv"], ["diagnose", "--samples", "5"],
        ["verify", "--support", "0,1"], ["verify", "--x", "uniform"]],
        ids=["run", "diagnose", "verify support", "verify x"])
    def test_game_whose_payoff_range_overflows(self, tmp_path, monkeypatch, capsys, argv):
        # every entry is finite, max - min is not: one error naming the file,
        # no RuntimeWarning from the normalization or the spread program
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text('{"payoff": [[1e308, -1e308], [0, 1]]}')
        assert main([argv[0], "--game", "big.json", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: big.json: payoff entries span more than "
                                "the float range\n")
        assert not Path("t.csv").exists()


class TestVerify:
    def test_uniform_on_rps_passes(self, rps_file, capsys):
        rc = main(["verify", "--game", rps_file,
                   "--x", "csv:0.3333333333333333,0.3333333333333333,0.3333333333333334"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_pure_strategy_fails_with_gap(self, rps_file, capsys):
        rc = main(["verify", "--game", rps_file, "--x", "csv:1,0,0"])
        assert rc == 1
        assert "gap: 0.5" in capsys.readouterr().out

    def test_off_simplex_rejected(self, rps_file, capsys):
        rc = main(["verify", "--game", rps_file, "--x", "csv:0.6,0.6,0.6"])
        assert rc == 2
        assert "off the simplex" in capsys.readouterr().err

    def test_support_mode(self, identity_file, capsys):
        rc = main(["verify", "--game", identity_file, "--support", "0,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[0.5, 0.5]" in out

    def test_bad_support_fails(self, rps_file):
        rc = main(["verify", "--game", rps_file, "--support", "0"])
        assert rc == 1

    def test_failed_support_names_the_carrier_checked(self, rps_file, capsys):
        # the carrier is the set of the listed indices, sorted
        assert main(["verify", "--game", rps_file, "--support", "1,0,0"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("support [0, 1]: no equilibrium certificate ")

    def test_support_tol_is_honoured(self, tmp_path):
        # row 1 earns row 0's payoff plus 1e-5 against anything: spread 1e-5
        path = tmp_path / "near.json"
        save_game(validate_game([[0.2, 0.4], [0.2 + 1e-5, 0.4 + 1e-5]]), path)
        args = ["verify", "--game", str(path), "--support", "0,1"]
        assert main(args) == 1

    def test_tol_is_read_in_the_payoff_unit(self, tmp_path, capsys):
        # rock-paper-scissors times 1e-9: rock's gap, 1e-9, is half the
        # payoff range, and the 1e-8 tolerance is read in its unit, 2^-30
        path = tmp_path / "tiny.json"
        save_game(validate_game(1e-9 * np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])),
                  path)
        assert main(["verify", "--game", str(path), "--x", "csv:1,0,0"]) == 1
        assert capsys.readouterr().out.splitlines()[2] == "verification failed"

    @pytest.mark.parametrize("payoff, argv, line", [
        ("[[8e307, -8e307], [0, 1]]", ["--support", "0,1"], "support: [0, 1]"),
        ("[[8e307, -8e307], [0, 1]]", ["--x", "uniform"], "verified"),
        ("[[4e307, -4e307], [0, 1]]", ["--support", "0"], "certificate strategy: [1.0, 0.0]")],
        ids=["8e307 support", "8e307 x", "4e307 pure support"])
    def test_payoffs_near_the_float_range(self, tmp_path, capsys, payoff, argv, line):
        # the spread program solves payoff / 2^1023: no overflow in phase 1
        # and no iteration limit
        path = tmp_path / "wide.json"
        path.write_text(f'{{"payoff": {payoff}}}')
        assert main(["verify", "--game", str(path), *argv]) == 0
        captured = capsys.readouterr()
        assert line in captured.out.splitlines()
        assert captured.err == ""
        if argv[0] == "--x":   # verify --x solves no LP: solve the full carrier's here
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isfinite(min_equalizer_gap(load_game(path))[1])

    @pytest.mark.parametrize("argv", [["--x", "csv:0.2,0.2,0.2,0.2,0.2"],
                                      ["--support", "0,2,4"]])
    def test_spec_and_saved_file_verify_alike(self, tmp_path, capsys, argv):
        # gaps are in the game's own payoffs, which the file keeps
        path = tmp_path / "zs.json"
        assert main(["generate", "--kind", "zero_sum_symmetric", "--n", "5", "--seed", "1",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        rc = main(["verify", "--game", "zero_sum_symmetric:5:1", *argv])
        from_spec = capsys.readouterr().out
        assert main(["verify", "--game", str(path), *argv]) == rc
        assert capsys.readouterr().out == from_spec
        assert "game units" not in from_spec

    def test_constant_game_at_the_float_maximum_has_spread_zero(self, tmp_path, capsys):
        # the spread program shifts by the payoff minimum: every entry is 0
        path = tmp_path / "max.json"
        path.write_text(json.dumps({"payoff": [[1.7976931348623157e308] * 3] * 3}))
        assert main(["verify", "--game", str(path), "--x", "csv:0.3,0.3,0.4"]) == 0
        assert capsys.readouterr().err == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert min_equalizer_gap(load_game(path))[1] == 0.0

    def test_gap_that_is_not_a_number_is_config_error(self, tmp_path, capsys):
        # every payoff the largest double: the sums behind this strategy's
        # gap overflow, and inf - inf is no gap to judge; no RuntimeWarning
        # joins the error line
        path = tmp_path / "max.json"
        path.write_text(json.dumps({"payoff": [[1.7976931348623157e308] * 5] * 5}))
        x = "0.21552447048356196,0.11093009353909235,0.24956618609682735," \
            "0.07409626181971563,0.34988298806080276"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--game", str(path), "--x", f"csv:{x}"]) == 2
        assert capsys.readouterr().err == (
            "error: the strategy's gap is not a number (its payoffs overflow)\n")

    # the certificate tolerance is fixed: verify takes no --tol, whatever
    # its value
    @pytest.mark.parametrize("tol", ["1e-4", "nan", "-1", "inf", "1_0", "\u0663", "0x10",
                                     " 1e-4", "1e", ""])
    def test_bad_tol_is_config_error(self, rps_file, capsys, tol):
        assert main(["verify", "--game", rps_file, "--x", "csv:1,0,0",
                     f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: --tol={tol}\n"

    # HEDGE_NASH_TOL is not read: a loose value and one that is no number
    # change no output and no exit code
    @pytest.mark.parametrize("argv", [["verify", "--x", "csv:1,0,0"],
                                      ["verify", "--x", "uniform"],
                                      ["verify", "--support", "0"],
                                      ["verify", "--support", "0,1,2"],
                                      ["extract", "--steps", "2000"]],
                             ids=["x-pure", "x-uniform", "support-pure", "support-full",
                                  "extract"])
    @pytest.mark.parametrize("value", ["1", "tight"])
    def test_tolerance_env_changes_nothing(self, rps_file, capsys, monkeypatch, argv,
                                           value):
        args = [argv[0], "--game", rps_file, *argv[1:]]
        monkeypatch.delenv("HEDGE_NASH_TOL", raising=False)
        rc = main(args)
        unset = capsys.readouterr()
        monkeypatch.setenv("HEDGE_NASH_TOL", value)
        assert main(args) == rc
        assert capsys.readouterr() == unset

    def test_lp_failure_is_config_error(self, tmp_path, capsys, monkeypatch):
        # rock copied as strategy 3: the full carrier's indifference system
        # is singular and consistent, so --support takes its verdict from the
        # LP, and a failed LP is exit 2
        path = tmp_path / "dup_rps.json"
        save_game(validate_game([[0.5, 0, 1, 0.5], [1, 0.5, 0, 1], [0, 1, 0.5, 0],
                                 [0.5, 0, 1, 0.5]]), path)

        def broken(lp):
            raise LPError("LP solution violates A y = b by 0.1")

        monkeypatch.setattr(analysis, "solve_lp", broken)
        assert main(["verify", "--game", str(path), "--support", "0,1,2,3"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: LP solution violates A y = b by 0.1"]

    def test_lp_failure_leaves_x_verdict_to_gap(self, rps_file, capsys, monkeypatch):
        # verify --x never calls the LP: a broken one changes nothing
        def broken(lp):
            raise LPError("LP solution violates A y = b by 0.1")

        monkeypatch.setattr(analysis, "solve_lp", broken)
        assert main(["verify", "--game", rps_file, "--x", "uniform"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("gap: ")
        assert lines[1].startswith("well-supported at eps=1e-08: ")
        assert lines[2] == "verified"

    def test_bland_cycling_spread_is_numeric(self, capsys):
        # under Bland's rule with tolerance ties, phase 2 of this spread
        # program revisits a basis with period 12; the lexicographic ratio
        # test solves it, and the uniform strategy's gap fails the verdict
        assert main(["verify", "--game", "random_uniform:40:5", "--x", "uniform"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[2] == "verification failed"
        spread = min_equalizer_gap(generate_game("random_uniform", 40, 5))[1]
        assert spread == pytest.approx(0.0935471516845554, abs=1e-9)

    def test_mid_size_equalizer_spread_solves(self):
        # the pairwise spread program broke down on this game
        x, spread = min_equalizer_gap(generate_game("random_uniform", 16, 1))
        assert x.min() >= 0.0 and x.sum() == pytest.approx(1.0)
        assert 0.0 <= spread < 1.0

    @pytest.mark.parametrize("name, text", [
        ("arabic.txt", "\u0662\n0.5 0\n0 0.5\n"),
        ("spaced.txt", "2_0\n0.5 0\n0 0.5\n"),
        ("fraction.json", '{"n": 2.5, "payoff": [[0.5, 0], [0, 0.5]]}'),
        ("string.json", '{"n": "2", "payoff": [[0.5, 0], [0, 0.5]]}'),
        ("bool.json", '{"n": true, "payoff": [[0.5, 0], [0, 0.5]]}'),
    ])
    def test_game_file_n_is_an_integer(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["verify", "--game", str(path), "--support", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_requires_exactly_one_input(self, rps_file):
        assert main(["verify", "--game", rps_file]) == 2
        assert main(["verify", "--game", rps_file, "--x", "uniform",
                     "--support", "0"]) == 2


class TestOracle:
    def test_identity_equilibria(self, identity_file, capsys):
        rc = main(["oracle", "--game", identity_file])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["equilibria"]) == 3

    def test_dimension_cap_is_config_error(self, tmp_path, capsys):
        rc = main(["oracle", "--game", "random_uniform:7:0"])
        assert rc == 2


class TestGenerateDecompose:
    def test_generate_writes_game(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["generate", "--kind", "zero_sum_symmetric", "--n", "3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        g = load_game(out)
        assert g.n == 3 and g.normalized

    @pytest.mark.parametrize("argv, n", [
        (["generate", "--kind", "random_uniform", "--n", "100000", "--out", "g.json"],
         100000),
        (["run", "--game", "random_uniform:100000", "--steps", "10", "--out", "t.csv"],
         100000),
        (["verify", "--game", "coordination:1001", "--support", "0"], 1001),
    ])
    def test_oversized_generated_game_is_config_error(self, tmp_path, monkeypatch,
                                                       capsys, argv, n):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: generated games are limited to n <= 1000, got n={n}"]

    def test_decompose_output(self, identity_file, capsys):
        rc = main(["decompose", "--game", identity_file])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["doubly_symmetric"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["zero_sum"] == [[0.0, 0.0], [0.0, 0.0]]


class TestDiagnose:
    def test_small_sample_passes(self, rps_file, capsys):
        rc = main(["diagnose", "--game", rps_file, "--samples", "50"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True

    def test_zero_samples_vacuous(self, rps_file, capsys):
        # the library's report: three checks of no sample, each passing
        rc = main(["diagnose", "--game", rps_file, "--samples", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True and len(payload["checks"]) == 3
        assert all(c["samples"] == 0 and c["max_violation"] == 0.0 and c["passed"]
                   for c in payload["checks"])

    def test_zero_samples_written_to_out(self, rps_file, tmp_path, capsys):
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--game", rps_file, "--samples", "0",
                     "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        checks = json.loads(out.read_text())["checks"]
        assert [c["samples"] for c in checks] == [0, 0, 0]

    def test_negative_samples_is_config_error(self, rps_file, capsys):
        assert main(["diagnose", "--game", rps_file, "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: samples must be >= 0, got -5"]

    def test_unnormalized_game_is_normalized_first(self, tmp_path):
        path = tmp_path / "big.json"
        save_game(validate_game([[0.0, 3.0], [1.0, 2.0]]), path)
        assert main(["diagnose", "--game", str(path), "--samples", "20"]) == 0


class TestExtract:
    def test_from_trace_file(self, rps_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["run", "--game", rps_file, "--steps", "200",
                     "--emit-every", "50", "--out", str(trace)]) == 0
        capsys.readouterr()
        rc = main(["extract", "--game", rps_file, "--trace", str(trace)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["support"] == [0, 1, 2]

    def test_in_memory_run(self, identity_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main(["extract", "--game", identity_file, "--steps", "1000",
                   "--x0", "csv:0.9,0.1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["support"] == [0]

    # a file trace was run already: a run flag would change nothing
    @pytest.mark.parametrize("flags", [
        ["--schedule", "bogus"], ["--x0", "bogus"], ["--steps", "7"],
        ["--steps", "7", "--seed", "0"], ["--seed", "0"], ["--force"],
        ["--schedule", "power:0.5", "--x0", "uniform", "--steps", "7", "--force"]])
    def test_trace_refuses_run_flags(self, rps_file, tmp_path, capsys, flags):
        trace = tmp_path / "t.csv"
        assert main(["run", "--game", rps_file, "--steps", "200",
                     "--emit-every", "50", "--out", str(trace)]) == 0
        capsys.readouterr()
        rc = main(["extract", "--game", rps_file, "--trace", str(trace), *flags])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        given = ", ".join(f for f in flags if f.startswith("--"))
        assert captured.err.splitlines() == [
            f"error: --trace takes no run flags, got {given}"]

    def test_in_memory_run_emits_first_and_last_step(self, monkeypatch, capsys):
        # extraction reads only the final record, so no other is emitted
        traces = []

        def recorded(*args, **kwargs):
            traces.append(run_trajectory(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "run_trajectory", recorded)
        assert main(["extract", "--game", "coordination:3", "--steps", "2500"]) == 0
        assert traces[0].steps.tolist() == [0, 2500]
        assert json.loads(capsys.readouterr().out)["certificate"] is not None

    @pytest.mark.parametrize("trace", [False, True])
    def test_emit_every_is_no_extract_flag(self, rps_file, tmp_path, capsys, trace):
        source = (["--trace", str(tmp_path / "t.csv")] if trace else ["--steps", "50"])
        rc = main(["extract", "--game", rps_file, *source, "--emit-every", "3"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: unrecognized arguments: --emit-every 3"]

    def test_trace_of_another_n_is_config_error(self, rps_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["run", "--game", rps_file, "--steps", "20", "--out", str(trace)]) == 0
        capsys.readouterr()
        rc = main(["extract", "--game", "random_uniform:4", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == ["error: trace has n=3, game has n=4"]

    def test_missing_trace_and_steps(self, rps_file):
        assert main(["extract", "--game", rps_file]) == 2

    # the sweep tries every criterion in order; none is chosen, so --criteria
    # is no flag
    def test_iterate_mass_is_no_criterion(self, capsys):
        rc = main(["extract", "--game", "coordination:3", "--steps", "200",
                   "--criteria", "iterate_mass"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: unrecognized arguments: --criteria iterate_mass"]

    def test_unknown_criterion_is_config_error(self, capsys):
        rc = main(["extract", "--game", "coordination:3", "--steps", "200",
                   "--criteria", "average_payoff,bogus"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: unrecognized arguments: --criteria average_payoff,bogus"]

    @pytest.mark.parametrize("flag", ["--steps", "--seed", "--x0", "--game"])
    def test_double_dash_value_is_usage_error(self, capsys, flag):
        # argparse stores [] for a flag whose value is "--"
        args = {"--game": "coordination:3", "--steps": "5", "--x0": "random"}
        argv = ["extract", *(f"{k}={v}" for k, v in args.items() if k != flag),
                f"{flag}=--"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: argument {flag}: expected one argument"]

    def test_second_criterion_certifies(self, capsys):
        assert main(["extract", "--game", "zero_sum_symmetric:10:1",
                     "--steps", "10000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["method"] == "extract:average_mass:m=3"


class TestUsage:
    def test_unknown_command(self):
        assert main(["conquer"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: hedge-nash") and captured.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--game", "random_uniform:3", "--steps", "abc"],
         "argument --steps: invalid int value: 'abc'"),
        (["conquer"], "argument command: invalid choice: 'conquer'"),
        ([], "the following arguments are required: command"),
        (["generate", "--n", "3", "--out", "g.json"],
         "the following arguments are required: --kind"),
        (["run", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        # integers are ASCII digits with an optional sign: Python's int()
        # also reads digit separators, other scripts' digits and spaces
        (["run", "--game", "random_uniform:3", "--steps", "1_0"],
         "argument --steps: invalid int value: '1_0'"),
        (["run", "--game", "random_uniform:3", "--steps", "10", "--emit-every", "\u0665"],
         "argument --emit-every: invalid int value: '\u0665'"),
        (["diagnose", "--game", "random_uniform:3", "--samples", " 10"],
         "argument --samples: invalid int value: ' 10'"),
        (["run", "--game", "random_uniform:\u0663", "--steps", "10"],
         "game spec 'random_uniform:\u0663': invalid int value: '\u0663'"),
        (["extract", "--game", "random_uniform:3:1_0", "--steps", "10"],
         "game spec 'random_uniform:3:1_0': invalid int value: '1_0'"),
        (["verify", "--game", "random_uniform:3", "--support", "0,\u0663"],
         "--support: invalid int value: '\u0663'"),
        # verify --x is read as run --x0 is, and its errors name the flag
        (["run", "--game", "random_uniform:3", "--steps", "10", "--x0", "foo"],
         "cannot parse start spec 'foo'; expected uniform | random | csv:p1,p2,..."),
        (["run", "--game", "random_uniform:3", "--steps", "10", "--x0", "csv:"],
         "start vector entry: could not convert string to float: ''"),
        (["verify", "--game", "random_uniform:3:0", "--x", "foo"],
         "cannot parse --x spec 'foo'; expected uniform | random | csv:p1,p2,..."),
        (["verify", "--game", "random_uniform:3:0", "--x", "csv:"],
         "--x vector entry: could not convert string to float: ''"),
    ])
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {message}")

    # Python's float() reads each of these decimals
    @pytest.mark.parametrize("flags, message", [
        (["--schedule", "power:\u0660.\u0667"],
         "schedule 'power:\u0660.\u0667': could not convert string to float: "
         "'\u0660.\u0667'"),
        (["--schedule", "constant: 1", "--force"],
         "schedule 'constant: 1': could not convert string to float: ' 1'"),
        (["--schedule", "file:rates.txt"],
         "schedule file rates.txt: could not convert string to float: '1_0'"),
        (["--x0", "csv:\u0660.\u0665,\u0660.\u0665"],
         "start vector entry: could not convert string to float: '\u0660.\u0665'"),
        (["--game", "game.txt"],
         "game.txt: text game file entry: could not convert string to float: '1_0'"),
    ])
    def test_decimals_are_ascii(self, tmp_path, monkeypatch, capsys, flags, message):
        (tmp_path / "rates.txt").write_text("1_0 \u0663 1e-1")
        (tmp_path / "game.txt").write_text("2\n1_0 0 0 \u0661\n")
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--game", "random_uniform:2", "--steps", "2", "--out", "t.csv"]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["game.txt", "rates.txt"]

    def test_json_payoff_string_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"payoff": [["1_0", 0], [0, "1"]]}')
        assert main(["verify", "--game", str(path), "--support", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            f"error: {path}: payoff[0][0] = '1_0' is not a JSON number"]

    def test_parser_built_once_keeps_no_values_between_calls(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        game, steps = ["--game", "random_uniform:3:0"], ["--steps", "20"]
        first = tmp_path / "first.jsonl"
        assert main(["run", *game, *steps, "--schedule", "constant:0.5", "--force",
                     "--format", "jsonl", "--out", str(first)]) == 0
        assert main(["extract", *game, *steps, "--x0", "bogus"]) == 2
        # no --force, --format, --out or --x0 is carried into a later call
        second = tmp_path / "second.csv"
        assert main(["run", *game, *steps, "--schedule", "constant:0.5",
                     "--out", str(second)]) == 2
        assert main(["run", *game, *steps, "--out", str(second)]) == 0
        summary = json.loads(Path(f"{second}.summary.json").read_text())
        assert summary["format"] == "csv" and not summary["forced"]
        assert second.read_text().startswith("K,alpha,")
        assert main(["extract", *game, *steps]) in (0, 1)
        assert json.loads(Path(f"{first}.summary.json").read_text())["forced"]
