import json

import numpy as np
import pytest

import hedgenash.analysis as analysis
from hedgenash import LPError, load_game, save_game, validate_game
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

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "forced"])
    @pytest.mark.parametrize("rates", ["power:nan", "file"])
    def test_non_finite_schedule_is_config_error(self, rps_file, tmp_path, capsys,
                                                 rates, force):
        if rates == "file":
            path = tmp_path / "rates.txt"
            path.write_text("0.5 nan " * 60)
            rates = f"file:{path}"
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", rps_file, "--steps", "100", "--schedule",
                   rates, "--out", str(out)] + force)
        assert rc == 2 and not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_force_flags_summary(self, rps_file, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["run", "--game", rps_file, "--steps", "100",
                   "--schedule", "power:0.4", "--force", "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "t.csv.summary.json").read_text())
        assert summary["forced"] is True and summary["schedule_valid"] is False

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

    def test_batch_config_with_jobs(self, rps_file, identity_file, tmp_path):
        configs = [
            {"game": rps_file, "steps": 200, "out": str(tmp_path / "r1.csv")},
            {"game": identity_file, "steps": 200, "out": str(tmp_path / "r2.csv")},
        ]
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps(configs))
        rc = main(["run", "--config", str(cfg), "--jobs", "2"])
        assert rc == 0
        assert (tmp_path / "r1.csv").exists() and (tmp_path / "r2.csv").exists()


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

    def test_support_tol_is_honoured(self, tmp_path):
        # row 1 earns row 0's payoff plus 1e-5 against anything: spread 1e-5
        path = tmp_path / "near.json"
        save_game(validate_game([[0.2, 0.4], [0.2 + 1e-5, 0.4 + 1e-5]]), path)
        args = ["verify", "--game", str(path), "--support", "0,1"]
        assert main(args) == 1
        assert main(args + ["--tol", "1e-4"]) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_is_config_error(self, rps_file, capsys, tol):
        assert main(["verify", "--game", rps_file, "--support", "0",
                     f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_non_numeric_env_tolerance_is_config_error(self, rps_file, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("HEDGE_NASH_TOL", "tight")
        assert main(["verify", "--game", rps_file, "--support", "0,1,2"]) == 2
        err = capsys.readouterr().err
        assert "HEDGE_NASH_TOL" in err and len(err.splitlines()) == 1

    def test_lp_failure_is_config_error(self, rps_file, capsys, monkeypatch):
        def broken(lp):
            raise LPError("LP solution violates A y = b by 0.1")

        monkeypatch.setattr(analysis, "solve_lp", broken)
        assert main(["verify", "--game", rps_file, "--x", "uniform"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: LP solution violates A y = b by 0.1"]

    def test_mid_size_equalizer_spread_solves(self):
        # the pairwise spread program broke down on this game
        assert main(["verify", "--game", "random_uniform:16:1",
                     "--x", "uniform"]) in (0, 1)

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
        rc = main(["diagnose", "--game", rps_file, "--samples", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vacuous"] is True and payload["checks"] == []

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

    def test_missing_trace_and_steps(self, rps_file):
        assert main(["extract", "--game", rps_file]) == 2


class TestUsage:
    def test_unknown_command(self):
        assert main(["conquer"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0
