"""The benchmark's workloads: how each builds its games from a seed, and the
pipeline each game goes through. Every call into hedgenash goes through a
module attribute (``dynamics.run_trajectory``, ``cli.main``, ...) so that a
traced run sees it.

Each workload is a closed loop: one caller in one process, games back to
back. Why each exists is in BENCHMARK.json; the sizes are below.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import hedgenash.analysis as analysis
import hedgenash.cli as cli
import hedgenash.dynamics as dynamics
import hedgenash.extraction as extraction
from hedgenash import DEFAULT_SCHEDULE, generate_game, save_game, uniform_strategy

from gate import recheck_certificate, recheck_spread

KINDS = ("random_uniform", "zero_sum_symmetric", "doubly_symmetric")


@dataclass
class Game:
    gid: int
    kind: str
    n: int
    seed: int
    game: object                # hedgenash.SymmetricGame
    path: str | None = None     # game file written during set-up (CLI workloads)


@dataclass
class Outcome:
    status: str                 # certified | no_certificate | failed
    failure: str | None = None  # exception type, "recheck" or "cli_exit_2"
    message: str | None = None
    rechecked: int = 0          # outputs the gate looked at


def no_tamper(payoff, certificate):
    return certificate


def _certificate_outcome(game: Game, certificate: dict | None, tol: float,
                         tamper, oracle=None, rechecked: int = 0) -> Outcome:
    if certificate is None:
        return Outcome("no_certificate", rechecked=rechecked)
    certificate = tamper(game.game.payoff, certificate)
    reason = recheck_certificate(game.game.payoff, certificate, tol, oracle)
    if reason:
        return Outcome("failed", "recheck", reason, rechecked + 1)
    return Outcome("certified", rechecked=rechecked + 1)


class SmallBatch:
    """Normalized n = 3..6 games from a uniform start, a long power(2/3)
    run with about 100 records, in-memory extraction, the trajectory
    identities, and a cross-check against the support-enumeration oracle."""

    name = "small_batch"
    whole_passes = False
    tail_cap = 85

    def __init__(self, tiny: bool):
        self.steps = 2_000 if tiny else 20_000
        self.emit_every = self.steps // 100
        self.pool = 12 if tiny else 400

    def build(self, seed: int, workdir: Path) -> list[Game]:
        rng = random.Random(seed)
        games = []
        for i in range(self.pool):
            kind, n = KINDS[i % 3], 3 + (i // 3) % 4
            s = rng.getrandbits(31)
            games.append(Game(i, kind, n, s, generate_game(kind, n, s)))
        return games

    def play(self, g: Game, tracer, workdir: Path, tol: float, tamper) -> Outcome:
        trace = dynamics.run_trajectory(g.game, uniform_strategy(g.n), DEFAULT_SCHEDULE,
                                        self.steps, emit_every=self.emit_every)
        outcome = extraction.extract_certificate(g.game, trace)
        dynamics.diagnose_trajectory_identities(g.game, trace)
        oracle = analysis.enumerate_symmetric_equilibria(g.game)
        certificate = outcome.certificate.to_dict() if outcome.certificate else None
        return _certificate_outcome(g, certificate, tol, tamper,
                                    oracle=[c.strategy for c in oracle])


class MidLP:
    """A fixed panel of random_uniform and zero_sum_symmetric games,
    n = 10..16, generator seeds 0 and 1, in an order drawn from the seed.
    Each gets a short run, the full extraction sweep, and min_equalizer_gap
    (the `verify --x` path). The run repeats whole passes over the panel.

    The panel is fixed because these games' cost spans 0.1 s to 5 s and
    whether one certifies, sweeps every prefix or raises depends on the
    game: 30 s of seeded random games varied by 20-40% from seed to seed,
    more than any bound the benchmark could hold."""

    name = "mid_lp"
    whole_passes = True
    tail_cap = 60

    def __init__(self, tiny: bool):
        self.steps = 1_000 if tiny else 10_000
        self.emit_every = self.steps // 10
        self.panel = ([(kind, 10, 0) for kind in KINDS[:2]] if tiny else
                      [(kind, n, s) for kind in KINDS[:2]
                       for n in range(10, 17) for s in (0, 1)])

    def build(self, seed: int, workdir: Path) -> list[Game]:
        order = list(self.panel)
        random.Random(seed).shuffle(order)
        return [Game(i, kind, n, s, generate_game(kind, n, s))
                for i, (kind, n, s) in enumerate(order)]

    def play(self, g: Game, tracer, workdir: Path, tol: float, tamper) -> Outcome:
        trace = dynamics.run_trajectory(g.game, uniform_strategy(g.n), DEFAULT_SCHEDULE,
                                        self.steps, emit_every=self.emit_every)
        outcome = extraction.extract_certificate(g.game, trace)
        x, spread = analysis.min_equalizer_gap(g.game)
        reason = recheck_spread(g.game.payoff, x, spread)
        if reason:
            return Outcome("failed", "recheck", reason, 1)
        certificate = outcome.certificate.to_dict() if outcome.certificate else None
        return _certificate_outcome(g, certificate, tol, tamper, rechecked=1)


class TraceAudit:
    """A fixed panel of n = 8 games, one of each kind for generator seeds
    0..7, in an order drawn from the seed, through the in-process CLI:
    `run` emitting every step to CSV (even generator seed) or JSONL (odd),
    `extract --trace` reading that file back, and `diagnose --samples`.
    The run repeats whole passes over the panel.

    The panel is fixed, like mid_lp's, so that every run plays the same
    games in the same proportions: with seeded random games, a rare game
    whose extraction raises in solve_lp (about 1 in 950) turned up in some
    runs and not in others. The panel was not filtered: generator seeds
    0..7 are the first eight, and none of them raises."""

    name = "trace_audit"
    whole_passes = True
    tail_cap = 75

    def __init__(self, tiny: bool):
        self.steps = 300 if tiny else 2_500
        self.samples = 10 if tiny else 100
        self.panel = [(kind, s) for kind in KINDS for s in range(2 if tiny else 8)]

    def build(self, seed: int, workdir: Path) -> list[Game]:
        order = list(self.panel)
        random.Random(seed).shuffle(order)
        games_dir = workdir / "games"
        games_dir.mkdir(parents=True, exist_ok=True)
        games = []
        for i, (kind, s) in enumerate(order):
            game = generate_game(kind, 8, s)
            path = games_dir / f"game{i}.json"
            save_game(game, path)
            games.append(Game(i, kind, 8, s, game, str(path)))
        return games

    @staticmethod
    def _cli(tracer, span: str, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(span), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def play(self, g: Game, tracer, workdir: Path, tol: float, tamper) -> Outcome:
        fmt = "csv" if g.seed % 2 == 0 else "jsonl"
        trace_path = workdir / f"trace.{fmt}"
        try:
            code, _, err = self._cli(tracer, "cli.run", [
                "run", "--game", g.path, "--steps", str(self.steps), "--emit-every", "1",
                "--format", fmt, "--out", str(trace_path)])
            if code != 0:
                return Outcome("failed", "cli_exit_2", f"run: {err.strip()}")
            code, text, err = self._cli(tracer, "cli.extract", [
                "extract", "--game", g.path, "--trace", str(trace_path)])
            if code == 2:
                return Outcome("failed", "cli_exit_2", f"extract: {err.strip()}")
            certificate = json.loads(text)["certificate"]
            if (certificate is None) != (code == 1):
                return Outcome("failed", "recheck",
                               f"extract exit {code} disagrees with its certificate")
            code, _, err = self._cli(tracer, "cli.diagnose", [
                "diagnose", "--game", g.path, "--samples", str(self.samples),
                "--seed", str(g.seed)])
            if code == 2:
                return Outcome("failed", "cli_exit_2", f"diagnose: {err.strip()}")
        finally:
            trace_path.unlink(missing_ok=True)
            Path(f"{trace_path}.summary.json").unlink(missing_ok=True)
        return _certificate_outcome(g, certificate, tol, tamper)


WORKLOADS = {w.name: w for w in (SmallBatch, MidLP, TraceAudit)}
