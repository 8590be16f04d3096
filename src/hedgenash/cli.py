"""Command-line harness: seeded, reproducible experiments and checks.

Commands: run, extract, verify, oracle, generate, decompose, diagnose.
Exit codes: 0 success/verified, 1 verification failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    certificate_tolerance,
    enumerate_symmetric_equilibria,
    epsilon_gap,
    min_equalizer_gap,
    verify_support,
    well_supported_eps,
)
from .dynamics import (
    DEFAULT_SCHEDULE,
    ScheduleError,
    Trace,
    diagnose_entropy_bounds,
    parse_schedule,
    run_trajectory,
)
from .extraction import CRITERIA, extract_certificate
from .game import (
    GAME_KINDS,
    GameError,
    SymmetricGame,
    decompose,
    denormalize_gap,
    generate_game,
    load_game,
    normalize_payoffs,
    save_game,
    uniform_strategy,
)
from .lp import LPError
from .rng import Xoshiro256StarStar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _load_game_spec(spec: str) -> SymmetricGame:
    """Load a game from a file path or a generator spec kind:n[:seed]."""
    if Path(spec).exists():
        return load_game(spec)
    parts = spec.split(":")
    if parts[0] in GAME_KINDS and len(parts) in (2, 3):
        n = int(parts[1])
        seed = int(parts[2]) if len(parts) == 3 else 0
        return generate_game(parts[0], n, seed)
    raise GameError(f"game spec {spec!r} is neither a readable file "
                    f"nor kind:n[:seed] with kind in {GAME_KINDS}")


def _parse_x0(spec: str, n: int, seed: int) -> np.ndarray:
    if spec == "uniform":
        return uniform_strategy(n)
    if spec == "random":
        return Xoshiro256StarStar(seed).interior_point(n)
    if spec.startswith("csv:"):
        return np.array([float(tok) for tok in spec[4:].split(",")])
    raise GameError(f"cannot parse start spec {spec!r}; "
                    "expected uniform | random | csv:p1,p2,...")


def _parse_schedule_arg(spec: str | None):
    return DEFAULT_SCHEDULE if spec is None else parse_schedule(spec)


def _run_one(config: dict) -> dict:
    """Execute one run config; returns the summary dict (also written out)."""
    game = _load_game_spec(config["game"])
    schedule = _parse_schedule_arg(config.get("schedule"))
    seed = int(config.get("seed", 0))
    x0 = _parse_x0(config.get("x0", "uniform"), game.n, seed)
    steps = int(config["steps"])
    emit_every = int(config.get("emit_every", 1000))
    force = bool(config.get("force", False))
    out = config.get("out", "hedge_trace.csv")
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "jsonl"):
        raise GameError(f"unknown trace format {fmt!r}")

    started = time.perf_counter()
    trace = run_trajectory(game, x0, schedule, steps,
                           emit_every=emit_every, force=force)
    wall = time.perf_counter() - started
    if fmt == "csv":
        trace.to_csv(out)
    else:
        trace.to_jsonl(out)

    validation = schedule.validation
    final = trace.final
    summary = {
        "game": config["game"],
        "game_digest": game.digest(),
        "n": game.n,
        "schedule": schedule.label,
        "schedule_valid": validation.valid,
        "schedule_reason": validation.reason,
        "schedule_flags": list(validation.flags),
        "forced": trace.forced,
        "x0": [float(v) for v in x0],
        "steps": steps,
        "emit_every": emit_every,
        "seed": seed,
        "trace": str(out),
        "format": fmt,
        "final_step": final.step,
        "final_gap_avg": final.gap_avg,
        "final_gap_iter": final.gap_iter,
        "final_gap_avg_game_units": denormalize_gap(game, final.gap_avg),
        "final_xbar": [float(v) for v in final.xbar],
        "wall_time_s": wall,
    }
    Path(str(out) + ".summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


# The keys of a --config entry and the JSON types they take; any may be
# null except "game" and "steps", which have no default.
_CONFIG_TYPES = {"game": str, "steps": int, "schedule": str, "x0": str,
                 "seed": int, "emit_every": int, "force": bool, "out": str,
                 "format": str}


def _check_config(index: int, config) -> None:
    if not isinstance(config, dict):
        raise GameError(f"--config entry {index} is not a JSON object")
    for key in ("game", "steps"):
        if config.get(key) is None:
            raise GameError(f"--config entry {index} has no {key!r}")
    for key, kind in _CONFIG_TYPES.items():
        value = config.get(key)
        if value is not None and type(value) is not kind:   # JSON true is no int
            raise GameError(f"--config entry {index}: {key!r} must be "
                            f"{kind.__name__}, got {value!r}")


def cmd_run(args) -> int:
    if not args.config and not args.game:
        raise GameError("--game is required without --config")
    if args.jobs < 1:
        raise GameError(f"--jobs must be >= 1, got {args.jobs}")
    if args.config:
        configs = json.loads(Path(args.config).read_text())
        if not isinstance(configs, list):
            raise GameError("--config must hold a JSON list of run configs")
        for index, config in enumerate(configs):
            _check_config(index, config)
        workers = min(args.jobs, len(configs))
        if workers > 1:
            with multiprocessing.Pool(workers) as pool:
                summaries = pool.map(_run_one, configs)
        else:
            summaries = [_run_one(cfg) for cfg in configs]
        print(json.dumps(summaries, indent=2))
        return EXIT_OK
    if args.steps is None:
        raise GameError("--steps is required without --config")
    config = {
        "game": args.game, "schedule": args.schedule, "x0": args.x0,
        "steps": args.steps, "emit_every": args.emit_every, "seed": args.seed,
        "force": args.force, "out": args.out or "hedge_trace.csv",
        "format": args.format,
    }
    summary = _run_one(config)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_extract(args) -> int:
    game = _load_game_spec(args.game)
    if args.trace:
        trace = Trace.from_file(args.trace)
        if trace.x0 is None:
            raise GameError(f"{args.trace}: the first record has K = {trace.steps[0]}, "
                            "not 0, so the start X^0 is unknown")
        if trace.n != game.n:
            raise GameError(f"trace has n={trace.n}, game has n={game.n}")
    else:
        if args.steps is None:
            raise GameError("either --trace or --steps is required")
        schedule = _parse_schedule_arg(args.schedule)
        x0 = _parse_x0(args.x0, game.n, args.seed)
        trace = run_trajectory(game, x0, schedule, args.steps,
                               emit_every=args.emit_every, force=args.force)
    criteria = tuple(args.criteria.split(",")) if args.criteria else CRITERIA
    outcome = extract_certificate(game, trace, criteria=criteria)
    payload = outcome.to_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if outcome.certificate is not None else EXIT_FAILED


def cmd_verify(args) -> int:
    game = _load_game_spec(args.game)
    tol = args.tol if args.tol is not None else certificate_tolerance()
    if not 0.0 <= tol < np.inf:
        raise GameError(f"--tol must be finite and >= 0, got {tol!r}")
    if (args.x is None) == (args.support is None):
        raise GameError("exactly one of --x or --support is required")

    if args.support is not None:
        candidate = [int(tok) for tok in args.support.split(",")]
        cert = verify_support(game, candidate, tol=tol)
        if cert is None:
            print(f"support {candidate}: no equilibrium certificate "
                  f"(subequalizer infeasible or spread > {tol:g})")
            return EXIT_FAILED
        print(f"certificate strategy: {[round(float(v), 12) for v in cert.strategy]}")
        print(f"support: {list(cert.support)}")
        print(f"gap: {cert.gap:.17g} (game units {cert.game_units_gap:.17g})")
        return EXIT_OK

    x = _parse_x0(args.x, game.n, args.seed)
    if x.size != game.n:
        raise GameError(f"strategy has length {x.size}, game has n={game.n}")
    with np.errstate(over="ignore"):           # a sum past the float range is inf
        total = x.sum()
    if x.min() < -1e-6 or abs(total - 1.0) > 1e-6:
        raise GameError(
            f"vector is off the simplex beyond 1e-6 (sum {total:.17g}, "
            f"min {x.min():.17g}); refusing to renormalize silently")
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    gap = epsilon_gap(game, x)
    ws = well_supported_eps(game, x)
    _, spread = min_equalizer_gap(game)
    passed = gap <= tol
    print(f"gap: {gap:.17g} (game units {denormalize_gap(game, gap):.17g})")
    print(f"well-supported at eps={tol:g}: {ws <= tol} (eps* = {ws:.17g})")
    print(f"equalizer spread: {spread:.17g}")
    print("verified" if passed else "verification failed")
    return EXIT_OK if passed else EXIT_FAILED


def cmd_oracle(args) -> int:
    game = _load_game_spec(args.game)
    certs = enumerate_symmetric_equilibria(game)
    payload = {"game_digest": game.digest(),
               "equilibria": [c.to_dict() for c in certs]}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    game = generate_game(args.kind, args.n, args.seed)
    save_game(game, args.out, fmt=args.fmt)
    print(f"wrote {args.kind} {game.n}x{game.n} game (seed {args.seed}) to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    game = _load_game_spec(args.game)
    sym, skew = decompose(game)
    payload = {
        "doubly_symmetric": [[float(v) for v in row] for row in sym],
        "zero_sum": [[float(v) for v in row] for row in skew],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    game = _load_game_spec(args.game)
    if args.samples == 0:
        print(json.dumps({"all_passed": True, "vacuous": True, "checks": []},
                         indent=2))
        return EXIT_OK
    if not game.normalized:
        game, _, _ = normalize_payoffs(game)
    report = diagnose_entropy_bounds(game, args.samples, args.seed)
    payload = report.to_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report.all_passed else EXIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse_args call
    fills a fresh namespace from the declared defaults, so nothing one
    call parses is seen by the next."""
    parser = argparse.ArgumentParser(
        prog="hedge-nash",
        description="Symmetric Nash equilibria via Hedge self-play with "
                    "weighted averaging and LP certificate extraction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game(p):
        p.add_argument("--game", required=True,
                       help="game file (JSON or text) or generator spec kind:n[:seed]")

    def add_run_flags(p):
        p.add_argument("--schedule",
                       help="power:P | harmonic | constant:C | file:PATH "
                            "(default power:2/3)")
        p.add_argument("--x0", default="uniform", help="uniform | random | csv:p1,p2,...")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--emit-every", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--force", action="store_true",
                       help="run even if the schedule fails validation")

    p = sub.add_parser("run", help="run a trajectory and write a trace + summary")
    p.add_argument("--game", help="game file or generator spec kind:n[:seed]")
    add_run_flags(p)
    p.add_argument("--out", help="trace output path (default hedge_trace.csv)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--config", help="JSON list of run configs (batch mode)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel processes for --config batches")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("extract", help="extract an equilibrium certificate")
    add_game(p)
    p.add_argument("--trace", help="existing trace file (CSV or JSONL)")
    add_run_flags(p)
    p.add_argument("--criteria", help="comma list from: " + ",".join(CRITERIA))
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="check a strategy or support set")
    add_game(p)
    p.add_argument("--x", help="uniform | random | csv:p1,p2,...")
    p.add_argument("--support", help="comma list of 0-based indices")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="enumerate all symmetric equilibria (n <= 6)")
    add_game(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="write a seeded test game")
    p.add_argument("--kind", choices=GAME_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--fmt", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="split payoffs into doubly symmetric + zero-sum parts")
    add_game(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("diagnose", help="run the entropy-inequality diagnostics")
    add_game(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # a MemoryError is an argument (a step count) whose arrays cannot be allocated
    except (GameError, ScheduleError, LPError, OSError,
            ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
