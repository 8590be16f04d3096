"""Command-line harness: seeded, reproducible experiments and checks.

Commands: run, extract, verify, oracle, generate, decompose, diagnose.
Exit codes: 0 success/verified, 1 verification failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    certificate_tolerance,
    enumerate_symmetric_equilibria,
    epsilon_gap,
    verify_support,
    well_supported_eps,
    within_tolerance,
)
from .dynamics import (
    DEFAULT_SCHEDULE,
    Trace,
    check_run,
    diagnose_entropy_bounds,
    parse_schedule,
    run_trajectory,
)
from .extraction import extract_certificate
from .game import (
    GAME_KINDS,
    OFF_SIMPLEX_TOL,
    GameError,
    SymmetricGame,
    decompose,
    generate_game,
    load_game,
    normalize_payoffs,
    parse_float,
    parse_int,
    read_file,
    save_game,
    uniform_strategy,
)
from .rng import Xoshiro256StarStar

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# What main prints as a one-line error: GameError, ScheduleError and LPError
# are ValueErrors, and a MemoryError is a step count too large to allocate.
_CONFIG_ERRORS = (ValueError, argparse.ArgumentTypeError, OSError, KeyError, MemoryError)


def _load_game_spec(spec: str) -> SymmetricGame:
    """Load a game from a file path or a generator spec kind:n[:seed]."""
    if Path(spec).exists():
        return load_game(spec)
    parts = spec.split(":")
    if parts[0] in GAME_KINDS and len(parts) in (2, 3):
        n, seed = (parse_int(part, f"game spec {spec!r}: ")
                   for part in (parts + ["0"])[1:3])
        return generate_game(parts[0], n, seed)
    raise GameError(f"game spec {spec!r} is neither a readable file "
                    f"nor kind:n[:seed] with kind in {GAME_KINDS}")


def _parse_x0(spec: str, n: int, seed: int, name: str = "start") -> np.ndarray:
    """The vector of run's --x0 or, with ``name`` "--x", of verify's --x."""
    if spec == "uniform":
        return uniform_strategy(n)
    if spec == "random":
        return Xoshiro256StarStar(seed).interior_point(n)
    if spec.startswith("csv:"):
        return np.array([parse_float(tok, f"{name} vector entry: ")
                         for tok in spec[4:].split(",")])
    raise GameError(f"cannot parse {name} spec {spec!r}; "
                    "expected uniform | random | csv:p1,p2,...")


def _print_json(payload, out: str | None = None) -> None:
    """Print ``payload`` as indented JSON, and write it to ``out`` first if given."""
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _load_run(config: dict) -> tuple:
    """The game, schedule and start of a run config or of the run flags,
    loaded before it runs."""
    game = _load_game_spec(config["game"])
    spec = config.get("schedule")
    schedule = DEFAULT_SCHEDULE if spec is None else parse_schedule(spec)
    return game, schedule, _parse_x0(config["x0"], game.n, config["seed"])


def _run_one(config: dict, game: SymmetricGame, schedule, x0: np.ndarray) -> dict:
    """Execute a run config loaded by _load_run; returns the summary (also written out)."""
    out, fmt = config["out"], config["format"]
    started = time.perf_counter()
    trace = run_trajectory(game, x0, schedule, config["steps"],
                           emit_every=config["emit_every"], force=config["force"])
    wall = time.perf_counter() - started
    getattr(trace, f"to_{fmt}")(out)          # to_csv or to_jsonl

    final = trace.final
    summary = {
        "game": config["game"],
        "game_digest": game.digest(),
        "n": game.n,
        "schedule": schedule.label,
        "schedule_valid": schedule.valid,
        "schedule_reason": schedule.reason,
        "schedule_flags": list(schedule.flags),
        "forced": not schedule.valid,
        "x0": [float(v) for v in x0],
        "steps": config["steps"],
        "emit_every": config["emit_every"],
        "seed": config["seed"],
        "trace": str(out),
        "format": fmt,
        "final_step": final.step,
        "final_gap_avg": final.gap_avg,
        "final_gap_iter": final.gap_iter,
        "final_xbar": [float(v) for v in final.xbar],
        "wall_time_s": wall,
    }
    Path(str(out) + ".summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


# The keys of a --config entry, the JSON types they take, and the defaults
# of all but "game" and "steps", which may not be null, and "schedule", whose
# default is DEFAULT_SCHEDULE; the run flags take their defaults from here too.
_CONFIG_TYPES = {"game": str, "steps": int, "schedule": str, "x0": str,
                 "seed": int, "emit_every": int, "force": bool, "out": str,
                 "format": str}
_RUN_DEFAULTS = {"x0": "uniform", "seed": 0, "emit_every": 1000, "force": False,
                 "out": "hedge_trace.csv", "format": "csv"}
# The run flags extract shares, None unless given: extract --trace takes none.
_RUN_FLAGS = ("schedule", "x0", "steps", "seed", "force")


def _refuse_run_flags(args, keys, owner: str) -> None:
    """A usage error naming each of the run flags ``keys`` that was given."""
    given = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is not None]
    if given:
        raise GameError(f"{owner} takes no run flags, got {', '.join(given)}")


def _defaulted(config: dict) -> dict:
    """``config`` with each null setting at its default."""
    return {**_RUN_DEFAULTS, **{k: v for k, v in config.items() if v is not None}}


def _check_config(index: int, config) -> tuple:
    """--config entry ``index`` checked, its nulls defaulted, loaded and
    put through run_trajectory's checks: _run_one's arguments. Every entry
    is checked before any runs."""
    if not isinstance(config, dict):
        raise GameError(f"--config entry {index} is not a JSON object")
    for key, value in config.items():
        if key not in _CONFIG_TYPES:
            raise GameError(f"--config entry {index}: unknown key {key!r}")
        kind = _CONFIG_TYPES[key]
        if value is not None and type(value) is not kind:   # JSON true is no int
            raise GameError(f"--config entry {index}: {key!r} must be "
                            f"{kind.__name__}, got {value!r}")
    for key in ("game", "steps"):
        if config.get(key) is None:
            raise GameError(f"--config entry {index} has no {key!r}")
    config = _defaulted(config)
    try:
        if config["format"] not in ("csv", "jsonl"):
            raise GameError(f"unknown trace format {config['format']!r}")
        game, schedule, x0 = _load_run(config)
        check_run(game, x0, schedule, config["steps"], config["emit_every"],
                  config["force"])
        return config, game, schedule, x0
    except _CONFIG_ERRORS as exc:
        raise GameError(f"--config entry {index}: {exc}") from None


def cmd_run(args) -> int:
    if not args.config and not args.game:
        raise GameError("--game is required without --config")
    if args.config:
        _refuse_run_flags(args, _CONFIG_TYPES, "--config")
        configs = read_file(args.config, json.loads)
        if not isinstance(configs, list):
            raise GameError("--config must hold a JSON list of run configs")
        runs = [_check_config(index, config) for index, config in enumerate(configs)]
        _print_json([_run_one(*run) for run in runs])
        return EXIT_OK
    if args.steps is None:
        raise GameError("--steps is required without --config")
    config = _defaulted({key: getattr(args, key) for key in _CONFIG_TYPES})
    _print_json(_run_one(config, *_load_run(config)))
    return EXIT_OK


def cmd_extract(args) -> int:
    if args.trace:
        _refuse_run_flags(args, _RUN_FLAGS, "--trace")
        game = _load_game_spec(args.game)
        trace = Trace.from_file(args.trace)
        if trace.n != game.n:
            raise GameError(f"trace has n={trace.n}, game has n={game.n}")
    elif args.steps is None:
        raise GameError("either --trace or --steps is required")
    else:
        config = _defaulted(vars(args))
        game, schedule, x0 = _load_run(config)
        # extraction reads only the final record: emit K = 0 and the last step
        trace = run_trajectory(game, x0, schedule, args.steps, emit_every=args.steps,
                               force=config["force"])
    outcome = extract_certificate(game, trace)
    _print_json(outcome.to_dict(), args.out)
    return EXIT_OK if outcome.certificate is not None else EXIT_FAILED


def cmd_verify(args) -> int:
    game = _load_game_spec(args.game)
    if (args.x is None) == (args.support is None):
        raise GameError("exactly one of --x or --support is required")

    if args.support is not None:
        candidate = sorted({parse_int(tok, "--support: ") for tok in args.support.split(",")})
        cert = verify_support(game, candidate)
        if cert is None:
            print(f"support {candidate}: no equilibrium certificate "
                  f"(subequalizer infeasible or spread > {certificate_tolerance():g})")
            return EXIT_FAILED
        print(f"certificate strategy: {[round(float(v), 12) for v in cert.strategy]}")
        print(f"support: {list(cert.support)}")
        print(f"gap: {cert.gap:.17g}")
        return EXIT_OK

    x = _parse_x0(args.x, game.n, args.seed, "--x")
    with np.errstate(over="ignore"):           # a sum past the float range is inf
        total = x.sum()
    if x.min() < -OFF_SIMPLEX_TOL or abs(total - 1.0) > OFF_SIMPLEX_TOL:
        raise GameError(
            f"vector is off the simplex beyond {OFF_SIMPLEX_TOL:g} (sum {total:.17g}, "
            f"min {x.min():.17g}); refusing to renormalize silently")
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    with np.errstate(over="ignore", invalid="ignore"):   # a NaN gap is refused below
        gap = epsilon_gap(game, x)
    if np.isnan(gap):                          # payoff sums past the float range
        raise GameError("the strategy's gap is not a number (its payoffs overflow)")
    ws = well_supported_eps(game, x)
    passed = within_tolerance(game, gap)
    print(f"gap: {gap:.17g}")
    print(f"well-supported at eps={certificate_tolerance():g}: "
          f"{within_tolerance(game, ws)} (eps* = {ws:.17g})")
    print("verified" if passed else "verification failed")
    return EXIT_OK if passed else EXIT_FAILED


def cmd_oracle(args) -> int:
    game = _load_game_spec(args.game)
    certs = enumerate_symmetric_equilibria(game)
    _print_json({"game_digest": game.digest(),
                 "equilibria": [c.to_dict() for c in certs]}, args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    game = generate_game(args.kind, args.n, args.seed)
    save_game(game, args.out, fmt=args.fmt)
    print(f"wrote {args.kind} {game.n}x{game.n} game (seed {args.seed}) to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    game = _load_game_spec(args.game)
    sym, skew = decompose(game)
    _print_json({
        "doubly_symmetric": [[float(v) for v in row] for row in sym],
        "zero_sum": [[float(v) for v in row] for row in skew],
    }, args.out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    game = _load_game_spec(args.game)
    if args.samples == 0:
        _print_json({"all_passed": True, "vacuous": True, "checks": []}, args.out)
        return EXIT_OK
    if not game.normalized:
        game, _, _ = normalize_payoffs(game)
    report = diagnose_entropy_bounds(game, args.samples, args.seed)
    _print_json(report.to_dict(), args.out)
    return EXIT_OK if report.all_passed else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (its subparsers too) whose errors are GameErrors,
    which main prints as one `error: ...` line, with no usage block."""

    def error(self, message):
        raise GameError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse drops a value of "--" (as in --steps=--) and stores [] for
        # the flag without calling its type
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.nargs is None and isinstance(getattr(namespace, action.dest, None),
                                                   list):
                self.error(f"argument {'/'.join(action.option_strings)}: "
                           "expected one argument")
        return namespace, extras


def _int_arg(text: str) -> int:
    """parse_int as an argparse type: its GameError becomes the message that
    argparse prints after the flag's name."""
    try:
        return parse_int(text)
    except GameError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse_args call
    fills a fresh namespace from the declared defaults, so nothing one
    call parses is seen by the next."""
    parser = _Parser(
        prog="hedge-nash",
        description="Symmetric Nash equilibria via Hedge self-play with "
                    "weighted averaging, certified by indifference solves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game(p):
        p.add_argument("--game", required=True,
                       help="game file (JSON or text) or generator spec kind:n[:seed]")

    def add_run_flags(p):
        # each defaults to None, and to _RUN_DEFAULTS or DEFAULT_SCHEDULE when it runs
        p.add_argument("--schedule",
                       help="power:P | harmonic | constant:C | file:PATH "
                            "(default power:2/3)")
        p.add_argument("--x0", help="uniform | random | csv:p1,p2,...")
        p.add_argument("--steps", type=_int_arg)
        p.add_argument("--seed", type=_int_arg)
        p.add_argument("--force", action="store_true", default=None,
                       help="run even if the schedule fails validation")

    p = sub.add_parser("run", help="run a trajectory and write a trace + summary")
    p.add_argument("--game", help="game file or generator spec kind:n[:seed]")
    add_run_flags(p)
    p.add_argument("--emit-every", type=_int_arg)
    p.add_argument("--out", help=f"trace output path (default {_RUN_DEFAULTS['out']})")
    p.add_argument("--format", choices=("csv", "jsonl"),
                   help=f"trace format (default {_RUN_DEFAULTS['format']})")
    p.add_argument("--config", help="JSON list of run configs, run in order")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("extract", help="extract an equilibrium certificate")
    add_game(p)
    p.add_argument("--trace", help="existing trace file (CSV or JSONL)")
    add_run_flags(p)
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="check a strategy or support set")
    add_game(p)
    p.add_argument("--x", help="uniform | random | csv:p1,p2,...")
    p.add_argument("--support", help="comma list of 0-based indices")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="enumerate all symmetric equilibria (n <= 6)")
    add_game(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="write a seeded test game")
    p.add_argument("--kind", choices=GAME_KINDS, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--fmt", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="split payoffs into doubly symmetric + zero-sum parts")
    add_game(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("diagnose", help="run the entropy-inequality diagnostics")
    add_game(p)
    p.add_argument("--samples", type=_int_arg, default=1000)
    p.add_argument("--seed", type=_int_arg, default=7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:                       # --help, after printing the help
        return EXIT_OK
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
