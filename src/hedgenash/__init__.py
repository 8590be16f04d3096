"""Symmetric Nash equilibria via Hedge self-play with weighted averaging,
runtime inequality diagnostics, and certificates from indifference solves.

The package root exports the pipeline: games, schedules and trajectories,
certificate extraction and checks, the diagnostics and the seeded generator.
The LP solver and the lower-level certificate helpers live in
``hedgenash.lp`` and ``hedgenash.analysis``.
"""

from .analysis import (
    EquilibriumCertificate,
    certificate_tolerance,
    enumerate_symmetric_equilibria,
    epsilon_gap,
    find_equalizer,
    min_equalizer_gap,
    verify_support,
)
from .dynamics import (
    DEFAULT_SCHEDULE,
    Schedule,
    ScheduleError,
    Trace,
    TraceRecord,
    diagnose_entropy_bounds,
    diagnose_trajectory_identities,
    hedge_step,
    parse_schedule,
    run_trajectory,
)
from .extraction import ExtractionOutcome, extract_certificate
from .game import (
    GAME_KINDS,
    GameError,
    SymmetricGame,
    decompose,
    generate_game,
    load_game,
    normalize_payoffs,
    save_game,
    uniform_strategy,
    validate_game,
)
from .lp import LPError
from .rng import Xoshiro256StarStar

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SCHEDULE",
    "GAME_KINDS",
    "EquilibriumCertificate",
    "ExtractionOutcome",
    "GameError",
    "LPError",
    "Schedule",
    "ScheduleError",
    "SymmetricGame",
    "Trace",
    "TraceRecord",
    "Xoshiro256StarStar",
    "certificate_tolerance",
    "decompose",
    "diagnose_entropy_bounds",
    "diagnose_trajectory_identities",
    "enumerate_symmetric_equilibria",
    "epsilon_gap",
    "extract_certificate",
    "find_equalizer",
    "generate_game",
    "hedge_step",
    "load_game",
    "min_equalizer_gap",
    "normalize_payoffs",
    "parse_schedule",
    "run_trajectory",
    "save_game",
    "uniform_strategy",
    "validate_game",
    "verify_support",
]
