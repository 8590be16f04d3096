"""Hedge dynamics: the exponential-weights map, learning-rate schedules,
trajectory execution with weighted averaging, and runtime diagnostics.

The iterate is carried in logit space: X^K(i) is proportional to
X^0(i) * exp(sum_k alpha_k (CX^k)_i), so the logit vector is the plain
running sum of alpha_k * CX^k plus ln X^0. Normalization subtracts the
max logit before exponentiating; iterates therefore never underflow to
the boundary even when probability masses decay exponentially.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .game import (
    GameError,
    SymmetricGame,
    as_strategy,
    is_interior,
    uniform_strategy,
)
from .rng import Xoshiro256StarStar


class ScheduleError(ValueError):
    """Schedule fails the convergence hypotheses and --force was not given."""


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSchedule:
    """alpha_k = (k+1)^(-p)."""

    p: float

    @property
    def label(self) -> str:
        return f"power:{self.p:g}"

    def rate(self, k: int) -> float:
        return float((k + 1) ** -self.p)

    def rates(self, count: int) -> np.ndarray:
        return (np.arange(1, count + 1, dtype=float)) ** -self.p


@dataclass(frozen=True)
class HarmonicSchedule:
    """alpha_0 = 1, alpha_k = 1/k for k >= 1."""

    @property
    def label(self) -> str:
        return "harmonic"

    def rate(self, k: int) -> float:
        return 1.0 if k == 0 else 1.0 / k

    def rates(self, count: int) -> np.ndarray:
        out = np.empty(count)
        out[0] = 1.0
        if count > 1:
            out[1:] = 1.0 / np.arange(1, count, dtype=float)
        return out


@dataclass(frozen=True)
class ConstantSchedule:
    value: float

    @property
    def label(self) -> str:
        return f"constant:{self.value:g}"

    def rate(self, k: int) -> float:
        return self.value

    def rates(self, count: int) -> np.ndarray:
        return np.full(count, self.value)


@dataclass(frozen=True)
class CustomSchedule:
    """Explicit list of rates, e.g. loaded from a file."""

    values: tuple[float, ...]

    @property
    def label(self) -> str:
        return f"custom[{len(self.values)}]"

    def rate(self, k: int) -> float:
        return self.values[k]

    def rates(self, count: int) -> np.ndarray:
        if count > len(self.values):
            raise ScheduleError(
                f"custom schedule has {len(self.values)} rates, {count} needed")
        return np.asarray(self.values[:count], dtype=float)


@dataclass(frozen=True)
class ScheduleValidation:
    valid: bool
    reason: str | None = None
    flags: tuple[str, ...] = ()


def validate_schedule(schedule) -> ScheduleValidation:
    """Check the three conditions a diminishing schedule must satisfy:
    alpha_k -> 0, sum alpha_k diverges, sum alpha_k*(exp(alpha_k)-1) converges.

    For power schedules these hold exactly when 1/2 < p <= 1 (the tail term
    behaves like alpha_k^2, a p-series with exponent 2p). Custom lists are
    only checked for positivity; their asymptotics cannot be verified.
    """
    if isinstance(schedule, PowerSchedule):
        p = schedule.p
        if p <= 0:
            return ScheduleValidation(False, "alpha_k does not tend to 0")
        if p <= 0.5:
            return ScheduleValidation(
                False, "sum alpha_k*(exp(alpha_k)-1) diverges (needs p > 1/2)")
        if p > 1:
            return ScheduleValidation(False, "sum alpha_k converges (needs p <= 1)")
        return ScheduleValidation(True)
    if isinstance(schedule, HarmonicSchedule):
        return ScheduleValidation(True)
    if isinstance(schedule, ConstantSchedule):
        if schedule.value <= 0:
            return ScheduleValidation(False, "rates must be positive")
        return ScheduleValidation(False, "alpha_k does not tend to 0")
    if isinstance(schedule, CustomSchedule):
        if not schedule.values:
            return ScheduleValidation(False, "empty rate list")
        if min(schedule.values) <= 0:
            return ScheduleValidation(False, "rates must be positive")
        return ScheduleValidation(True, flags=("unverified-asymptotics",))
    return ScheduleValidation(False, f"unknown schedule type {type(schedule).__name__}")


def parse_schedule(spec: str):
    """Parse a CLI schedule spec: power:P | harmonic | constant:C | file:PATH."""
    if spec == "harmonic":
        return HarmonicSchedule()
    if spec.startswith("power:"):
        return PowerSchedule(p=float(spec.split(":", 1)[1]))
    if spec.startswith("constant:"):
        return ConstantSchedule(value=float(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        values = tuple(float(tok) for tok in Path(spec[5:]).read_text().split())
        return CustomSchedule(values=values)
    raise ScheduleError(f"cannot parse schedule spec {spec!r}")


DEFAULT_SCHEDULE = PowerSchedule(p=2.0 / 3.0)


# ---------------------------------------------------------------------------
# The Hedge map
# ---------------------------------------------------------------------------

def hedge_step(game: SymmetricGame, x, alpha: float) -> np.ndarray:
    """One exponential-weights update of an interior strategy.

    Equivalent to x(i)*exp(alpha*(Cx)_i) renormalized, computed in logit
    space with max-subtraction.
    """
    x = as_strategy(x)
    if not is_interior(x):
        raise GameError("hedge step requires an interior strategy")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise GameError(f"learning rate must be positive and finite, got {alpha!r}")
    logits = np.log(x) + alpha * (game.payoff @ x)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def relative_entropy(p, q) -> float:
    """KL divergence sum p(i) ln(p(i)/q(i)) over the support of p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        raise GameError("relative entropy undefined: q vanishes on the support of p")
    value = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    value = max(value, 0.0)
    # sanity bound, stronger than Pinsker on the simplex
    if value + 1e-9 < float(np.sum((p - q) ** 2)):
        raise GameError("relative entropy below its lower bound ||p - q||^2: "
                        "p and q must be strategies")
    return value


# ---------------------------------------------------------------------------
# Trajectory state and weighted averages
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryState:
    """Running state of a trajectory: logits, current iterate, and the
    (weight sum, accumulator) pair defining the weighted average."""

    logits: np.ndarray
    x: np.ndarray
    step: int
    weight_sum: float
    accumulator: np.ndarray

    @property
    def average(self) -> np.ndarray:
        if self.weight_sum <= 0:
            raise GameError("no iterates folded into the average yet")
        return self.accumulator / self.weight_sum

    @classmethod
    def initial(cls, x0) -> "TrajectoryState":
        x0 = as_strategy(x0)
        if not is_interior(x0):
            raise GameError("trajectories must start in the simplex interior")
        return cls(logits=np.log(x0), x=x0.copy(), step=0,
                   weight_sum=0.0, accumulator=np.zeros_like(x0))


def update_average(state: TrajectoryState, alpha: float, x) -> TrajectoryState:
    """Fold alpha-weighted iterate x into the running average."""
    x = np.asarray(x, dtype=float)
    return TrajectoryState(
        logits=state.logits,
        x=state.x,
        step=state.step,
        weight_sum=state.weight_sum + alpha,
        accumulator=state.accumulator + alpha * x,
    )


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class TraceRecord:
    step: int
    alpha: float
    weight_sum: float          # A_K
    gap_avg: float
    gap_iter: float
    avg_step_norm: float       # ||Xbar^K - Xbar^{K-1}||, 0 at K=0
    x: np.ndarray              # X^K
    xbar: np.ndarray           # Xbar^K
    log_next: np.ndarray | None = None   # ln X^{K+1}
    avg_self_play: float | None = None   # (1/A_K) sum alpha_k X^k.CX^k


@dataclass
class Trace:
    n: int
    x0: np.ndarray
    schedule_label: str
    emit_every: int
    records: list[TraceRecord] = field(default_factory=list)
    forced: bool = False

    @property
    def uniform_start(self) -> bool:
        return bool(np.allclose(self.x0, 1.0 / self.n, atol=1e-12))

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def csv_header(self) -> str:
        xs = ",".join(f"X_{i + 1}" for i in range(self.n))
        xbars = ",".join(f"Xbar_{i + 1}" for i in range(self.n))
        return f"K,alpha,A_K,gap_avg,gap_iter,avg_step_norm,{xs},{xbars}"

    def to_csv(self, path) -> None:
        lines = [self.csv_header()]
        for r in self.records:
            fields = [str(r.step)] + [
                f"{v:.17g}" for v in (r.alpha, r.weight_sum, r.gap_avg,
                                      r.gap_iter, r.avg_step_norm)
            ] + [f"{v:.17g}" for v in r.x] + [f"{v:.17g}" for v in r.xbar]
            lines.append(",".join(fields))
        Path(path).write_text("\n".join(lines) + "\n")

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps({
                    "K": r.step,
                    "alpha": r.alpha,
                    "A_K": r.weight_sum,
                    "gap_avg": r.gap_avg,
                    "gap_iter": r.gap_iter,
                    "avg_step_norm": r.avg_step_norm,
                    "X": [float(v) for v in r.x],
                    "Xbar": [float(v) for v in r.xbar],
                }) + "\n")

    @classmethod
    def from_file(cls, path) -> "Trace":
        """Load an emitted trace (CSV or JSON-lines). Fields not present in
        the wire format (logits, running self-play payoff) come back None."""
        path = Path(path)
        text = path.read_text().strip()
        records: list[TraceRecord] = []
        if text.startswith("{"):
            for line in text.splitlines():
                row = json.loads(line)
                records.append(TraceRecord(
                    step=int(row["K"]), alpha=row["alpha"], weight_sum=row["A_K"],
                    gap_avg=row["gap_avg"], gap_iter=row["gap_iter"],
                    avg_step_norm=row["avg_step_norm"],
                    x=np.array(row["X"]), xbar=np.array(row["Xbar"])))
        else:
            lines = text.splitlines()
            header = lines[0].split(",")
            n = sum(1 for name in header if name.startswith("X_"))
            for line in lines[1:]:
                vals = line.split(",")
                records.append(TraceRecord(
                    step=int(vals[0]), alpha=float(vals[1]), weight_sum=float(vals[2]),
                    gap_avg=float(vals[3]), gap_iter=float(vals[4]),
                    avg_step_norm=float(vals[5]),
                    x=np.array([float(v) for v in vals[6:6 + n]]),
                    xbar=np.array([float(v) for v in vals[6 + n:6 + 2 * n]])))
        if not records:
            raise GameError(f"trace file {path} contains no records")
        n = records[0].x.size
        return cls(n=n, x0=records[0].x, schedule_label="file",
                   emit_every=0, records=records)


def run_trajectory(game: SymmetricGame, x0, schedule, k_max: int,
                   emit_every: int = 1000, force: bool = False) -> Trace:
    """Run Hedge self-play for steps k = 0..k_max and record emitted snapshots.

    Each emitted record at step K carries the iterate X^K, the weighted
    average Xbar^K, both epsilon-gaps, the distance between consecutive
    averages, plus ln X^{K+1} and the running weighted self-play payoff
    (retained for the trajectory-identity diagnostics).
    """
    x0 = as_strategy(x0)
    if not is_interior(x0):
        raise GameError("trajectories must start in the simplex interior")
    if x0.size != game.n:
        raise GameError(f"start vector has length {x0.size}, game has n={game.n}")
    if k_max < 1:
        raise GameError("k_max must be >= 1")
    if emit_every < 1:
        raise GameError("emit_every must be >= 1")
    validation = validate_schedule(schedule)
    if not validation.valid and not force:
        raise ScheduleError(validation.reason or "invalid schedule")

    c = game.payoff
    alphas = schedule.rates(k_max + 1)
    logits = np.log(x0)
    x = x0.copy()
    accum = np.zeros_like(x0)
    weight = 0.0
    self_play_sum = 0.0
    trace = Trace(n=game.n, x0=x0.copy(), schedule_label=schedule.label,
                  emit_every=emit_every, forced=not validation.valid)
    dot = np.dot

    for k in range(k_max + 1):
        alpha = alphas[k]
        cx = dot(c, x)
        xcx = dot(x, cx)
        weight += alpha
        accum += alpha * x
        self_play_sum += alpha * xcx
        logits += alpha * cx
        shifted = logits - logits.max()
        w = np.exp(shifted)
        wsum = w.sum()

        if k % emit_every == 0 or k == k_max:
            xbar = accum / weight
            cxbar = dot(c, xbar)
            gap_avg = float(cxbar.max() - dot(xbar, cxbar))
            gap_iter = float(cx.max() - xcx)
            if k == 0:
                step_norm = 0.0
            else:
                prev_weight = weight - alpha
                xbar_prev = (accum - alpha * x) / prev_weight
                step_norm = float(np.linalg.norm(xbar - xbar_prev))
            log_next = shifted - math.log(wsum)
            trace.records.append(TraceRecord(
                step=k, alpha=float(alpha), weight_sum=weight,
                gap_avg=gap_avg, gap_iter=gap_iter, avg_step_norm=step_norm,
                x=x.copy(), xbar=xbar, log_next=log_next,
                avg_self_play=self_play_sum / weight))
        x = w / wsum
    return trace


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

POINTWISE_TOL = 1e-9
ACCUMULATED_TOL = 1e-8

ALPHA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)


@dataclass
class DiagnosticCheck:
    name: str
    samples: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "max_violation": self.max_violation,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class DiagnosticsReport:
    checks: list[DiagnosticCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}


def _re_on_support(p, q, mask) -> float:
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def diagnose_entropy_bounds(game: SymmetricGame, samples: int,
                            seed: int) -> DiagnosticsReport:
    """Numerically verify the entropy inequalities behind the convergence
    guarantee on random (X, Y, alpha) samples:

      * convexity of RE(Y, T_alpha(X)) in alpha (midpoint test);
      * the upper bound RE(Y,T(X)) <= RE(Y,X) - a(Y-X).CX + a(e^a - 1),
        valid for payoffs in [0, 1];
      * the lower bound RE(Y,T(X)) >= RE(Y,X) - a(Y-X).CX;
      * the telescoped logit growth bound along a short trajectory:
        (ln X^{K+1}(i) - ln X^0(i))/A_K <= (C Xbar^K)_i - avg self-play.
    """
    if not game.normalized:
        raise GameError("entropy diagnostics assume payoffs in [0, 1]")
    rng = Xoshiro256StarStar(seed)
    c = game.payoff
    n = game.n
    viol = {"entropy_alpha_convexity": 0.0, "entropy_upper_bound": 0.0,
            "entropy_lower_bound": 0.0, "log_growth_bound": 0.0}

    for _ in range(samples):
        x = rng.interior_point(n)
        support_size = 1 + rng.randint(n) if rng.random() < 0.3 else None
        y = rng.simplex_point(n, support_size)
        mask = y > 0.0
        cx = c @ x
        drift = float((y - x) @ cx)
        re_yx = _re_on_support(y, x, mask)
        log_x = np.log(x)

        alphas = sorted(set(ALPHA_GRID) | {rng.uniform(0.0, 2.0) for _ in range(10)})

        def t_of(alpha: float) -> np.ndarray:
            logits = log_x + alpha * cx
            w = np.exp(logits - logits.max())
            return w / w.sum()

        re_at = {a: _re_on_support(y, t_of(a), mask) for a in alphas}
        pairs = list(zip(alphas, alphas[1:])) + [(alphas[0], alphas[-1])]
        for a1, a2 in pairs:
            mid = 0.5 * (a1 + a2)
            lhs = _re_on_support(y, t_of(mid), mask)
            viol["entropy_alpha_convexity"] = max(
                viol["entropy_alpha_convexity"],
                lhs - 0.5 * (re_at[a1] + re_at[a2]))
        for a in alphas:
            re_t = re_at[a]
            viol["entropy_upper_bound"] = max(
                viol["entropy_upper_bound"],
                re_t - (re_yx - a * drift + a * (math.exp(a) - 1.0)))
            viol["entropy_lower_bound"] = max(
                viol["entropy_lower_bound"],
                (re_yx - a * drift) - re_t)

        # short trajectory for the accumulated bound
        steps = 32
        logits = log_x.copy()
        xk = x.copy()
        weight = 0.0
        accum = np.zeros(n)
        self_play = 0.0
        for k in range(steps):
            alpha = (k + 1) ** (-2.0 / 3.0)
            cxk = c @ xk
            weight += alpha
            accum += alpha * xk
            self_play += alpha * float(xk @ cxk)
            logits += alpha * cxk
            w = np.exp(logits - logits.max())
            xk = w / w.sum()
            log_next = np.log(xk)
            rhs = c @ (accum / weight) - self_play / weight
            lhs = (log_next - log_x) / weight
            viol["log_growth_bound"] = max(viol["log_growth_bound"],
                                           float(np.max(lhs - rhs)))

    checks = [
        DiagnosticCheck("entropy_alpha_convexity", samples,
                        viol["entropy_alpha_convexity"], POINTWISE_TOL),
        DiagnosticCheck("entropy_upper_bound", samples,
                        viol["entropy_upper_bound"], POINTWISE_TOL),
        DiagnosticCheck("entropy_lower_bound", samples,
                        viol["entropy_lower_bound"], POINTWISE_TOL),
        DiagnosticCheck("log_growth_bound", samples,
                        viol["log_growth_bound"], ACCUMULATED_TOL),
    ]
    return DiagnosticsReport(checks=checks)


TRAJECTORY_CHECKS = ("log_ratio_identity", "payoff_floor_bound", "self_play_bound")


def diagnose_trajectory_identities(game: SymmetricGame, trace: Trace,
                                   checks=TRAJECTORY_CHECKS) -> DiagnosticsReport:
    """Verify exact identities/bounds linking the iterate, the average and
    the payoffs at every recorded snapshot:

      * log-ratio identity (uniform start only):
        ln(X^{K+1}(i)/X^{K+1}(j))/A_K equals (C Xbar^K)_i - (C Xbar^K)_j;
      * payoff floor: (C Xbar^K)_i - (C Xbar^K)_max is bounded below by
        (ln c + ln X^{K+1}(i))/A_K with c = X^0_min / X^0_max;
      * best-response bound: X^{K+1}.C Xbar^K >= running avg self-play.
    """
    if "log_ratio_identity" in checks and not trace.uniform_start:
        raise GameError("the log-ratio identity requires a uniform start")
    snapshots = [r for r in trace.records if r.log_next is not None]
    if not snapshots:
        raise GameError("trace was recorded without logits; re-run in memory")
    c = game.payoff
    log_c0 = math.log(trace.x0.min() / trace.x0.max())
    viol = dict.fromkeys(checks, 0.0)
    for r in snapshots:
        cxbar = c @ r.xbar
        a_k = r.weight_sum
        if "log_ratio_identity" in checks:
            d = r.log_next / a_k - cxbar
            viol["log_ratio_identity"] = max(viol["log_ratio_identity"],
                                             float(d.max() - d.min()))
        if "payoff_floor_bound" in checks:
            floor = (log_c0 + r.log_next) / a_k
            gap_to_max = cxbar - cxbar.max()
            viol["payoff_floor_bound"] = max(viol["payoff_floor_bound"],
                                             float(np.max(floor - gap_to_max)))
        if "self_play_bound" in checks:
            x_next = np.exp(r.log_next)
            viol["self_play_bound"] = max(
                viol["self_play_bound"],
                r.avg_self_play - float(x_next @ cxbar))
    n_snap = len(snapshots)
    return DiagnosticsReport(checks=[
        DiagnosticCheck(name, n_snap, viol[name], ACCUMULATED_TOL)
        for name in checks
    ])
