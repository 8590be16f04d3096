"""Spans around calls into hedgenash, recorded from outside the package.

A traced run installs wrappers at the attribute each caller resolves (for
example ``hedgenash.analysis.solve_lp``, which is what the subequalizer and
spread programs look up), records one span per call, and restores the
originals afterwards. Spans carry a name, start, end, parent span and game
id; they stay in memory until the run ends. A layer is the part of a span
name before the first dot; a layer's self time is its spans' durations minus
the time their direct child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict

import hedgenash.analysis as analysis
import hedgenash.cli as cli
import hedgenash.dynamics as dynamics
import hedgenash.extraction as extraction

LAYERS = ("dynamics", "io", "extraction", "analysis", "lp", "diag", "cli", "bench")


class Tracer:
    """Span recorder. A disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.game = None
        self.spans: list[list] = []     # [name, start, end, parent index, game]
        self.counts: dict[str, float] = defaultdict(float)
        self.lp_ms: list[float] = []
        self.lp_shapes: list[tuple[int, int]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.game]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, game in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "game": game}) + "\n")

    # -- aggregation -------------------------------------------------------

    def _durations(self):
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return inclusive, self_time

    def layer_self_seconds(self) -> dict[str, float]:
        _, self_time = self._durations()
        return {layer: self_time.get(layer, 0.0) for layer in LAYERS}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, from the spans and the boundary counts."""
        inc, self_time = self._durations()
        c = self.counts
        steps = c["dynamics.steps"]
        solves = len(self.lp_ms)
        candidates = c["extraction.candidates"]
        return {
            "dynamics.steps": steps,
            "dynamics.records": c["dynamics.records"],
            "dynamics.busy_s": inc["dynamics.run"],
            "dynamics.us_per_step": 1e6 * inc["dynamics.run"] / steps if steps else 0.0,
            "lp.solves": solves,
            "lp.busy_s": inc["lp.solve"],
            "lp.ms_per_solve_p50": statistics.median(self.lp_ms) if solves else 0.0,
            "lp.ms_per_solve_max": max(self.lp_ms) if solves else 0.0,
            "lp.rows_mean": statistics.fmean(r for r, _ in self.lp_shapes) if solves else 0.0,
            "lp.cols_mean": statistics.fmean(k for _, k in self.lp_shapes) if solves else 0.0,
            "lp.cells": sum(r * k for r, k in self.lp_shapes),
            "lp.failed": c["lp.failed"],
            "lp.infeasible": c["lp.infeasible"],
            "extraction.calls": c["extraction.calls"],
            "extraction.self_s": self_time.get("extraction", 0.0),
            "extraction.candidates": candidates,
            "extraction.dup_candidates": c["extraction.dup_candidates"],
            "extraction.useful_ratio": (c["extraction.certificates"] / candidates
                                        if candidates else 0.0),
            "analysis.verify_s": inc["analysis.verify"],
            "analysis.spread_calls": c["analysis.spread_calls"],
            "analysis.spread_s": inc["analysis.spread"],
            "analysis.oracle_s": inc["analysis.oracle"],
            "analysis.oracle_supports": c["analysis.oracle_supports"],
            "analysis.self_s": self_time.get("analysis", 0.0),
            "io.csv.write_s": inc["io.csv.write"],
            "io.csv.read_s": inc["io.csv.read"],
            "io.jsonl.write_s": inc["io.jsonl.write"],
            "io.jsonl.read_s": inc["io.jsonl.read"],
            "io.bytes": c["io.bytes"],
            "io.records": c["io.records"],
            "diag.entropy_s": inc["diag.entropy"],
            "diag.entropy_samples": c["diag.entropy_samples"],
            "diag.trajectory_s": inc["diag.trajectory"],
            "diag.trajectory_snapshots": c["diag.trajectory_snapshots"],
            "cli.run_s": inc["cli.run"],
            "cli.extract_s": inc["cli.extract"],
            "cli.diagnose_s": inc["cli.diagnose"],
            "cli.self_s": self_time.get("cli", 0.0),
            "bench.self_s": self_time.get("bench", 0.0),
            "trace.spans": len(self.spans),
        }


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _io_codec(path) -> str:
    """The codec Trace.from_file will pick: JSON lines start with '{'."""
    with open(path, "rb") as fh:
        return "jsonl" if fh.read(1) == b"{" else "csv"


def install(tracer: Tracer):
    """Wrap the library's public functions where their callers resolve
    them. Returns a function that puts every original back."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    counts = tracer.counts

    def traced_run(original):
        def run_trajectory(game, x0, schedule, k_max, *args, **kwargs):
            with tracer.span("dynamics.run"):
                trace = original(game, x0, schedule, k_max, *args, **kwargs)
            counts["dynamics.steps"] += k_max + 1
            counts["dynamics.records"] += len(trace.records)
            return trace
        return run_trajectory

    def traced_write(codec):
        def make(original):
            def write(self, path):
                with tracer.span(f"io.{codec}.write"):
                    original(self, path)
                counts["io.bytes"] += os.path.getsize(path)
                counts["io.records"] += len(self.records)
            return write
        return make

    def traced_read(original):
        func = original.__func__

        def from_file(cls, path):
            codec = _io_codec(path)
            with tracer.span(f"io.{codec}.read"):
                trace = func(cls, path)
            counts["io.bytes"] += os.path.getsize(path)
            counts["io.records"] += len(trace.records)
            return trace
        return classmethod(from_file)

    def traced_extract(original):
        def extract_certificate(game, trace, *args, **kwargs):
            with tracer.span("extraction.extract"):
                outcome = original(game, trace, *args, **kwargs)
            seen = set()
            for attempt in outcome.attempts:
                if "support" not in attempt:
                    continue
                key = frozenset(attempt["support"])
                counts["extraction.candidates"] += 1
                counts["extraction.dup_candidates"] += key in seen
                seen.add(key)
            counts["extraction.calls"] += 1
            counts["extraction.certificates"] += outcome.certificate is not None
            return outcome
        return extract_certificate

    def traced_verify(original):
        def verify_support(game, candidate_support):
            with tracer.span("analysis.verify"):
                return original(game, candidate_support)
        return verify_support

    def traced_spread(original):
        def min_equalizer_gap(game):
            counts["analysis.spread_calls"] += 1
            with tracer.span("analysis.spread"):
                return original(game)
        return min_equalizer_gap

    def traced_oracle(original):
        def enumerate_symmetric_equilibria(game, *args, **kwargs):
            with tracer.span("analysis.oracle"):
                found = original(game, *args, **kwargs)
            counts["analysis.oracle_supports"] += 2 ** game.n - 1
            return found
        return enumerate_symmetric_equilibria

    def traced_lp(original):
        def solve_lp(lp):
            rows, cols = getattr(lp.a, "shape", (0, 0))
            start = time.perf_counter()
            try:
                with tracer.span("lp.solve"):
                    result = original(lp)
            except Exception:
                counts["lp.failed"] += 1
                raise
            finally:
                tracer.lp_ms.append(1e3 * (time.perf_counter() - start))
                tracer.lp_shapes.append((rows, cols))
            counts["lp.infeasible"] += result.status == "infeasible"
            return result
        return solve_lp

    def traced_entropy(original):
        def diagnose_entropy_bounds(game, samples, seed):
            with tracer.span("diag.entropy"):
                report = original(game, samples, seed)
            counts["diag.entropy_samples"] += samples
            return report
        return diagnose_entropy_bounds

    def traced_identities(original):
        def diagnose_trajectory_identities(game, trace, *args, **kwargs):
            with tracer.span("diag.trajectory"):
                report = original(game, trace, *args, **kwargs)
            counts["diag.trajectory_snapshots"] += (
                report.checks[0].samples if report.checks else 0)
            return report
        return diagnose_trajectory_identities

    patch(dynamics, "run_trajectory", traced_run)
    patch(cli, "run_trajectory", traced_run)
    patch(dynamics.Trace, "to_csv", traced_write("csv"))
    patch(dynamics.Trace, "to_jsonl", traced_write("jsonl"))
    patch(dynamics.Trace, "from_file", traced_read)
    patch(extraction, "extract_certificate", traced_extract)
    patch(cli, "extract_certificate", traced_extract)
    patch(extraction, "verify_support", traced_verify)
    patch(analysis, "min_equalizer_gap", traced_spread)
    patch(analysis, "enumerate_symmetric_equilibria", traced_oracle)
    patch(analysis, "solve_lp", traced_lp)
    patch(cli, "diagnose_entropy_bounds", traced_entropy)
    patch(dynamics, "diagnose_trajectory_identities", traced_identities)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore

