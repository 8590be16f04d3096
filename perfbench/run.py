"""hedgenash benchmark.

One workload, one fresh process:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 30 --trace 0

prints a detail line (raw wall-clock timings, failures by exception type,
the correctness gate, the machine) and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
scaled by a calibration kernel (see SpeedGauge); ``--trace 1`` installs
wrappers around the package's public functions and reports the per-layer
metrics. ``correct`` is false when an output failed the recheck; ``failed``
also counts games on which the package raised.

The smoke test of the benchmark itself is ``python3 perfbench/smoke.py``.

Every workload, each in its own process, one at a time, with a readable
report of every metric, its unit, sample counts and the correctness gate:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

The package is imported from ``src/`` beside this directory; nothing is
installed. Traces go through the page cache, which the benchmark does not
drop, so the io layer measures cached file access.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# BLAS threads are pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
KERNEL_ITERATIONS = 700
REFERENCE_KERNEL_S = 0.005
WINDOW_S = 1.0
PERCENTILE_GRID = 20_001
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hedgenash; "
                "print(time.perf_counter() - t)")

SPEC = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(SRC))


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (0 < q < 100) of a
    non-empty sequence: the mean of all order statistics, each weighted by
    the mass that a Beta(p(n+1), (1-p)(n+1)) distribution puts on its share
    of (0, 1), integrated on a grid of PERCENTILE_GRID points. Every game
    near the percentile counts, not only the two beside it, which halves
    the run-to-run spread of the median of a 28-game panel."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, PERCENTILE_GRID)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x / weights.sum())


def tail_percentile(count: int, cap: int) -> int:
    """The highest multiple of 5 with at least ten games beyond it, capped
    at the workload's stated tail so that runs report the same percentile;
    the median when there are too few games."""
    if count <= 10:
        return 50
    return min(cap, 5 * int(20 * (count - 10) / count))


def calibration_kernel() -> float:
    """Fixed work shaped like the package's hot loops, a Python loop of small
    numpy operations; returns its wall time in seconds."""
    a = np.arange(8.0)
    start = time.perf_counter()
    for _ in range(KERNEL_ITERATIONS):
        b = a * 1.0001 + 0.5
        a = b - b.mean() + (b.max() - b.min())
    return time.perf_counter() - start


class SpeedGauge:
    """The speed of a shared host drifts by tens of percent within seconds to
    minutes, and the package's code slows in step with the calibration
    kernel. The kernel runs between timed pieces of work; a piece that ran
    from ``start`` to ``end`` is scaled by REFERENCE_KERNEL_S over the mean
    kernel time within WINDOW_S of that interval, which gives its time on a
    host where the kernel takes REFERENCE_KERNEL_S. Raw times are reported
    beside the scaled ones."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self.tick()

    def tick(self) -> None:
        start = time.perf_counter()
        seconds = calibration_kernel()
        self.samples.append((start + seconds / 2, seconds))

    def scale(self, start: float, end: float) -> float:
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_KERNEL_S / statistics.fmean(near)

    def summary(self) -> dict:
        kernel = [k for _, k in self.samples]
        return {"runs": len(kernel), "median_ms": 1e3 * statistics.median(kernel),
                "min_ms": 1e3 * min(kernel), "max_ms": 1e3 * max(kernel)}


def machine_record() -> dict:
    """Core count, CPU model, caches and versions, read where available."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[label] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__}


def measure_setup(workload, seed: int, workdir: Path):
    """Import the package in a fresh interpreter and build the games (writing
    any input files), SETUP_REPEATS times. Returns the median scaled and the
    median raw set-up time, and the games."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    gauge = SpeedGauge()
    raw, scaled, games = [], [], None
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        games = workload.build(seed, workdir)
        end = time.perf_counter()
        gauge.tick()
        raw.append(float(probe.stdout.strip()) + end - start)
        scaled.append(raw[-1] * gauge.scale(begin, end))
    return statistics.median(scaled), statistics.median(raw), games


class Results:
    """Per-game outcomes and times of one timed loop."""

    def __init__(self):
        self.order: list[int] = []
        self.spans: list[tuple[float, float]] = []   # (start, end) per game
        self.times: list[float] = []                 # wall seconds per game
        self.scaled: list[float] = []                # the same, scaled by the gauge
        self.status = Counter()
        self.failures = Counter()
        self.messages: dict[str, str] = {}
        self.rechecked = 0
        self.recheck_failed = 0
        self.wall = 0.0
        self.gauge: dict = {}

    def add(self, gid: int, outcome, start: float, end: float) -> None:
        self.order.append(gid)
        self.spans.append((start, end))
        self.times.append(end - start)
        self.status[outcome.status] += 1
        self.rechecked += outcome.rechecked
        if outcome.failure:
            self.failures[outcome.failure] += 1
            self.messages.setdefault(outcome.failure, outcome.message)
            self.recheck_failed += outcome.failure == "recheck"

    def finish(self, wall: float, gauge: SpeedGauge) -> "Results":
        self.wall = wall
        self.scaled = [(end - start) * gauge.scale(start, end)
                       for start, end in self.spans]
        self.gauge = gauge.summary()
        return self

    @property
    def attempted(self) -> int:
        return len(self.times)


def play_one(workload, g, tracer, workdir: Path, tol: float, tamper):
    tracer.game = g.gid
    start = time.perf_counter()
    try:
        with tracer.span("bench.game"):
            outcome = workload.play(g, tracer, workdir, tol, tamper)
    except Exception as exc:  # noqa: BLE001 - every library failure is an outcome
        from workloads import Outcome
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        first = str(exc).splitlines()[0] if str(exc) else ""
        outcome = Outcome("failed", type(exc).__name__,
                          f"{first} ({Path(frame.filename).name}:{frame.lineno} "
                          f"in {frame.name})")
    return outcome, start, time.perf_counter()


def play_loop(workload, games, seconds: float, tracer, workdir: Path, tol: float,
              tamper) -> Results:
    """Games back to back for about ``seconds``: the loop stops once another
    unit would overshoot ``seconds`` by more than stopping undershoots it.
    The unit is one game, or one whole pass over the games for a whole-pass
    workload, which always plays at least one pass."""
    results = Results()
    gauge = SpeedGauge()
    unit = len(games) if workload.whole_passes else 1
    start = time.perf_counter()
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        if i and i % unit == 0 and elapsed * (1 + 0.5 * unit / i) >= seconds:
            break
        g = games[i % len(games)]
        results.add(g.gid, *play_one(workload, g, tracer, workdir, tol, tamper))
        gauge.tick()
    return results.finish(time.perf_counter() - start, gauge)


def replay(workload, games, order: list[int], tracer, workdir: Path, tol: float,
           tamper) -> Results:
    """The given games again, in the given order."""
    by_id = {g.gid: g for g in games}
    results = Results()
    gauge = SpeedGauge()
    start = time.perf_counter()
    for gid in order:
        results.add(gid, *play_one(workload, by_id[gid], tracer, workdir, tol, tamper))
        gauge.tick()
    return results.finish(time.perf_counter() - start, gauge)


def detail(workload, seed: int, results: Results, extra: dict) -> dict:
    n = results.attempted
    return {
        "workload": workload.name, "seed": seed, "games": n,
        "distinct_games": len(set(results.order)),
        "tail_percentile": tail_percentile(n, workload.tail_cap), "wall_s": results.wall,
        "outcomes": dict(results.status),
        "failed_frac": sum(results.failures.values()) / n,
        "failures_by_type": dict(results.failures),
        "first_message_by_type": results.messages,
        "gate": {"rechecked": results.rechecked, "failed": results.recheck_failed},
        "calibration_kernel": results.gauge,
        "machine": machine_record(),
        **extra,
    }


def timings(times: list[float], tail_q: int) -> dict[str, float]:
    return {"games_per_s": len(times) / sum(times),
            "solve_ms_p50": 1e3 * percentile(times, 50),
            "solve_ms_tail": 1e3 * percentile(times, tail_q)}


def end_to_end(workload, games, setup: tuple[float, float], args, workdir: Path,
               tol: float):
    """Games per second of game time, and the per-game percentiles, from the
    scaled times; the raw wall-clock values go into the detail line."""
    import tracing
    from workloads import no_tamper
    results = play_loop(workload, games, args.seconds, tracing.Tracer(False),
                        workdir, tol, no_tamper)
    n = results.attempted
    tail_q = tail_percentile(n, workload.tail_cap)
    metrics = {
        "setup_s": setup[0],
        **timings(results.scaled, tail_q),
        "certified_frac": results.status["certified"] / n,
        "ok_frac": (n - sum(results.failures.values())) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"setup_s": setup[1], **timings(results.times, tail_q)}
    return results, metrics, {"certificate_tolerance": tol, "raw": raw}


def traced(workload, games, args, workdir: Path, tol: float):
    """Half the time (one pass for a whole-pass workload) with every wrapper
    installed, then the same games untraced; the difference in scaled game
    time is the tracing overhead. Span times are raw wall-clock times."""
    import tracing
    from workloads import no_tamper
    tracer = tracing.Tracer(True)
    restore = tracing.install(tracer)
    try:
        results = play_loop(workload, games, 0 if workload.whole_passes else args.seconds / 2,
                            tracer, workdir, tol, no_tamper)
    finally:
        restore()
    plain = replay(workload, games, results.order, tracing.Tracer(False), workdir, tol,
                   no_tamper)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = results.wall
    metrics["trace.overhead_s"] = sum(results.scaled) - sum(plain.scaled)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
    tracer.write(spans_path)
    layer_self = tracer.layer_self_seconds()
    total = sum(layer_self.values()) or 1.0
    results.recheck_failed += plain.recheck_failed
    return results, metrics, {
        "untraced_wall_s": plain.wall, "untraced_scaled_s": sum(plain.scaled),
        "traced_scaled_s": sum(results.scaled), "spans_file": str(spans_path),
        "layer_self_share": {k: v / total for k, v in layer_self.items()}}


def run_workload(args) -> int:
    for required in (SRC / "hedgenash" / "__init__.py", SPEC):
        if not required.is_file():
            print(f"error: {required} is missing", file=sys.stderr)
            return 2
    from hedgenash import certificate_tolerance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.tiny)
    tol = certificate_tolerance()
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        *setup, games = measure_setup(workload, args.seed, workdir)
        if args.trace:
            results, metrics, extra = traced(workload, games, args, workdir, tol)
        else:
            results, metrics, extra = end_to_end(workload, games, setup, args, workdir, tol)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}",
              file=sys.stderr)
        return 2
    print("detail " + json.dumps(detail(workload, args.seed, results, extra)))
    print(json.dumps({
        "correct": results.recheck_failed == 0,
        "attempted": results.attempted,
        "failed": sum(results.failures.values()),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_child(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    info = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return info, json.loads(lines[-1])


def report(args) -> int:
    """Run every workload in its own fresh process, one at a time, untraced
    and then traced, and print every metric with its unit, the sample
    counts and the correctness gate."""
    spec = json.loads(SPEC.read_text())
    for entry in spec["workloads"]:
        name = entry["name"]
        info, result = _run_child(name, args.seed, args.seconds, 0)
        tinfo, tresult = _run_child(name, args.seed, args.seconds, 1)
        if entry is spec["workloads"][0]:
            print("machine:", json.dumps(info["machine"]))
        print(f"\n== {name} (seed {args.seed}, {args.seconds:g} s): {entry['why']}")
        print(f"  games {info['games']} ({info['distinct_games']} distinct), "
              f"outcomes {info['outcomes']}")
        print(f"  failed_frac {info['failed_frac']:.4f} = {result['failed']}/"
              f"{result['attempted']}, by type {info['failures_by_type']}")
        for kind, message in info["first_message_by_type"].items():
            print(f"    {kind}: {message}")
        print(f"  correctness gate: {info['gate']['rechecked']} outputs rechecked, "
              f"{info['gate']['failed']} failed; correct={result['correct']}")
        print(f"  calibration kernel {info['calibration_kernel']['median_ms']:.3f} ms median "
              f"(reference {1e3 * REFERENCE_KERNEL_S:g} ms); times below are scaled, "
              "raw wall-clock values in brackets")
        for metric, value in result["metrics"].items():
            note = f"  [raw {info['raw'][metric]:.6g}]" if metric in info["raw"] else ""
            if metric == "solve_ms_tail":
                note += f"  (p{info['tail_percentile']} of {info['games']} games)"
            elif metric == "solve_ms_p50":
                note += f"  ({info['games']} games)"
            print(f"  {metric:<16} {value['value']:>14.6g} {value['unit']}{note}")
        share = tinfo["layer_self_share"]
        print(f"  traced: {tresult['attempted']} games, overhead "
              f"{tresult['metrics']['trace.overhead_s']['value']:.3f} s on "
              f"{tinfo['untraced_scaled_s']:.3f} s untraced (scaled); self-time share "
              + ", ".join(f"{k} {v:.1%}" for k, v in
                          sorted(share.items(), key=lambda kv: -kv[1])))
        for metric, value in tresult["metrics"].items():
            print(f"    {metric:<28} {value['value']:>14.6g} {value['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a readable report")
    args = parser.parse_args(argv)
    if args.all:
        return report(args)
    if not args.workload:
        parser.error("--workload is required without --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
