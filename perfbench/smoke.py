"""Smoke test of the benchmark itself, at tiny sizes:

    python3 perfbench/smoke.py

* every workload, untraced and traced, prints a last line with exactly the
  keys correct/attempted/failed/metrics, and exactly the metrics that
  BENCHMARK.json names for that mode, each with its unit;
* a deliberately perturbed certificate is counted as a failed game;
* predictions.json names only metrics and workloads that exist;
* in a directory holding only BENCHMARK.json and this benchmark, a run
  exits non-zero and prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread pins before numpy is imported

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _child(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=root)


def check_outputs(spec: dict) -> list[str]:
    problems = []
    for entry in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{entry['name']} --trace {trace}"
            proc = _child(run.ROOT, entry["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS or result["attempted"] < 1:
                problems.append(f"{label}: malformed result {sorted(result)}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, value in result["metrics"].items():
                if not (isinstance(value["value"], (int, float))
                        and math.isfinite(value["value"])):
                    problems.append(f"{label}: {name} is not a finite number")
    return problems


def check_perturbed_certificates() -> list[str]:
    """Replays tiny games with every certificate perturbed before the gate:
    each game certified untouched must come back failed by the recheck."""
    from hedgenash import certificate_tolerance

    import tracing
    from gate import perturb
    from workloads import WORKLOADS, no_tamper

    problems = []
    tol = certificate_tolerance()
    workdir = run.WORK / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(True)
            games = workload.build(1, workdir)
            order = [g.gid for g in games]
            plain = tracing.Tracer(False)
            clean = run.replay(workload, games, order, plain, workdir, tol, no_tamper)
            bad = run.replay(workload, games, order, plain, workdir, tol, perturb)
            certified = clean.status["certified"]
            if certified == 0:
                problems.append(f"{name}: no certificate to perturb at tiny size")
            elif bad.status["certified"] or bad.recheck_failed != certified:
                problems.append(f"{name}: {certified} perturbed certificates, "
                                f"{bad.recheck_failed} counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_predictions(spec: dict) -> list[str]:
    table = json.loads((HERE / "predictions.json").read_text())["predictions"]
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for row in table:
        unknown = (set(row["per_layer"]) - layer) | (set(row["end_to_end"]) - e2e)
        if row["workload"] not in workloads:
            unknown.add(row["workload"])
        if unknown:
            problems.append(f"predictions.json names unknown {sorted(unknown)}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    bare = run.WORK / f"bare-{os.getpid()}"
    try:
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / run.SPEC.name)
        proc = _child(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    problems = (check_outputs(spec) + check_perturbed_certificates()
                + check_predictions(spec) + check_bare_directory(spec))
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
