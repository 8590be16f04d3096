"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (routed past pytest's capture so
the lines always appear in the console) and then asserts the criterion.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import hedgenash as hn
from hedgenash.analysis import _equalizing_solution
from hedgenash.cli import main as cli_main

POWER_23 = hn.DEFAULT_SCHEDULE

RPS_NORMALIZED = hn.validate_game([[0.5, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])
IDENTITY2 = hn.validate_game(np.eye(2))
HAWK_DOVE_NORM = hn.normalize_payoffs(hn.validate_game([[0.0, 3.0], [1.0, 2.0]]))[0]


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}",
          file=sys.__stdout__, flush=True)


def _entropy_game_suite():
    games = [IDENTITY2, RPS_NORMALIZED, HAWK_DOVE_NORM]
    for seed in range(20):
        raw = hn.generate_game("random_uniform", 5, seed=seed)
        games.append(hn.normalize_payoffs(raw)[0])
    return games


@pytest.fixture(scope="module")
def zero_sum_run():
    """Criterion-1 trajectory, shared with criterion 8."""
    started = time.perf_counter()
    trace = hn.run_trajectory(RPS_NORMALIZED, np.array([0.6, 0.2, 0.2]),
                              POWER_23, 10**6, emit_every=10**4)
    return trace, time.perf_counter() - started


def test_criterion_1_zero_sum_certified_convergence(zero_sum_run):
    trace, elapsed = zero_sum_run
    gap = trace.final.gap_avg
    passed = gap <= 0.05 and elapsed <= 60.0
    _report(1, "zero-sum certified convergence",
            passed, f"gap {gap:.2e}, {elapsed:.1f}s")
    assert gap <= 0.05
    assert elapsed <= 60.0


def test_criterion_2_fixed_point_exactness():
    started = time.perf_counter()
    worst = 0.0
    for game, n in ((IDENTITY2, 2), (RPS_NORMALIZED, 3)):
        trace = hn.run_trajectory(game, hn.uniform_strategy(n), POWER_23,
                                  1000, emit_every=1)
        for r in trace.records:
            worst = max(worst,
                        float(np.max(np.abs(r.x - 1.0 / n))),
                        float(np.max(np.abs(r.xbar - 1.0 / n))),
                        r.gap_avg, r.gap_iter)
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-12 and elapsed <= 1.0
    _report(2, "uniform fixed point is exact",
            passed, f"max drift {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed <= 1.0


def test_criterion_3_unique_equilibrium_convergence():
    started = time.perf_counter()
    random_start = hn.Xoshiro256StarStar(3).interior_point(2)
    worst = 0.0
    for x0 in (hn.uniform_strategy(2), random_start):
        trace = hn.run_trajectory(HAWK_DOVE_NORM, x0, POWER_23, 10**6,
                                  emit_every=10**5)
        worst = max(worst, float(np.max(np.abs(trace.final.xbar - 0.5))))
    elapsed = time.perf_counter() - started
    passed = worst <= 0.05 and elapsed <= 30.0
    _report(3, "Hawk-Dove average reaches the unique equilibrium",
            passed, f"distance {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 0.05
    assert elapsed <= 30.0


def test_criterion_4_entropy_inequality_suite():
    started = time.perf_counter()
    worst_name, worst_ratio = "", 0.0
    all_ok = True
    for idx, game in enumerate(_entropy_game_suite()):
        report = hn.diagnose_entropy_bounds(game, 1000, seed=7 + idx)
        all_ok = all_ok and report.all_passed
        for check in report.checks:
            ratio = check.max_violation / check.tolerance
            if ratio > worst_ratio:
                worst_ratio, worst_name = ratio, check.name
    elapsed = time.perf_counter() - started
    passed = all_ok and elapsed <= 60.0
    _report(4, "entropy inequalities hold on the game suite",
            passed, f"worst {worst_name} at {worst_ratio:.2f}x tol, {elapsed:.1f}s")
    assert all_ok
    assert elapsed <= 60.0


def test_criterion_5_trajectory_identity_suite():
    started = time.perf_counter()
    worst = 0.0
    all_ok = True
    for game in _entropy_game_suite():
        trace = hn.run_trajectory(game, hn.uniform_strategy(game.n), POWER_23,
                                  10**4, emit_every=500)
        report = hn.diagnose_trajectory_identities(game, trace)
        all_ok = all_ok and report.all_passed
        worst = max(worst, max(c.max_violation for c in report.checks))
    elapsed = time.perf_counter() - started
    passed = all_ok and worst <= 1e-8 and elapsed <= 60.0
    _report(5, "trajectory identities hold along uniform-start runs",
            passed, f"max violation {worst:.1e}, {elapsed:.1f}s")
    assert all_ok and worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_6_extraction_matches_oracle(tmp_path):
    failure_log = tmp_path / "extraction_failures.json"
    started = time.perf_counter()
    successes = 0
    mismatches = []
    failures = []
    for seed in range(100):
        game = hn.normalize_payoffs(hn.generate_game("random_uniform", 4, seed))[0]
        trace = hn.run_trajectory(game, hn.uniform_strategy(4), POWER_23,
                                  10**5, emit_every=10**5)
        outcome = hn.extract_certificate(game, trace)
        if outcome.certificate is None:
            final = trace.final
            failures.append({
                "seed": seed,
                "attempts": outcome.attempts,
                "snapshot": {"K": final.step,
                             "X": [float(v) for v in final.x],
                             "Xbar": [float(v) for v in final.xbar],
                             "gap_avg": final.gap_avg},
            })
            continue
        successes += 1
        cert = outcome.certificate
        oracle = hn.enumerate_symmetric_equilibria(game)
        match = None
        for eq in oracle:
            if eq.support == cert.support:
                sol, _, _ = _equalizing_solution(game, list(cert.support))
                projected = np.zeros(4)
                projected[list(cert.support)] = sol
                if float(np.max(np.abs(cert.strategy - projected))) <= 1e-6:
                    match = eq
                    break
        if match is None:
            mismatches.append(seed)
    elapsed = time.perf_counter() - started
    if failures:
        failure_log.write_text(json.dumps(failures, indent=2) + "\n")
    passed = successes >= 95 and not mismatches and elapsed <= 900.0
    _report(6, "extraction agrees with the enumeration oracle",
            passed, f"{successes}/100 extracted, {len(mismatches)} mismatches, "
                    f"{elapsed:.0f}s")
    assert successes >= 95, f"failures logged to {failure_log}"
    assert not mismatches
    assert elapsed <= 900.0


def test_criterion_7_lp_correctness():
    started = time.perf_counter()
    rps = hn.validate_game([[1.0, 0.0, 2.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]])
    uniform_cert = hn.find_equalizer(rps)
    ok_rps = (uniform_cert is not None
              and float(np.max(np.abs(uniform_cert.strategy - 1 / 3))) <= 1e-9)
    id_cert = hn.find_equalizer(IDENTITY2)
    ok_id = (id_cert is not None
             and float(np.max(np.abs(id_cert.strategy - 0.5))) <= 1e-9)
    dominated = hn.validate_game([[1.0, 1.0], [0.0, 0.0]])
    ok_infeasible = hn.find_equalizer(dominated) is None
    _, spread = hn.min_equalizer_gap(dominated)
    ok_spread = abs(spread - 1.0) <= 1e-8
    elapsed = time.perf_counter() - started
    passed = ok_rps and ok_id and ok_infeasible and ok_spread and elapsed <= 1.0
    _report(7, "equalizer LPs solve the reference instances",
            passed, f"spread {spread:.10f}, {elapsed:.2f}s")
    assert ok_rps and ok_id and ok_infeasible and ok_spread
    assert elapsed <= 1.0


def test_criterion_8_successive_average_contraction(zero_sum_run):
    trace, _ = zero_sum_run
    bound_ok = all(
        r.avg_step_norm <= (r.alpha / r.weight_sum) * math.sqrt(2.0) + 1e-15
        for r in trace.records[1:])
    final_norm = trace.final.avg_step_norm
    passed = bound_ok and final_norm < 1e-4
    _report(8, "successive averages contract at the certified rate",
            passed, f"final step norm {final_norm:.1e}")
    assert bound_ok
    assert final_norm < 1e-4


def test_criterion_9_invariance_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0

    def normalized_game(n):
        raw = hn.validate_game(rng.uniform(-2, 2, size=(n, n)))
        return hn.normalize_payoffs(raw)[0]

    def interior(n):
        x = rng.dirichlet(np.ones(n)) + 1e-9
        return x / x.sum()

    for _ in range(400):  # shift invariance of the update
        n = int(rng.integers(2, 6))
        g = normalized_game(n)
        x, alpha, b = interior(n), rng.uniform(0.01, 2.0), rng.uniform(-1.0, 1.0)
        shifted = hn.validate_game(g.payoff + b)
        worst = max(worst, float(np.max(np.abs(
            hn.hedge_step(shifted, x, alpha) - hn.hedge_step(g, x, alpha)))))

    for _ in range(300):  # payoff-scale / learning-rate duality
        n = int(rng.integers(2, 6))
        g = normalized_game(n)
        x, a = interior(n), rng.uniform(0.05, 2.0)
        scaled = hn.validate_game(a * g.payoff)
        worst = max(worst, float(np.max(np.abs(
            hn.hedge_step(scaled, x, 1.0) - hn.hedge_step(g, x, a)))))

    for _ in range(200):  # positive-affine invariance of the gap
        n = int(rng.integers(2, 6))
        g = normalized_game(n)
        x = rng.dirichlet(np.ones(n))
        a, b = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
        mapped = hn.validate_game(a * g.payoff + b)
        worst = max(worst, abs(hn.epsilon_gap(mapped, x)
                               - a * hn.epsilon_gap(g, x)))

    support_mismatches = 0
    for i in range(100):  # certificate supports survive affine payoff maps
        g = normalized_game(3)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        mapped = hn.validate_game(a * g.payoff + b)
        size = int(rng.integers(1, 4))
        candidate = list(rng.choice(3, size=size, replace=False))
        before = hn.verify_support(g, candidate)
        after = hn.verify_support(mapped, candidate)
        if (before is None) != (after is None):
            support_mismatches += 1
        elif before is not None and before.support != after.support:
            support_mismatches += 1

    elapsed = time.perf_counter() - started
    passed = worst <= 1e-10 and support_mismatches == 0 and elapsed <= 10.0
    _report(9, "payoff-map invariances hold to 1e-10",
            passed, f"max deviation {worst:.1e}, "
                    f"{support_mismatches} support mismatches, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert support_mismatches == 0
    assert elapsed <= 10.0


def test_criterion_10_reproducibility(tmp_path):
    game_path = tmp_path / "game.json"
    hn.save_game(hn.generate_game("random_uniform", 3, seed=21), game_path)
    args = ["run", "--game", str(game_path), "--steps", "2000",
            "--x0", "random", "--seed", "17", "--emit-every", "100"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rc1 = cli_main(args + ["--out", str(first)])
    rc2 = cli_main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    passed = rc1 == 0 and rc2 == 0 and identical
    _report(10, "identical configs produce byte-identical CSV traces", passed)
    assert rc1 == 0 and rc2 == 0
    assert identical
