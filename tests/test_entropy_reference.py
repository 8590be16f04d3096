"""The batched entropy diagnostics and the Hedge map against their former
per-sample loops, kept here as the reference implementations."""

import math

import numpy as np
import pytest

import hedgenash.dynamics as dynamics
from hedgenash import (
    Xoshiro256StarStar,
    diagnose_entropy_bounds,
    generate_game,
    hedge_step,
    normalize_payoffs,
)
from hedgenash.dynamics import ACCUMULATED_TOL, ALPHA_GRID, POINTWISE_TOL


def reference_hedge_step(game, x, alpha):
    logits = np.log(x) + alpha * (game.payoff @ x)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def _re_on_support(p, q, mask):
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_entropy_violations(game, samples, seed):
    """One sample at a time, one rate at a time: the four worst violations
    in the order convexity, upper bound, lower bound, log growth."""
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

        def t_of(alpha):
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

        logits = log_x.copy()
        xk = x.copy()
        weight = 0.0
        accum = np.zeros(n)
        self_play = 0.0
        for k in range(32):
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
    return viol


TOLERANCES = {"entropy_alpha_convexity": POINTWISE_TOL,
              "entropy_upper_bound": POINTWISE_TOL,
              "entropy_lower_bound": POINTWISE_TOL,
              "log_growth_bound": ACCUMULATED_TOL}


def normalized(kind, n, seed):
    game = generate_game(kind, n, seed)
    return game if game.normalized else normalize_payoffs(game)[0]


def assert_matches_reference(game, samples, seed):
    report = diagnose_entropy_bounds(game, samples, seed)
    expected = reference_entropy_violations(game, samples, seed)
    assert [c.name for c in report.checks] == list(expected)
    for check in report.checks:
        assert check.samples == samples
        assert check.tolerance == TOLERANCES[check.name]
        assert check.max_violation == pytest.approx(expected[check.name], abs=1e-12)
        assert check.passed == (expected[check.name] <= check.tolerance)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("kind", ["random_uniform", "zero_sum_symmetric",
                                  "coordination"])
def test_diagnostics_match_per_sample_loop(kind, n, seed):
    assert_matches_reference(normalized(kind, n, seed), 40, seed)


def test_chunk_boundaries_keep_the_samples(monkeypatch):
    # 7-sample blocks: draws and grid padding cross many block boundaries
    monkeypatch.setattr(dynamics, "_DIAG_CHUNK", 7)
    assert_matches_reference(normalized("random_uniform", 4, 3), 50, 11)


def test_hedge_step_is_bitwise_unchanged():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 13, 64):
        game = normalized("random_uniform", n, n)
        for _ in range(20):
            x = rng.dirichlet(np.ones(n)) + 1e-9
            x = x / x.sum()
            alpha = float(rng.uniform(1e-3, 4.0))
            assert np.array_equal(hedge_step(game, x, alpha),
                                  reference_hedge_step(game, x, alpha))
