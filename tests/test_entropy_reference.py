"""The batched entropy diagnostics, their bulk sampler and the Hedge map
against their former per-sample loops, kept here as the reference
implementations."""

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
from hedgenash.dynamics import _DIAG_CHUNK, ALPHA_GRID, POINTWISE_TOL


def reference_hedge_step(game, x, alpha):
    logits = np.log(x) + alpha * (game.payoff @ x)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def _re_on_support(p, q, mask):
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_entropy_violations(game, samples, seed):
    """One sample at a time, one rate at a time: the three worst violations
    in the order convexity, upper bound, lower bound."""
    rng = Xoshiro256StarStar(seed)
    c = game.payoff
    n = game.n
    viol = {"entropy_alpha_convexity": 0.0, "entropy_upper_bound": 0.0,
            "entropy_lower_bound": 0.0}

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
    return viol


TOLERANCES = {"entropy_alpha_convexity": POINTWISE_TOL,
              "entropy_upper_bound": POINTWISE_TOL,
              "entropy_lower_bound": POINTWISE_TOL}


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


def reference_entropy_samples(rng, n, count):
    """The per-sample draw loop: count (X, Y, alpha grid) samples, the
    grids padded to a common width by repeating their largest rate."""
    xs = np.empty((count, n))
    ys = np.empty((count, n))
    grids = []
    for s in range(count):
        xs[s] = rng.interior_point(n)
        support_size = 1 + rng.randint(n) if rng.random() < 0.3 else None
        ys[s] = rng.simplex_point(n, support_size)
        grids.append(sorted(set(ALPHA_GRID) | {rng.uniform(0.0, 2.0) for _ in range(10)}))
    width = max(len(g) for g in grids)
    return xs, ys, np.array([g + g[-1:] * (width - len(g)) for g in grids])


def assert_bulk_matches_reference(make_rng, n, samples):
    """The blocks diagnose_entropy_bounds draws, bulk and one sample at a
    time from generators made alike, bit for bit."""
    bulk, reference, ahead = make_rng(), make_rng(), []
    for start in range(0, samples, _DIAG_CHUNK):
        count = min(_DIAG_CHUNK, samples - start)
        *got, ahead = dynamics._draw_entropy_samples(bulk, n, count, ahead)
        for a, b in zip(got, reference_entropy_samples(reference, n, count)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("samples", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_bulk_samples_match_per_sample_loop(n, samples):
    for seed in range(20):
        assert_bulk_matches_reference(lambda: Xoshiro256StarStar(seed), n, samples)


class Scripted(Xoshiro256StarStar):
    """The outputs ``head``, then the seeded stream's."""

    def __init__(self, seed, head):
        super().__init__(seed)
        self.head = list(head)

    def _draw(self, count):
        out, self.head = self.head[:count], self.head[count:]
        return out + super()._draw(count - len(out))

    def next_u64(self):
        return self._draw(1)[0]


# n = 3: X's first draw is 0 after the shift and is skipped; the branch is
# taken; randint(3) rejects 2**64 - 1 and then gives 1 (support size 2);
# randint(3) = 0 and randint(2) = 1 choose strategies 0 and 2; then Y's two
# draws. The grid's ten draws, past the 2n + 11 of the bulk draw, give 0.5
# twice and 0.0, both on ALPHA_GRID: a grid of 12 rates.
BIG = [k * 0x9E3779B97F4A7C15 % 2 ** 64 for k in range(1, 13)]
HEAD = [5, *BIG[:3], 1 << 11, 2 ** 64 - 1, 4, 0, 1, *BIG[3:5],
        2 ** 62, 5, 2 ** 62, *BIG[5:]]


@pytest.mark.parametrize("samples", [1, 2, 300])
def test_bulk_samples_take_a_rejection_and_a_zero_draw(samples):
    reference = Scripted(4, HEAD)
    xs, ys, grids = reference_entropy_samples(reference, 3, 1)
    assert not reference.head                     # the script was read through
    assert ys[0, 1] == 0.0 and ys[0, 0] > 0.0 and ys[0, 2] > 0.0
    assert np.array_equal(xs[0], Scripted(4, HEAD[1:4]).interior_point(3))
    assert grids.shape == (1, 12) and (np.diff(grids[0]) > 0).all()
    assert_bulk_matches_reference(lambda: Scripted(4, HEAD), 3, samples)
