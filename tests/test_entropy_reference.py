"""The batched entropy diagnostics, their bulk sampler and the Hedge map
against per-sample loops, kept here as the reference implementations."""

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
from hedgenash.dynamics import ALPHA_GRID, POINTWISE_TOL


def reference_hedge_step(game, x, alpha):
    logits = np.log(x) + alpha * (game.payoff @ x)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def _re_on_support(p, q, mask):
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_sample(rng, n):
    """One (X, Y, alpha grid) sample from its 3n + 12 outputs, one value at
    a time: u = (v + 0.5) * 2**-52 from each output's top 52 bits v."""
    u = [((v >> 12) + 0.5) * 2.0 ** -52 for v in rng._draw(3 * n + 12)]
    x = -np.log(u[:n])
    size = 1 + math.floor(u[3 * n + 1] * n) if u[3 * n] < 0.3 else n
    keys = u[2 * n:3 * n]
    chosen = sorted(range(n), key=lambda i: keys[i])[:size]
    y = np.zeros(n)
    y[chosen] = -np.log(u[n:2 * n])[chosen]
    grid = sorted(ALPHA_GRID + tuple(2.0 * w for w in u[3 * n + 2:]))
    return x / x.sum(), y / y.sum(), grid


def reference_entropy_violations(game, samples, seed):
    """One sample at a time, one rate at a time: the three worst violations
    in the order convexity, upper bound, lower bound. Each grid's rates are
    taken once: a repeated rate changes no maximum."""
    rng = Xoshiro256StarStar(seed)
    c = game.payoff
    n = game.n
    viol = {"entropy_alpha_convexity": 0.0, "entropy_upper_bound": 0.0,
            "entropy_lower_bound": 0.0}

    for _ in range(samples):
        x, y, grid = reference_sample(rng, n)
        mask = y > 0.0
        cx = c @ x
        drift = float((y - x) @ cx)
        re_yx = _re_on_support(y, x, mask)
        log_x = np.log(x)

        alphas = sorted(set(grid))

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
    # 7-sample blocks at n = 4 (30 rates of 4 logits each): the draws
    # cross many block boundaries, and the samples and the report are
    # those of one block, bit for bit
    game = normalized("random_uniform", 4, 3)
    whole = diagnose_entropy_bounds(game, 50, 11).to_dict()
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", 7 * 30 * 4)
    assert_matches_reference(game, 50, 11)
    assert diagnose_entropy_bounds(game, 50, 11).to_dict() == whole
    assert_bulk_matches_reference(lambda: Xoshiro256StarStar(11), 4, 50)


def test_blocks_are_bounded_by_cells(monkeypatch):
    # at n = 1000 a block holds 2 samples, 2 * 30 * 1000 logits, and the
    # blocks together hold every sample once
    game = normalized("coordination", 1000, 0)
    shapes, check = [], dynamics._entropy_violations

    def recorded(c, xs, *rest):
        shapes.append(xs.shape)
        return check(c, xs, *rest)

    monkeypatch.setattr(dynamics, "_entropy_violations", recorded)
    diagnose_entropy_bounds(game, 5, 0)
    assert shapes == [(2, 1000), (2, 1000), (1, 1000)]


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
    """count samples drawn one at a time, stacked."""
    xs, ys, grids = zip(*(reference_sample(rng, n) for _ in range(count)))
    return np.array(xs), np.array(ys), np.array(grids)


def assert_bulk_matches_reference(make_rng, n, samples):
    """The blocks diagnose_entropy_bounds draws, bulk and one sample at a
    time from generators made alike: their X and grids, bit for bit."""
    bulk, reference = make_rng(), make_rng()
    chunk = max(1, dynamics._BLOCK_CELLS // (30 * n))
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        got = dynamics._draw_entropy_samples(bulk, n, count)
        xs, _, grids = reference_entropy_samples(reference, n, count)
        for a, b in zip(got, (xs, grids)):
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
        return np.concatenate([np.array(out, dtype=np.uint64),
                               super()._draw(count - len(out))])


@pytest.mark.parametrize("samples", [1, 2, 300])
def test_bulk_samples_take_the_extreme_outputs(samples):
    # n = 3, every output 0 or 2**64 - 1, the ends of the range: u is
    # 2**-53 or 1 - 2**-53, so every weight is finite and positive; the
    # branch is taken and the size's u is 1 - 2**-53, whose u * n rounds
    # below n: the full support
    top = 2 ** 64 - 1
    head = [0, top, 0, top, 0, top, 0, top, 0, 0, top, *[0, top] * 5]
    reference = Scripted(4, head)
    xs, ys, grids = reference_entropy_samples(reference, 3, 1)
    assert not reference.head                     # the script was read through
    assert xs[0, 0] == xs[0, 2] > xs[0, 1] > 0.0 and ys[0, 1] > ys[0, 0] == ys[0, 2] > 0.0
    assert xs[0, 1] == pytest.approx(2.0 ** -53 / (106 * math.log(2)), rel=1e-12)
    assert grids[0].tolist() == [0.0, *[2.0 ** -52] * 5, 0.25, 0.5, 1.0,
                                 *[2.0 - 2.0 ** -52] * 5, 2.0]
    assert_bulk_matches_reference(lambda: Scripted(4, head), 3, samples)


def test_sampler_distribution():
    # 20,000 samples at n = 4: X on the simplex, and the rates' mean within
    # 5 standard deviations of 1 (a false failure has odds under 1e-5)
    n, count = 4, 20_000
    xs, grids = dynamics._draw_entropy_samples(Xoshiro256StarStar(2), n, count)
    assert (xs > 0).all() and np.abs(xs.sum(axis=1) - 1).max() <= 1e-15
    # each grid: ALPHA_GRID and ten rates strictly inside (0, 2), sorted
    assert grids.shape == (count, len(ALPHA_GRID) + 10)
    assert (np.diff(grids, axis=1) >= 0).all()
    on_grid = np.isin(grids, ALPHA_GRID)
    assert (on_grid.sum(axis=1) == len(ALPHA_GRID)).all()
    assert (grids[on_grid].reshape(count, -1) == ALPHA_GRID).all()
    rates = grids[~on_grid]
    assert rates.min() > 0.0 and rates.max() < 2.0
    assert abs(rates.mean() - 1.0) <= 5 * math.sqrt(1 / 3 / rates.size)
