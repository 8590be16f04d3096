"""Differential test of the spread programs against HiGHS.

scipy is a test-only dependency: the module is skipped without it.
"""

import numpy as np
import pytest

from hedgenash import generate_game, min_equalizer_gap, validate_game
from hedgenash.analysis import best_subequalizer

linprog = pytest.importorskip("scipy.optimize").linprog


def highs_spread(payoff, carrier):
    """min u - l s.t. l <= (CX)_i <= u on the carrier, (CX)_j <= l off it,
    X a strategy on the carrier; u and l free. None when infeasible."""
    n, m = payoff.shape[0], len(carrier)
    outside = [j for j in range(n) if j not in carrier]
    cx = payoff[:, carrier]
    a_ub = np.vstack([
        np.column_stack([cx[carrier], -np.ones(m), np.zeros(m)]),
        np.column_stack([-cx[carrier], np.zeros(m), np.ones(m)]),
        np.column_stack([cx[outside], np.zeros(n - m), -np.ones(n - m)]),
    ])
    res = linprog(np.r_[np.zeros(m), 1.0, -1.0], A_ub=a_ub, b_ub=np.zeros(n + m),
                  A_eq=np.r_[np.ones(m), 0.0, 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)] * 2, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


def games():
    for n in range(3, 17):
        for seed in range(2):
            uniform = generate_game("random_uniform", n, seed)
            yield f"random_uniform:{n}:{seed}", uniform
            yield f"zero_sum_symmetric:{n}:{seed}", generate_game(
                "zero_sum_symmetric", n, seed)
            # negative entries exercise the payoff shift
            yield f"centred:{n}:{seed}", validate_game(uniform.payoff - 0.5)


GAMES = [pytest.param(game, id=name) for name, game in games()]

# Full-carrier programs of 65 to 101 rows. Under Bland's rule with ratio
# ties taken within PIVOT_TOL, 17 of these 36 games failed this test, 8 of
# them on the full carrier.
LARGE = [pytest.param(generate_game("random_uniform", n, seed),
                      id=f"random_uniform:{n}:{seed}")
         for n in (32, 40, 50) for seed in range(12)]


def assert_spreads_match(game, carriers):
    """min_equalizer_gap, and best_subequalizer on ``carriers`` random
    carriers, against HiGHS to 1e-9."""
    spread = min_equalizer_gap(game)[1]
    assert spread == pytest.approx(highs_spread(game.payoff, list(range(game.n))),
                                   abs=1e-9)
    rng = np.random.default_rng(game.n)
    for _ in range(carriers):
        m = int(rng.integers(1, game.n + 1))
        carrier = sorted(int(i) for i in rng.choice(game.n, size=m, replace=False))
        expected = highs_spread(game.payoff, carrier)
        solved = best_subequalizer(game, carrier)
        assert (solved is None) == (expected is None), carrier
        if solved is not None:
            assert solved[1] == pytest.approx(expected, abs=1e-9), carrier


@pytest.mark.parametrize("game", GAMES)
def test_spreads_match_highs(game):
    assert_spreads_match(game, carriers=4)


@pytest.mark.parametrize("game", LARGE)
def test_large_spreads_match_highs(game):
    assert_spreads_match(game, carriers=2)
