import numpy as np
import pytest

import hedgenash.lp as lp_module
from hedgenash import LPError, generate_game, min_equalizer_gap, validate_game
from hedgenash.analysis import _spread_lp
from hedgenash.lp import StandardFormLP, _pivot, _verify_optimal, solve_lp


def solve(a, b, d):
    return solve_lp(StandardFormLP(a=np.array(a, dtype=float),
                                   b=np.array(b, dtype=float),
                                   objective=np.array(d, dtype=float)))


class TestSolveLP:
    def test_maximize_on_segment(self):
        # maximize y0 as minimize -y0
        res = solve([[1, 1]], [1], [-1, 0])
        assert res.status == "optimal"
        assert np.allclose(res.solution, [1, 0], atol=1e-12)
        assert res.objective_value == pytest.approx(-1.0)

    def test_infeasible_negative_rhs(self):
        res = solve([[1]], [-1], [0])
        assert res.status == "infeasible"

    def test_unbounded_ray(self):
        res = solve([[1, -1]], [0], [-1, 0])
        assert res.status == "unbounded"

    def test_minimize_on_segment(self):
        res = solve([[1, 1]], [1], [3, 2])
        assert res.status == "optimal"
        assert np.allclose(res.solution, [0, 1], atol=1e-12)
        assert res.objective_value == pytest.approx(2.0)

    def test_feasibility_returns_a_point(self):
        # a zero objective asks only for a feasible point
        res = solve([[1, 1, 1]], [1], [0, 0, 0])
        assert res.status == "optimal"
        assert abs(res.solution.sum() - 1.0) <= 1e-8

    def test_redundant_rows_handled(self):
        res = solve([[1, 1], [2, 2]], [1, 2], [1, 0])
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_instance_terminates(self):
        # multiple basic solutions hit the same vertex; the lexicographic
        # ratio test must not cycle
        a = [[1, 1, 1, 0], [1, 0, 0, 1]]
        res = solve(a, [1, 1], [-1, 0, 0, 0])
        assert res.status == "optimal"
        assert res.solution[0] == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LPError):
            solve([[1, 1]], [1, 2], [1, 0])
        with pytest.raises(LPError):
            solve([[1, 1]], [1], [1])

    def test_non_finite_rejected(self):
        with pytest.raises(LPError):
            solve([[np.inf, 1]], [1], [1, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_result_invariants_on_random_feasible(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 2.0, size=(3, 6))
        y0 = rng.uniform(0.1, 1.0, size=6)
        b = a @ y0
        d = rng.uniform(0.1, 1.0, size=6)  # positive cost keeps it bounded
        res = solve(a, b, d)
        assert res.status == "optimal"
        assert np.max(np.abs(a @ res.solution - b)) <= 1e-8
        assert res.solution.min() >= -1e-10
        assert res.objective_value <= d @ y0 + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_duality_spot_check_simplex(self, seed):
        # feasible set = probability simplex; randomized lower-bound oracle
        rng = np.random.default_rng(100 + seed)
        n = 5
        d = rng.uniform(-2, 2, size=n)
        res = solve(np.ones((1, n)), [1], d)
        assert res.status == "optimal"
        points = rng.dirichlet(np.ones(n), size=10**5)
        sampled_best = float((points @ d).min())
        assert res.objective_value <= sampled_best + 1e-7
        assert res.objective_value == pytest.approx(d.min(), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_duality_spot_check_tied_coordinates(self, seed):
        # simplex plus y1 = y2; sample feasible points directly
        rng = np.random.default_rng(200 + seed)
        n = 5
        d = rng.uniform(-2, 2, size=n)
        a = np.vstack([np.ones(n), np.eye(n)[0] - np.eye(n)[1]])
        res = solve(a, [1, 0], d)
        assert res.status == "optimal"
        groups = rng.dirichlet(np.ones(n - 1), size=10**5)
        points = np.zeros((10**5, n))
        points[:, 0] = points[:, 1] = groups[:, 0] / 2
        points[:, 2:] = groups[:, 1:]
        sampled_best = float((points @ d).min())
        assert res.objective_value <= sampled_best + 1e-7

    def test_pivot_cap_raises_lperror(self, monkeypatch):
        # with no pivot allowed, phase 1 cannot bring y0 into the basis
        monkeypatch.setattr(lp_module, "PIVOT_CAP", 0)
        with pytest.raises(LPError, match="iteration limit: 0 pivots"):
            solve([[1, 1]], [1], [-1, 0])

    def test_bland_cycling_spread_program_solves(self):
        # phase 2 of this full-carrier program (81 rows, 122 columns) cycles
        # under Bland's rule with ratio ties taken within PIVOT_TOL; the
        # lexicographic ratio test solves it
        game = generate_game("random_uniform", 40, 5)
        res = solve_lp(_spread_lp(game.payoff, list(range(40))))
        assert res.status == "optimal"
        # min_equalizer_gap recomputes the spread from its strategy
        assert min_equalizer_gap(game)[1] == pytest.approx(res.objective_value, abs=1e-12)

    def test_residual_violation_raises_lperror(self):
        lp = StandardFormLP(a=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                            objective=np.zeros(2)).validated()
        with pytest.raises(LPError, match="violates A y = b"):
            _verify_optimal(lp, np.array([0.5, 0.6]))
        with pytest.raises(LPError, match="negative entry"):
            _verify_optimal(lp, np.array([1.5, -0.5]))

    def test_pivot_matches_row_by_row_elimination(self):
        rng = np.random.default_rng(3)
        tableau = rng.uniform(-1, 1, size=(5, 8))
        tableau[2, 4] = 0.0  # a row the elimination leaves alone
        expected = tableau.copy()
        expected[1] /= expected[1, 4]
        for i in (0, 2, 3, 4):
            expected[i] = expected[i] - expected[i, 4] * expected[1]
        basis = np.arange(5)
        _pivot(tableau, basis, 1, 4)
        assert np.array_equal(tableau, expected)
        assert basis[1] == 4


class TestEqualizerLP:
    """The equalizer program is the spread program on the full carrier:
    variables [X (n), u, l, 2n slacks], optimum 0 exactly at equalizers.
    Payoffs with no negative entry are used unshifted."""

    def test_rps_feasible_at_uniform(self, rps_nonneg):
        res = solve_lp(_spread_lp(rps_nonneg.payoff, [0, 1, 2]))
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(0.0, abs=1e-9)
        x = res.solution[:3]
        assert np.max(np.abs(x - 1 / 3)) <= 1e-9
        level = float(rps_nonneg.payoff[0] @ x)
        assert res.solution[3] == pytest.approx(level, abs=1e-9)  # u
        assert res.solution[4] == pytest.approx(level, abs=1e-9)  # l

    def test_identity_shifted(self, identity2):
        res = solve_lp(_spread_lp(identity2.payoff - 2.0, [0, 1]))
        assert res.status == "optimal"
        x = res.solution[:2]
        assert np.max(np.abs(x - 0.5)) <= 1e-9
        # shifted by +2 back to the identity: the common level is 0.5
        assert res.solution[2] == pytest.approx(0.5, abs=1e-9)

    def test_dominated_row_infeasible(self):
        # no equalizer: the least spread is 1, so find_equalizer gives None
        res = solve_lp(_spread_lp(np.array([[1.0, 1.0], [0.0, 0.0]]), [0, 1]))
        assert res.status == "optimal"
        assert res.objective_value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_feasible_solutions_equalize(self, seed):
        g = validate_game(np.random.default_rng(seed).uniform(0, 1, size=(4, 4)))
        res = solve_lp(_spread_lp(g.payoff, [0, 1, 2, 3]))
        assert res.status == "optimal"
        x = res.solution[:4]
        cx = g.payoff @ (x / x.sum())
        assert cx.max() - cx.min() <= res.objective_value + 1e-12
        if res.objective_value <= 1e-8:  # an equalizer exists
            assert cx.max() - cx.min() <= 1e-8

    def test_affine_hull_of_equalizers(self):
        # all rows equal: every simplex point is an equalizer; pull two
        # distinct ones by optimizing opposite objectives over the same LP
        c = np.array([[1.0, 2.0, 3.0]] * 3)
        lp = _spread_lp(c, [0, 1, 2])
        d = np.zeros(lp.objective.size)
        d[0] = 1.0
        lo = solve_lp(StandardFormLP(a=lp.a, b=lp.b, objective=d))
        hi = solve_lp(StandardFormLP(a=lp.a, b=lp.b, objective=-d))
        x1, x2 = lo.solution[:3], hi.solution[:3]
        assert np.max(np.abs(x1 - x2)) > 0.5
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, size=20):
            x = t * x1 + (1 - t) * x2
            cx = c @ (x / x.sum())
            assert cx.max() - cx.min() <= 1e-8
