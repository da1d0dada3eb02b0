import itertools

import numpy as np
import pytest

import switchopt as so
from switchopt.errors import DimensionError
from switchopt.relaxed import project_rows_to_simplex

from conftest import make_blowup_system, make_zero_system


def simplex_projection_oracle(v):
    """Least-squares projection by trying every support set.

    For each candidate support S the equality-constrained minimizer shifts
    the supported entries by a common offset; the feasible candidate with
    the smallest distance is the projection.
    """
    n = v.size
    best, best_dist = None, np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            x = np.zeros(n)
            shift = (1.0 - v[list(support)].sum()) / size
            x[list(support)] = v[list(support)] + shift
            if x.min() < -1e-12:
                continue
            dist = float(((x - v) ** 2).sum())
            if dist < best_dist:
                best, best_dist = x, dist
    return best


class TestProjectSimplex:
    def test_fixed_point_on_simplex(self):
        np.testing.assert_allclose(
            so.project_simplex(np.array([0.2, 0.8])), [0.2, 0.8], atol=1e-15
        )

    def test_outside_vertex(self):
        np.testing.assert_allclose(
            so.project_simplex(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15
        )

    def test_symmetric_point(self):
        np.testing.assert_allclose(
            so.project_simplex(np.array([0.5, 0.5, 0.5])), [1 / 3] * 3, atol=1e-15
        )

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = so.project_simplex(rng.normal(size=4))
            np.testing.assert_allclose(so.project_simplex(x), x, atol=1e-14)

    def test_matches_support_enumeration_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            m = int(rng.integers(2, 5))
            v = rng.normal(scale=2.0, size=m)
            got = so.project_simplex(v)
            want = simplex_projection_oracle(v)
            assert np.abs(got - want).max() <= 1e-10
            assert got.sum() == pytest.approx(1.0, abs=1e-12)
            assert got.min() >= 0.0

    def test_rowwise_matches_single(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(50, 4))
        rows = project_rows_to_simplex(mat)
        for k in range(50):
            np.testing.assert_allclose(rows[k], so.project_simplex(mat[k]), atol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            so.project_simplex(np.array([np.nan, 0.0]))


def default_start(system, grid):
    u = so.ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper)
    w = so.RelaxedControlPath.uniform(grid, system.modes.n_modes)
    return u, w


class TestSolveRelaxedPoc:
    def test_zero_gradient_returns_warm_start(self):
        system = make_zero_system(state_dim=1, control_dim=1)
        grid = so.TimeGrid(0.0, 1.0, 6)
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        res = so.solve_relaxed_poc(system, grid, vt, 0.0, (u, w))
        assert res.iterations == 0
        assert res.converged
        assert np.array_equal(res.u.values, u.values)
        assert np.array_equal(res.w.values, w.values)

    def test_fuller_descends_below_uncontrolled_value(self, fuller_100):
        system, grid, _ = fuller_100
        u, _ = default_start(system, grid)
        w0 = so.binary_to_onehot(so.BinaryControlPath.constant(grid, [0]), system.modes)
        vt = so.BinaryControlPath.constant(grid, [0])
        res = so.solve_relaxed_poc(
            system, grid, vt, 0.0, (u, w0),
            so.RelaxedSolveOptions(stationarity_tol=1e-4),
        )
        assert res.value < 1.30343

    def test_large_rho_pins_to_projection(self, fuller_50):
        system, grid, spec = fuller_50
        rng = np.random.default_rng(31)
        vt_vals = np.repeat(rng.integers(0, 2, (10, 1)), 5, axis=0)
        vt = so.BinaryControlPath(grid, vt_vals)
        assert so.check_feasible(vt, spec, grid).feasible
        u, w = default_start(system, grid)
        res = so.solve_relaxed_poc(system, grid, vt, 1e6, (u, w))
        rounded = so.onehot_to_binary(so.sum_up_rounding(res.w, grid), system.modes)
        assert so.penalty_term(rounded, vt, grid) == 0.0

    def test_monotone_descent_from_warm_start(self, fuller_50):
        system, grid, _ = fuller_50
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [1])
        opts = so.RelaxedSolveOptions(stationarity_tol=1e-4)
        start_value = so.penalized_objective(system, grid, u, w, vt, 0.5)
        res = so.solve_relaxed_poc(system, grid, vt, 0.5, (u, w), opts)
        assert res.value <= start_value

    def test_iterates_stay_feasible(self, fuller_50):
        system, grid, _ = fuller_50
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        res = so.solve_relaxed_poc(
            system, grid, vt, 0.1, (u, w),
            so.RelaxedSolveOptions(stationarity_tol=1e-4, max_iterations=40),
        )
        sums = res.w.values.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert res.w.values.min() >= -1e-15

    def test_resolve_from_converged_point_is_immediate(self, fuller_50):
        system, grid, _ = fuller_50
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        opts = so.RelaxedSolveOptions(stationarity_tol=1e-4)
        first = so.solve_relaxed_poc(system, grid, vt, 0.2, (u, w), opts)
        assert first.converged
        second = so.solve_relaxed_poc(system, grid, vt, 0.2, (first.u, first.w), opts)
        assert second.iterations <= 1
        assert second.value <= first.value + 1e-15

    def test_max_iterations_returns_best_unconverged(self, fuller_100):
        system, grid, _ = fuller_100
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        res = so.solve_relaxed_poc(
            system, grid, vt, 0.0, (u, w),
            so.RelaxedSolveOptions(stationarity_tol=1e-12, max_iterations=5),
        )
        assert not res.converged
        assert res.iterations == 5

    def test_continuous_controls_respect_bounds(self, translines_coarse):
        system, grid, _ = translines_coarse
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, system.modes.values[0])
        res = so.solve_relaxed_poc(
            system, grid, vt, 0.0, (u, w),
            so.RelaxedSolveOptions(stationarity_tol=1e-3, max_iterations=100),
        )
        assert res.u.values.min() >= system.control_lower.min()
        assert (res.u.values <= system.control_upper[None, :]).all()
        assert (res.u.values >= system.control_lower[None, :]).all()

    def test_rejects_negative_rho(self, fuller_50):
        system, grid, _ = fuller_50
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        with pytest.raises(DimensionError):
            so.solve_relaxed_poc(system, grid, vt, -1.0, (u, w))

    def test_options_validation(self):
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(armijo_c=1.5)
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(backtrack_factor=0.0)
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(stationarity_tol=-1.0)


class TestDivergingTrial:
    """A trial sweep that leaves the finite range is backtracked, not raised."""

    grid = so.TimeGrid(0.0, 1.5, 15)
    # The cost is unbounded below, so only a few iterations are run.
    options = so.RelaxedSolveOptions(max_iterations=5)

    def test_relaxed_solve_backtracks(self):
        system = make_blowup_system()
        u, w = default_start(system, self.grid)
        vt = so.BinaryControlPath.constant(self.grid, [0])
        start = so.penalized_objective(system, self.grid, u, w, vt, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = so.solve_relaxed_poc(system, self.grid, vt, 0.0, (u, w), self.options)
        assert np.isfinite(res.value)
        assert res.value <= start

    def test_continuous_best_response_backtracks(self):
        system = make_blowup_system(controlled=True)
        u, _ = default_start(system, self.grid)
        w = np.tile([1.0, 0.0], (self.grid.n_intervals, 1))
        traj = so.integrate(system, self.grid, u, so.RelaxedControlPath(self.grid, w))
        start = so.objective(system, traj)
        with np.errstate(over="ignore", invalid="ignore"):
            _, value = so.best_response_continuous(system, self.grid, w, self.options)
        assert np.isfinite(value)
        assert value <= start

    def test_adm_run_survives(self):
        system = make_blowup_system()
        spec = so.CombinatorialSpec.uniform(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            res = so.adm_penalty(
                system, self.grid, spec,
                options=so.AdmOptions(relaxed_options=self.options),
            )
        assert np.isfinite(res.objective)
