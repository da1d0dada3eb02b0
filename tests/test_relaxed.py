import itertools

import numpy as np
import pytest

import switchopt as so
from switchopt import simulate
from switchopt.errors import DimensionError
from switchopt.relaxed import project_rows_to_simplex
from switchopt.simulate import _adjoint_values

from conftest import counted_system, make_blowup_system, make_zero_system


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

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            so.project_simplex(np.array([]))


def default_start(system, grid):
    u = so.ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper)
    w = so.RelaxedControlPath.uniform(grid, system.modes.n_modes)
    return u, w


def _solve_from(system, grid, u, w):
    vt = so.BinaryControlPath.constant(grid, system.modes.values[0])
    return so.solve_relaxed_poc(system, grid, vt, 1.0, (u, w))


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
        """A negative, NaN or infinite rho is rejected by every entry point
        that takes one, not solved as rho = 0 or evaluated to NaN."""
        system, grid, _ = fuller_50
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        for rho in (-1.0, np.nan, np.inf):
            with pytest.raises(DimensionError):
                so.solve_relaxed_poc(system, grid, vt, rho, (u, w))
            with pytest.raises(DimensionError):
                so.adjoint_gradient(system, grid, u, w, vt, rho)
            with pytest.raises(DimensionError):
                so.penalized_objective(system, grid, u, w, vt, rho)

    @pytest.mark.parametrize("name, solve", [
        pytest.param("fuller_50", lambda system, grid: _solve_from(
            system, grid, *default_start(system, so.TimeGrid(grid.t_start, grid.t_end, 25))),
            id="warm-start-grid"),
        pytest.param("translines_coarse", lambda system, grid: _solve_from(
            system, grid,
            so.ContinuousControlPath.midpoint(grid, system.control_lower[:1],
                                              system.control_upper[:1]),
            so.RelaxedControlPath.uniform(grid, system.modes.n_modes)),
            id="warm-start-control-channels"),
        pytest.param("translines_coarse", lambda system, grid: _solve_from(
            system, grid,
            so.ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper),
            so.RelaxedControlPath.uniform(grid, 3)),
            id="warm-start-multiplier-columns"),
        pytest.param("translines_coarse", lambda system, grid: so.best_response_continuous(
            system, grid, np.full((grid.n_intervals, 3), 1.0 / 3)),
            id="best-response-multiplier-columns"),
        pytest.param("translines_coarse", lambda system, grid: so.best_response_continuous(
            system, grid, np.full((grid.n_intervals - 1, 4), 0.25)),
            id="best-response-multiplier-rows"),
    ])
    def test_rejects_controls_of_another_shape(self, request, name, solve):
        system, grid, _ = request.getfixturevalue(name)
        with pytest.raises(DimensionError):
            solve(system, grid)

    def test_options_validation(self):
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(stationarity_tol=-1.0)

    @pytest.mark.parametrize("field", ["stationarity_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_options_reject_non_finite(self, field, value):
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(**{field: value})

    @pytest.mark.parametrize("value", [0, 2.5, True])
    def test_max_iterations_must_be_a_positive_integer(self, value):
        with pytest.raises(DimensionError):
            so.RelaxedSolveOptions(max_iterations=value)

    def test_numpy_integer_max_iterations_accepted(self):
        assert so.RelaxedSolveOptions(max_iterations=np.int64(3)).max_iterations == 3


class TestOneSweepPerAcceptedIterate:
    """Each trial sweeps forward once, and the gradient at an accepted trial
    reuses that sweep: forward sweeps = trials + 1 for the warm start, where
    every trial and every gradient evaluates the terminal cost once."""

    def test_relaxed_solve(self, fuller_50):
        system, grid, _ = fuller_50
        system, counts = counted_system(system)
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        res = so.solve_relaxed_poc(
            system, grid, vt, 0.1, (u, w),
            so.RelaxedSolveOptions(stationarity_tol=1e-4, max_iterations=40),
        )
        assert res.iterations > 0
        assert counts["terminal_cost_gradient"] == res.iterations + 1
        sweeps, rest = divmod(counts["rhs_stack"], grid.n_intervals * 4)
        assert rest == 0
        assert sweeps == counts["terminal_cost"] - counts["terminal_cost_gradient"] + 1

    def test_continuous_best_response(self, translines_coarse):
        system, grid, _ = translines_coarse
        system, counts = counted_system(system)
        n = grid.n_intervals
        w = np.eye(system.modes.n_modes)[np.arange(n) % system.modes.n_modes]
        so.best_response_continuous(
            system, grid, w, so.RelaxedSolveOptions(max_iterations=10)
        )
        assert counts["terminal_cost_gradient"] > 1
        sweeps, rest = divmod(counts["rhs_stack"], n)  # one Euler stage per interval
        assert rest == 0
        assert sweeps == counts["terminal_cost"] - counts["terminal_cost_gradient"] + 1


class TestNoMemoOutsideAScope:
    def test_repeated_solve_makes_the_same_model_calls(self, fuller_50):
        # A library solve drops its sweep memo when it returns, so one
        # called twice sweeps every point twice.
        system, grid, _ = fuller_50
        system, counts = counted_system(system)
        u, w = default_start(system, grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        options = so.RelaxedSolveOptions(stationarity_tol=1e-4, max_iterations=40)
        calls = []
        for _ in range(2):
            so.solve_relaxed_poc(system, grid, vt, 0.1, (u, w), options)
            calls.append(dict(counts))
        assert calls[1] == {name: 2 * n for name, n in calls[0].items()}

    def test_library_solves_leave_no_memo(self, fuller_50, translines_coarse):
        system, grid, _ = fuller_50
        vt = so.BinaryControlPath.constant(grid, [0])
        options = so.RelaxedSolveOptions(max_iterations=5)
        so.solve_relaxed_poc(system, grid, vt, 0.1, default_start(system, grid), options)
        assert simulate._memo.get() is None
        system, grid, _ = translines_coarse
        w = np.eye(system.modes.n_modes)[np.arange(grid.n_intervals) % system.modes.n_modes]
        so.best_response_continuous(system, grid, w, options)
        assert simulate._memo.get() is None


class TestContinuousBestResponse:
    def test_leaf_solve_meets_the_relaxed_stopping_rule(self, translines_coarse):
        """The leaf solve stops on the 2-norm unit-step residual that
        ``solve_relaxed_poc`` certifies, not on a weaker max-norm."""
        system, grid, _ = translines_coarse
        m, n = system.modes.n_modes, grid.n_intervals
        w = np.eye(m)[np.random.default_rng(3).integers(0, m, n)]
        options = so.RelaxedSolveOptions()
        u, value = so.best_response_continuous(system, grid, w, options)
        val, grad_u, _ = _adjoint_values(system, grid, u, w, np.zeros_like(w))
        assert val == value
        step = np.clip(u - grad_u, system.control_lower, system.control_upper) - u
        assert np.sqrt((step * step).sum()) <= options.stationarity_tol


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
