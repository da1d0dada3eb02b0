import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import switchopt as so
from switchopt.errors import DivergenceError
from switchopt.simulate import _adjoint_values, _integrate_values

from conftest import make_zero_system

FULLER_V0_OBJECTIVE = float(
    Fraction(1, 10000) + Fraction(1, 300) + Fraction(1, 20) + Fraction(1, 4) + 1
)


def make_scalar_system(values=(1.0, -1.0), phi=None, phi_grad=None):
    """Scalar state with constant per-mode slope, configurable cost."""
    modes = so.enumerate_modes(1)
    slopes = dict(zip((0, 1), values))

    def rhs(t, y, u, r):
        return np.array([slopes[int(r[0])]])

    return so.SwitchedSystem(
        state_dim=1,
        control_dim=0,
        modes=modes,
        rhs=rhs,
        rhs_jac_state=lambda t, y, u, r: np.zeros((1, 1)),
        rhs_jac_control=lambda t, y, u, r: np.zeros((1, 0)),
        terminal_cost=phi or (lambda y: 0.0),
        terminal_cost_gradient=phi_grad or (lambda y: np.zeros(1)),
        initial_state=np.zeros(1),
        control_lower=np.zeros(0),
        control_upper=np.zeros(0),
    )


class TestIntegrate:
    def test_fuller_uncontrolled_closed_form(self):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 200))
        w = so.binary_to_onehot(so.BinaryControlPath.constant(grid, [0]), system.modes)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        # Position and velocity are polynomial in t, reproduced to roundoff.
        assert traj.final_state[0] == pytest.approx(0.51, abs=1e-13)
        assert traj.final_state[1] == pytest.approx(1.0, abs=1e-13)

    def test_zero_dynamics_keeps_state(self):
        system = make_zero_system(state_dim=3)
        grid = so.TimeGrid(0.0, 1.0, 7)
        w = so.RelaxedControlPath.uniform(grid, 2)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert np.array_equal(traj.states, np.zeros((8, 3)))

    def test_opposite_modes_cancel_under_even_mix(self):
        system = make_scalar_system((1.0, -1.0))
        grid = so.TimeGrid(0.0, 2.0, 10)
        w = so.RelaxedControlPath.uniform(grid, 2)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert np.abs(traj.states).max() == 0.0

    def test_initial_row_is_initial_state(self):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 10))
        w = so.RelaxedControlPath.uniform(grid, 2)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert np.array_equal(traj.states[0], system.initial_state)

    def test_divergence_reports_interval(self):
        modes = so.enumerate_modes(1)
        system = so.SwitchedSystem(
            state_dim=1, control_dim=0, modes=modes,
            rhs=lambda t, y, u, r: np.array([y[0] ** 2]),
            rhs_jac_state=lambda t, y, u, r: np.array([[2 * y[0]]]),
            rhs_jac_control=lambda t, y, u, r: np.zeros((1, 0)),
            terminal_cost=lambda y: 0.0,
            terminal_cost_gradient=lambda y: np.zeros(1),
            initial_state=np.array([10.0]),
            control_lower=np.zeros(0), control_upper=np.zeros(0),
        )
        grid = so.TimeGrid(0.0, 5.0, 10)
        w = so.RelaxedControlPath(grid, np.tile([0.5, 0.5], (10, 1)))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert err.value.interval is not None

    def test_vertex_consistency_bitwise(self, fuller_50):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(9)
        sel = rng.integers(0, 2, grid.n_intervals)
        onehot = np.zeros((grid.n_intervals, 2))
        onehot[np.arange(grid.n_intervals), sel] = 1.0
        w = so.RelaxedControlPath(grid, onehot)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)

        # Reference: drive the single selected mode directly per interval.
        h = grid.step
        y = system.initial_state.copy()
        states = [y.copy()]
        u = np.zeros(0)
        for k in range(grid.n_intervals):
            r = system.modes.values[sel[k]]
            t = grid.node(k)
            s1 = system.rhs(t, y, u, r)
            s2 = system.rhs(t + h / 2, y + h / 2 * s1, u, r)
            s3 = system.rhs(t + h / 2, y + h / 2 * s2, u, r)
            s4 = system.rhs(t + h, y + h * s3, u, r)
            y = y + h / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
            states.append(y.copy())
        diff = np.abs(traj.states - np.array(states))
        assert diff.max() == 0.0

    def test_rk4_order_on_smooth_dynamics(self):
        # Constant fractional mixing gives smooth non-polynomial-exact
        # dynamics through the accumulated-cost state.
        def run(n):
            system, grid, _ = so.build_fuller(so.FullerConfig(0.05, n))
            w = so.RelaxedControlPath(grid, np.tile([0.7, 0.3], (n, 1)))
            traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
            return traj.final_state

        reference = run(1600)
        errors = [np.abs(run(n) - reference).max() for n in (50, 100, 200)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9


class TestObjective:
    def test_fuller_uncontrolled_value(self):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 200))
        w = so.binary_to_onehot(so.BinaryControlPath.constant(grid, [0]), system.modes)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert so.objective(system, traj) == pytest.approx(
            FULLER_V0_OBJECTIVE, abs=1e-8
        )

    def test_zero_cost(self):
        system = make_zero_system(state_dim=2)
        grid = so.TimeGrid(0.0, 1.0, 4)
        w = so.RelaxedControlPath.uniform(grid, 2)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert so.objective(system, traj) == 0.0

    def test_quadratic_cost_at_rest(self):
        system = make_scalar_system((0.0, 0.0), phi=lambda y: float(y @ y))
        grid = so.TimeGrid(0.0, 1.0, 4)
        w = so.RelaxedControlPath.uniform(grid, 2)
        traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid), w)
        assert so.objective(system, traj) == 0.0


class TestPenalizedObjective:
    def test_rho_zero_equals_objective(self, fuller_50):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(2)
        vals = rng.random((grid.n_intervals, 2))
        vals /= vals.sum(axis=1, keepdims=True)
        w = so.RelaxedControlPath(grid, vals)
        u = so.ContinuousControlPath.empty(grid)
        vt = so.BinaryControlPath.constant(grid, [0])
        base = so.objective(system, so.integrate(system, grid, u, w))
        assert so.penalized_objective(system, grid, u, w, vt, 0.0) == base

    def test_matching_onehot_has_zero_penalty(self, fuller_50):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(4)
        v = so.BinaryControlPath(grid, rng.integers(0, 2, (grid.n_intervals, 1)))
        w = so.binary_to_onehot(v, system.modes)
        u = so.ContinuousControlPath.empty(grid)
        base = so.objective(system, so.integrate(system, grid, u, w))
        for rho in (0.0, 1.0, 1e6):
            assert so.penalized_objective(system, grid, u, w, v, rho) == base

    def test_hand_computed_penalty_contribution(self):
        system = make_scalar_system((0.0, 0.0))
        grid = so.TimeGrid(0.0, 1.0, 2)  # step 0.5
        w = so.RelaxedControlPath(grid, [[0.0, 1.0], [0.0, 1.0]])
        vt = so.BinaryControlPath(grid, [[0], [0]])
        u = so.ContinuousControlPath.empty(grid)
        for rho in (0.5, 2.0):
            assert so.penalized_objective(system, grid, u, w, vt, rho) == pytest.approx(rho)

    def test_consistency_with_penalty_term_on_vertices(self, fuller_50):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(8)
        v = so.BinaryControlPath(grid, rng.integers(0, 2, (grid.n_intervals, 1)))
        vt = so.BinaryControlPath(grid, rng.integers(0, 2, (grid.n_intervals, 1)))
        w = so.binary_to_onehot(v, system.modes)
        u = so.ContinuousControlPath.empty(grid)
        rho = 3.5
        expected = (
            so.objective(system, so.integrate(system, grid, u, w))
            + rho * so.penalty_term(v, vt, grid)
        )
        assert so.penalized_objective(system, grid, u, w, vt, rho) == pytest.approx(
            expected, rel=1e-14
        )

    def test_affine_in_rho(self, fuller_50):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(12)
        vals = rng.random((grid.n_intervals, 2))
        vals /= vals.sum(axis=1, keepdims=True)
        w = so.RelaxedControlPath(grid, vals)
        u = so.ContinuousControlPath.empty(grid)
        vt = so.BinaryControlPath(grid, rng.integers(0, 2, (grid.n_intervals, 1)))
        f0 = so.penalized_objective(system, grid, u, w, vt, 0.0)
        f1 = so.penalized_objective(system, grid, u, w, vt, 1.0)
        slope = so.weighted_penalty_value(system, grid, w, vt)
        for rho in (0.25, 2.0, 17.0):
            assert so.penalized_objective(system, grid, u, w, vt, rho) == pytest.approx(
                f0 + rho * slope, rel=1e-12
            )
        assert f1 - f0 == pytest.approx(slope, rel=1e-12)


def central_difference_gradient(system, grid, u_values, w_values, vt, rho, step=1e-6):
    """Independent objective-gradient evaluation, one coordinate at a time."""
    pen = rho * grid.step * so.mode_deviation_costs(system.modes, vt)

    def value(u_arr, w_arr):
        states = _integrate_values(system, grid, u_arr, w_arr)
        return float(system.terminal_cost(states[-1])) + float((w_arr * pen).sum())

    grad_u = np.zeros_like(u_values)
    grad_w = np.zeros_like(w_values)
    for k in range(u_values.shape[0]):
        for j in range(u_values.shape[1]):
            up, um = u_values.copy(), u_values.copy()
            up[k, j] += step
            um[k, j] -= step
            grad_u[k, j] = (value(up, w_values) - value(um, w_values)) / (2 * step)
    for k in range(w_values.shape[0]):
        for j in range(w_values.shape[1]):
            wp, wm = w_values.copy(), w_values.copy()
            wp[k, j] += step
            wm[k, j] -= step
            grad_w[k, j] = (value(u_values, wp) - value(u_values, wm)) / (2 * step)
    return grad_u, grad_w


def relative_gradient_error(got, want):
    scale = max(1.0, float(np.abs(want).max()) if want.size else 0.0)
    return float(np.abs(got - want).max()) / scale if want.size else 0.0


class TestAdjointGradient:
    def test_zero_system_zero_gradient(self):
        system = make_zero_system(state_dim=2, control_dim=1)
        grid = so.TimeGrid(0.0, 1.0, 5)
        u = so.ContinuousControlPath(grid, np.full((5, 1), 0.5), [0.0], [1.0])
        w = so.RelaxedControlPath.uniform(grid, 2)
        vt = so.BinaryControlPath.constant(grid, [0])
        gu, gw = so.adjoint_gradient(system, grid, u, w, vt, 0.0)
        assert np.all(gu == 0.0) and np.all(gw == 0.0)

    def test_pure_penalty_gradient_closed_form(self):
        system = make_zero_system(state_dim=1)
        grid = so.TimeGrid(0.0, 1.0, 4)  # step 0.25
        rng = np.random.default_rng(0)
        vt = so.BinaryControlPath(grid, rng.integers(0, 2, (4, 1)))
        w = so.RelaxedControlPath.uniform(grid, 2)
        u = so.ContinuousControlPath.empty(grid)
        rho = 2.0
        _, gw = so.adjoint_gradient(system, grid, u, w, vt, rho)
        expected = rho * grid.step * so.mode_deviation_costs(system.modes, vt)
        assert np.allclose(gw, expected, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    def test_fuller_matches_central_differences(self, fuller_50, rho):
        system, grid, _ = fuller_50
        rng = np.random.default_rng(21)
        vals = rng.random((grid.n_intervals, 2))
        vals /= vals.sum(axis=1, keepdims=True)
        w = so.RelaxedControlPath(grid, vals)
        u = so.ContinuousControlPath.empty(grid)
        vt = so.BinaryControlPath(grid, rng.integers(0, 2, (grid.n_intervals, 1)))
        gu, gw = so.adjoint_gradient(system, grid, u, w, vt, rho)
        fd_u, fd_w = central_difference_gradient(system, grid, u.values, vals, vt, rho)
        assert relative_gradient_error(gw, fd_w) <= 1e-5
        assert relative_gradient_error(gu, fd_u) <= 1e-5

    def test_translines_matches_central_differences(self, translines_coarse):
        system, grid, _ = translines_coarse
        rng = np.random.default_rng(33)
        n = grid.n_intervals
        u_vals = rng.uniform(0.0, 2.0, (n, system.control_dim))
        w_vals = rng.random((n, system.modes.n_modes))
        w_vals /= w_vals.sum(axis=1, keepdims=True)
        u = so.ContinuousControlPath(grid, u_vals, system.control_lower, system.control_upper)
        w = so.RelaxedControlPath(grid, w_vals)
        vt = so.BinaryControlPath(grid, rng.integers(0, 2, (n, 2)))
        gu, gw = so.adjoint_gradient(system, grid, u, w, vt, 0.3)
        fd_u, fd_w = central_difference_gradient(system, grid, u_vals, w_vals, vt, 0.3)
        assert relative_gradient_error(gu, fd_u) <= 1e-5
        assert relative_gradient_error(gw, fd_w) <= 1e-5


def relative_error(got, want):
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


class TestSystemContract:
    """The hand-written stacked hooks agree with the per-mode callables."""

    @pytest.fixture(params=["fuller_50", "translines_coarse"])
    def case(self, request):
        system, grid, _ = request.getfixturevalue(request.param)
        per_mode = dataclasses.replace(
            system, rhs_stack=None, combined_jac_state=None,
            combined_jac_control=None,
        )
        rng = np.random.default_rng(41)
        n = grid.n_intervals
        u = rng.uniform(system.control_lower, system.control_upper,
                        (n, system.control_dim))
        w = rng.random((n, system.modes.n_modes))
        w /= w.sum(axis=1, keepdims=True)
        onehot = np.eye(system.modes.n_modes)[rng.integers(0, w.shape[1], n)]
        return system, per_mode, grid, u, w, onehot

    def test_forward_states_bitwise_on_onehot_rows(self, case):
        system, per_mode, grid, u, _, onehot = case
        assert np.array_equal(
            _integrate_values(system, grid, u, onehot),
            _integrate_values(per_mode, grid, u, onehot),
        )

    def test_forward_states_on_fractional_rows(self, case):
        system, per_mode, grid, u, w, _ = case
        assert relative_error(
            _integrate_values(per_mode, grid, u, w),
            _integrate_values(system, grid, u, w),
        ) <= 1e-13

    def test_value_and_gradients(self, case):
        system, per_mode, grid, u, w, _ = case
        pen = np.random.default_rng(5).random(w.shape)
        value, gu, gw = _adjoint_values(system, grid, u, w, pen)
        value_pm, gu_pm, gw_pm = _adjoint_values(per_mode, grid, u, w, pen)
        assert abs(value_pm - value) <= 1e-12 * abs(value)
        assert relative_error(gw_pm, gw) <= 1e-12
        if gu.size:
            assert relative_error(gu_pm, gu) <= 1e-12


class TestDerivativeValidation:
    def test_benchmark_jacobians_consistent(self, fuller_50, translines_coarse):
        rng = np.random.default_rng(17)
        assert so.validate_derivatives(fuller_50[0], rng, n_points=5) <= 1e-5
        assert so.validate_derivatives(translines_coarse[0], rng, n_points=3) <= 1e-5

    def test_detects_wrong_jacobian(self):
        modes = so.enumerate_modes(1)
        system = so.SwitchedSystem(
            state_dim=1, control_dim=0, modes=modes,
            rhs=lambda t, y, u, r: np.array([y[0] ** 2]),
            rhs_jac_state=lambda t, y, u, r: np.array([[y[0]]]),  # wrong by 2x
            rhs_jac_control=lambda t, y, u, r: np.zeros((1, 0)),
            terminal_cost=lambda y: 0.0,
            terminal_cost_gradient=lambda y: np.zeros(1),
            initial_state=np.zeros(1),
            control_lower=np.zeros(0), control_upper=np.zeros(0),
        )
        with pytest.raises(AssertionError):
            so.validate_derivatives(system, np.random.default_rng(0), n_points=3)
