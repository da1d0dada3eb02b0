import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import switchopt as so
from switchopt import simulate
from switchopt.errors import DimensionError, DivergenceError
from switchopt.simulate import (
    EULER, RK4, _RK_B, _adjoint_values, _integrate_values, _penalty_weights, _step,
    _sweep_memo,
)

from conftest import counted_system, make_blowup_system, make_zero_system

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

        # Reference: plain RK4 steps of the even mix, checked after each step.
        h = grid.step
        u = np.zeros(0)

        def field(t, y):
            return 0.5 * system.rhs(t, y, u, [0]) + 0.5 * system.rhs(t, y, u, [1])

        y = system.initial_state.copy()
        first = None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(grid.n_intervals):
                t = grid.node(k)
                s1 = field(t, y)
                s2 = field(t + h / 2, y + h / 2 * s1)
                s3 = field(t + h / 2, y + h / 2 * s2)
                s4 = field(t + h, y + h * s3)
                y = y + h / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                if not np.isfinite(y).all():
                    first = k
                    break
        assert first is not None and first > 0
        assert err.value.interval == first

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

    def test_equals_the_solver_value_bitwise(self, fuller_50):
        """The public value is the one the relaxed solver minimizes, to the
        last bit, at random multipliers, references and penalty weights."""
        system, grid, _ = fuller_50
        rng = np.random.default_rng(118)
        n = grid.n_intervals
        u = so.ContinuousControlPath.empty(grid)
        for _ in range(200):
            w = so.RelaxedControlPath(grid, rng.dirichlet(np.ones(2), size=n))
            vt = so.BinaryControlPath(grid, rng.integers(0, 2, (n, 1)))
            rho = 10.0 ** rng.uniform(-3.0, 6.0)
            pen = _penalty_weights(system, grid, vt, rho)
            value, _, _ = _adjoint_values(system, grid, u.values, w.values, pen)
            public = so.penalized_objective(system, grid, u, w, vt, rho)
            assert np.float64(public).tobytes() == np.float64(value).tobytes()


def central_difference_gradient(system, grid, u_values, w_values, vt, rho, step=1e-6):
    """Independent objective-gradient evaluation, one coordinate at a time."""
    pen = rho * grid.step * so.mode_deviation_costs(system.modes, vt)

    def value(u_arr, w_arr):
        states, _ = _integrate_values(system, grid, u_arr, w_arr)
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


#: Systems the sweeps are checked on against their references: Fuller (RK4),
#: two translines networks (Euler, controls) and the conftest systems, which
#: add RK4 with a control and Euler without one.
SWEEP_CASES = ["fuller_50", "translines_coarse", "translines_switched_ends", "blowup",
               "blowup_controlled", "zero", "zero_controlled_euler", "zero_euler"]


def sweep_case(request, name):
    """(system, grid) of a ``SWEEP_CASES`` entry."""
    if name.startswith(("fuller", "translines")):
        system, grid, _ = request.getfixturevalue(name)
        return system, grid
    if name.startswith("blowup"):
        # y' = s y^2 from 1 stays finite up to t = 1.
        system = make_blowup_system(controlled=name == "blowup_controlled")
        return system, so.TimeGrid(0.0, 0.5, 20)
    integrator = EULER if name.endswith("euler") else RK4
    system = make_zero_system(n_modes=4, state_dim=2, control_dim=int("controlled" in name))
    return dataclasses.replace(system, integrator=integrator), so.TimeGrid(0.0, 1.0, 12)


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

    @pytest.mark.parametrize("rows", ["onehot", "dirichlet"])
    @pytest.mark.parametrize("penalized", [False, True])
    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_matches_reference_contraction_loop(self, request, name, rows, penalized):
        system, grid = sweep_case(request, name)
        rng = np.random.default_rng(73)
        n, m = grid.n_intervals, system.modes.n_modes
        u = rng.uniform(system.control_lower, system.control_upper,
                        (n, system.control_dim))
        if rows == "onehot":
            w = np.eye(m)[rng.integers(0, m, n)]
        else:
            w = rng.dirichlet(np.full(m, 0.5), size=n)
        pen = rng.random(w.shape) if penalized else np.zeros_like(w)
        value, gu, gw = _adjoint_values(system, grid, u, w, pen)
        value_r, gu_r, gw_r = reference_adjoint_values(system, grid, u, w, pen)
        assert np.float64(value).tobytes() == np.float64(value_r).tobytes()
        assert gu.shape == gu_r.shape and gu.tobytes() == gu_r.tobytes()
        assert gw.shape == gw_r.shape and gw.tobytes() == gw_r.tobytes()

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


def reference_forward_sweep(system, grid, u_values, w_values):
    """Forward sweep that combines the mode fields with ``np.matmul`` and
    tests finiteness with ``np.isfinite(y).all()``.

    The form ``_forward_sweep``'s ``np.dot`` combine replaces, kept as its
    bitwise reference; returns the same (states, stages) record.
    """
    n = grid.n_intervals
    h = grid.step
    states = np.empty((n + 1, system.state_dim))
    states[0] = system.initial_state
    stages = []
    y = system.initial_state.copy()
    for k in range(n):
        t = grid.t_start + k * h
        uk, wk = u_values[k], w_values[k]
        f1 = system.rhs_stack(t, y, uk)
        if system.integrator == EULER:
            y_next, stage = y + h * np.matmul(wk, f1), ((y,), (f1,))
        else:
            half_h = 0.5 * h
            t_mid = t + half_h
            s1 = np.matmul(wk, f1)
            y2 = y + half_h * s1
            f2 = system.rhs_stack(t_mid, y2, uk)
            s2 = np.matmul(wk, f2)
            y3 = y + half_h * s2
            f3 = system.rhs_stack(t_mid, y3, uk)
            s3 = np.matmul(wk, f3)
            y4 = y + h * s3
            f4 = system.rhs_stack(t + h, y4, uk)
            s4 = np.matmul(wk, f4)
            y_next = y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            stage = ((y, y2, y3, y4), (f1, f2, f3, f4))
        y = y_next
        if not np.isfinite(y).all():
            raise DivergenceError(f"non-finite state after interval {k}", interval=k)
        stages.append(stage)
        states[k + 1] = y
    return states, tuple(stages)


def reference_adjoint_values(system, grid, u_values, w_values, penalty_grad_w):
    """Reverse sweep with ``J.T @ sb`` vector-Jacobian products and the
    gradient contractions inside the interval loop, over its own
    ``reference_forward_sweep``.

    The per-interval form the ``np.dot`` products and stacked contractions
    of ``_adjoint_values`` replace, kept as their bitwise reference.
    """
    n = grid.n_intervals
    h = grid.step
    states, stages = reference_forward_sweep(system, grid, u_values, w_values)
    value = float(system.terminal_cost(states[-1]))
    grad_u = np.zeros_like(u_values)
    grad_w = np.zeros_like(w_values)
    if penalty_grad_w is not None:
        value += float((w_values * penalty_grad_w).sum())
        grad_w += penalty_grad_w

    lam = np.asarray(system.terminal_cost_gradient(states[-1]), dtype=np.float64).copy()
    has_u = u_values.shape[1] > 0
    jac_y = system.combined_jac_state
    jac_u = system.combined_jac_control
    half_h = 0.5 * h
    hb1, hb2, hb3, hb4 = (h * b for b in _RK_B)
    for k in range(n - 1, -1, -1):
        t = grid.t_start + k * h
        uk = u_values[k]
        wk = w_values[k]
        if system.integrator == RK4:
            (y1, y2, y3, y4), (f1, f2, f3, f4) = stages[k]
            t_mid, t_end = t + half_h, t + h
            sb4 = hb4 * lam
            yb4 = jac_y(t_end, y4, uk, wk).T @ sb4
            sb3 = hb3 * lam + h * yb4
            yb3 = jac_y(t_mid, y3, uk, wk).T @ sb3
            sb2 = hb2 * lam + half_h * yb3
            yb2 = jac_y(t_mid, y2, uk, wk).T @ sb2
            sb1 = hb1 * lam + half_h * yb2
            yb1 = jac_y(t, y1, uk, wk).T @ sb1
            grad_w[k] += f1 @ sb1 + f2 @ sb2 + f3 @ sb3 + f4 @ sb4
            if has_u:
                grad_u[k] += (
                    jac_u(t, y1, uk, wk).T @ sb1
                    + jac_u(t_mid, y2, uk, wk).T @ sb2
                    + jac_u(t_mid, y3, uk, wk).T @ sb3
                    + jac_u(t_end, y4, uk, wk).T @ sb4
                )
            lam = lam + yb1 + yb2 + yb3 + yb4
        else:
            (y1,), (f1,) = stages[k]
            grad_w[k] += h * (f1 @ lam)
            if has_u:
                grad_u[k] += h * (jac_u(t, y1, uk, wk).T @ lam)
            lam = lam + h * (jac_y(t, y1, uk, wk).T @ lam)
    return value, grad_u, grad_w


def relative_error(got, want):
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


@pytest.fixture(scope="module")
def translines_switched_ends():
    """Small network whose producer and consumer both sit on switched lines.

    In the shipped subgrid only the wave matrix depends on the mode; here
    the control matrix and the delivery rows do as well.
    """
    config = so.TranslinesConfig(
        nodes=("gen", "hub", "cons"),
        lines=(so.TransLine("gen", "hub"), so.TransLine("hub", "cons"),
               so.TransLine("gen", "cons")),
        switch_groups=((0,), (1,)),
        producers=(("gen", 0.0, 1.0),),
        consumers=(("cons", ((0.0, 0.2), (2.0, 0.6), (4.0, 0.3))),),
        volumes_per_line=2, n_time_steps=16, t_end=4.0, tau_min=0.5,
    )
    return so.build_translines(config)


def _record_bytes(record):
    """The bytes of every array of a (states, stages) sweep record, in order."""
    states, stages = record
    return [states.tobytes()] + [
        a.tobytes() for stage_states, fields in stages for a in (*stage_states, *fields)
    ]


class TestProductForms:
    """``_forward_sweep`` forms its products with ``np.dot``; on the
    contiguous hook outputs it is bitwise the ``np.matmul`` form of the
    reference sweep (``test_matches_reference_contraction_loop`` checks the
    adjoint's ``np.dot(sb, J)`` against ``J.T @ sb`` the same way)."""

    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_forward_sweep_bitwise(self, request, name):
        system, grid = sweep_case(request, name)
        rng = np.random.default_rng(29)
        u = rng.uniform(system.control_lower, system.control_upper,
                        (grid.n_intervals, system.control_dim))
        w = rng.dirichlet(np.full(system.modes.n_modes, 0.5), size=grid.n_intervals)
        got = simulate._forward_sweep(system, grid, u, w)
        assert _record_bytes(got) == _record_bytes(reference_forward_sweep(system, grid, u, w))

    def test_divergence_at_the_same_interval(self):
        # This mix gives y' = 0.75 y^2 from 1, which blows up at t = 4/3.
        system, grid = make_blowup_system(), so.TimeGrid(0.0, 2.0, 20)
        u, w = np.zeros((20, 0)), np.tile([0.25, 0.75], (20, 1))
        errors = []
        for sweep in (simulate._forward_sweep, reference_forward_sweep):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DivergenceError) as err:
                sweep(system, grid, u, w)
            errors.append(err.value.interval)
        assert errors[0] == errors[1] > 0


class TestSystemContract:
    """The hand-written stacked hooks agree with the per-mode callables."""

    @pytest.fixture(params=["fuller_50", "translines_coarse", "translines_switched_ends"])
    def case(self, request):
        system, grid, _ = request.getfixturevalue(request.param)
        per_mode = dataclasses.replace(
            system, rhs_stack=None, combined_jac_state=None,
            combined_jac_control=None, rhs_batch=None,
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
            _integrate_values(system, grid, u, onehot)[0],
            _integrate_values(per_mode, grid, u, onehot)[0],
        )

    def test_forward_states_on_fractional_rows(self, case):
        system, per_mode, grid, u, w, _ = case
        assert relative_error(
            _integrate_values(per_mode, grid, u, w)[0],
            _integrate_values(system, grid, u, w)[0],
        ) <= 1e-13

    @pytest.mark.parametrize("hook", ["combined_jac_state", "combined_jac_control"])
    def test_combined_jacobians(self, case, hook):
        system, per_mode, grid, u, w, onehot = case
        states, _ = _integrate_values(system, grid, u, w)
        for k in range(grid.n_intervals):
            t, y = grid.node(k), states[k]
            for rows, exact in ((onehot, True), (w, False)):
                got = getattr(system, hook)(t, y, u[k], rows[k])
                want = getattr(per_mode, hook)(t, y, u[k], rows[k])
                assert got.shape == want.shape
                if exact:
                    assert np.array_equal(got, want)
                elif want.size:
                    assert relative_error(got, want) <= 1e-13

    def test_rhs_batch_bitwise(self, case):
        system, per_mode, grid, u, _, _ = case
        ys = np.random.default_rng(43).standard_normal((7, system.state_dim))
        derived = dataclasses.replace(system, rhs_batch=None)
        want = np.array([system.rhs_stack(grid.node(3), y, uk) for y, uk in zip(ys, u)])
        assert want.shape == (7, system.modes.n_modes, system.state_dim)
        for hooked in (system, derived, per_mode):
            got = hooked.rhs_batch(grid.node(3), ys, u[:7])
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_batched_step_rows_match_single_steps(self, case):
        system, _, grid, u, _, onehot = case
        ys = np.random.default_rng(44).standard_normal((7, system.state_dim))
        t, h = grid.node(3), grid.step
        got = _step(system, t, ys, u[:7], onehot[:7], h)[0]
        for b in range(7):
            assert np.array_equal(got[b], _step(system, t, ys[b], u[b], onehot[b], h)[0])

    def test_value_and_gradients(self, case):
        system, per_mode, grid, u, w, _ = case
        pen = np.random.default_rng(5).random(w.shape)
        value, gu, gw = _adjoint_values(system, grid, u, w, pen)
        value_pm, gu_pm, gw_pm = _adjoint_values(per_mode, grid, u, w, pen)
        assert abs(value_pm - value) <= 1e-12 * abs(value)
        assert relative_error(gw_pm, gw) <= 1e-12
        if gu.size:
            assert relative_error(gu_pm, gu) <= 1e-12


class TestRecordedSweep:
    """Inside a sweep memo scope, the adjoint right after a forward sweep at
    the same arrays replays that sweep and equals the unscoped adjoint."""

    @pytest.mark.parametrize("name, integrator", [
        ("fuller_50", RK4), ("translines_coarse", EULER),
    ])
    def test_bitwise_equal_to_own_sweep(self, request, monkeypatch, name, integrator):
        system, grid, _ = request.getfixturevalue(name)
        assert system.integrator == integrator
        rng = np.random.default_rng(17)
        n = grid.n_intervals
        u = rng.uniform(system.control_lower, system.control_upper,
                        (n, system.control_dim))
        w = rng.random((n, system.modes.n_modes))
        w /= w.sum(axis=1, keepdims=True)
        pen = rng.random(w.shape)
        value, gu, gw = _adjoint_values(system, grid, u, w, pen)
        sweeps = []
        sweep = simulate._forward_sweep
        monkeypatch.setattr(simulate, "_forward_sweep",
                            lambda *args: sweeps.append(args) or sweep(*args))
        with _sweep_memo():
            _integrate_values(system, grid, u, w)
            assert len(sweeps) == 1
            value_r, gu_r, gw_r = _adjoint_values(system, grid, u, w, pen)
        assert len(sweeps) == 1
        assert value_r == value
        assert gu_r.tobytes() == gu.tobytes()
        assert gw_r.tobytes() == gw.tobytes()


class TestSweepMemo:
    """Inside a ``_sweep_memo`` scope a repeated forward sweep is replayed."""

    @staticmethod
    def onehot(grid):
        return np.eye(2)[np.arange(grid.n_intervals) % 2]

    def test_outside_a_scope_every_call_sweeps(self, fuller_50):
        system, grid, _ = fuller_50
        system, counts = counted_system(system)
        u = so.ContinuousControlPath.empty(grid)
        w = so.RelaxedControlPath(grid, self.onehot(grid))
        first = so.integrate(system, grid, u, w)
        second = so.integrate(system, grid, u, w)
        assert counts["rhs_stack"] == 2 * 4 * grid.n_intervals
        assert first.states.tobytes() == second.states.tobytes()
        assert simulate._memo.get() is None

    def test_repeat_replays_the_recorded_sweep(self, fuller_50):
        system, grid, _ = fuller_50
        system, counts = counted_system(system)
        u, w = np.zeros((grid.n_intervals, 0)), self.onehot(grid)
        ref, ref_stages = _integrate_values(system, grid, u, w)
        with _sweep_memo():
            first, first_stages = _integrate_values(system, grid, u, w)
            assert not first.flags.writeable  # recorded arrays are shared
            with _sweep_memo():  # a nested scope shares the memo
                assert simulate._memo.get() is not None
                traj = so.integrate(system, grid, so.ContinuousControlPath.empty(grid),
                                    so.RelaxedControlPath(grid, w.copy()))
            states, stages = _integrate_values(system, grid, u, w)
            assert len(simulate._memo.get()) == 1
        # A replay is the recorded pair itself, and its stages are a tuple,
        # so no caller can append to the memo's record.
        assert states is first and stages is first_stages
        assert isinstance(stages, tuple)
        assert simulate._memo.get() is None
        assert counts["rhs_stack"] == 2 * 4 * grid.n_intervals  # ref, then first
        for replay in (first, traj.states, states):
            assert replay.tobytes() == ref.tobytes()
        assert len(stages) == len(ref_stages)
        for (ys, fs), (ys_ref, fs_ref) in zip(stages, ref_stages):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(ys + fs, ys_ref + fs_ref))

    def test_key_is_exact(self, fuller_50):
        system, grid, _ = fuller_50
        system, counts = counted_system(system)
        u, w = np.zeros((grid.n_intervals, 0)), self.onehot(grid)
        per_sweep = 4 * grid.n_intervals
        with _sweep_memo():
            _integrate_values(system, grid, u, w)
            # Equal values, other bytes: -0.0 is not 0.0.
            _integrate_values(system, grid, u, np.where(w == 0.0, -0.0, w))
            assert counts["rhs_stack"] == 2 * per_sweep
            # An equal grid or an equal system is another object.
            _integrate_values(system, so.TimeGrid(0.0, 1.0, grid.n_intervals), u, w)
            _integrate_values(dataclasses.replace(system), grid, u, w)
            assert counts["rhs_stack"] == 4 * per_sweep
            # Another dtype of the same (empty) bytes.
            _integrate_values(system, grid, u.astype(np.float32), w)
            assert counts["rhs_stack"] == 5 * per_sweep
            # Only the most recent sweeps are kept: the first has gone.
            assert len(simulate._memo.get()) == simulate._MEMO_ENTRIES
            _integrate_values(system, grid, u, w)
            assert counts["rhs_stack"] == 6 * per_sweep

    def test_diverging_sweep_is_not_recorded(self):
        system = make_blowup_system()
        grid = so.TimeGrid(0.0, 1.5, 15)
        u, w = np.zeros((15, 0)), np.tile([0.0, 1.0], (15, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with _sweep_memo():
                for _ in range(2):
                    with pytest.raises(DivergenceError):
                        _integrate_values(system, grid, u, w)
                assert simulate._memo.get() == []
            with pytest.raises(DivergenceError), _sweep_memo():
                _integrate_values(system, grid, u, w)
        assert simulate._memo.get() is None


class TestSystemValidation:
    @pytest.mark.parametrize("field, value", [
        ("initial_state", [np.nan]),
        ("initial_state", [np.inf]),
        ("control_lower", [np.nan]),
        ("control_upper", [np.nan]),
        ("control_lower", [2.0]),
    ], ids=["state-nan", "state-inf", "lower-nan", "upper-nan", "lower-above-upper"])
    def test_rejects_bad_initial_state_or_bounds(self, field, value):
        system = make_zero_system(state_dim=1, control_dim=1)
        with pytest.raises(DimensionError):
            dataclasses.replace(system, **{field: np.array(value)})

    def test_accepts_infinite_bounds(self):
        system = make_zero_system(state_dim=1, control_dim=1)
        free = dataclasses.replace(system, control_lower=np.array([-np.inf]),
                                   control_upper=np.array([np.inf]))
        assert free.control_lower[0] == -np.inf and free.control_upper[0] == np.inf


def two_loop_jacobian_error(system, rng, n_points):
    """Worst relative Jacobian error, written as separate state and control
    difference loops: the reference for ``validate_derivatives``."""
    step = 1e-6
    worst = 0.0
    for _ in range(n_points):
        t = float(rng.uniform(0.0, 1.0))
        y = rng.standard_normal(system.state_dim)
        u = rng.standard_normal(system.control_dim)
        mode = system.modes.values[rng.integers(system.modes.n_modes)]
        jy = np.asarray(system.rhs_jac_state(t, y, u, mode), dtype=np.float64)
        ju = np.asarray(system.rhs_jac_control(t, y, u, mode), dtype=np.float64)
        fd_y = np.zeros_like(jy)
        for j in range(system.state_dim):
            dy = np.zeros(system.state_dim)
            dy[j] = step
            fd_y[:, j] = (
                system.rhs(t, y + dy, u, mode) - system.rhs(t, y - dy, u, mode)
            ) / (2 * step)
        fd_u = np.zeros_like(ju)
        for j in range(system.control_dim):
            du = np.zeros(system.control_dim)
            du[j] = step
            fd_u[:, j] = (
                system.rhs(t, y, u + du, mode) - system.rhs(t, y, u - du, mode)
            ) / (2 * step)
        denom = max(1.0, float(np.abs(jy).max()) if jy.size else 1.0,
                    float(np.abs(ju).max()) if ju.size else 1.0)
        err = 0.0
        if jy.size:
            err = max(err, float(np.abs(jy - fd_y).max()) / denom)
        if ju.size:
            err = max(err, float(np.abs(ju - fd_u).max()) / denom)
        worst = max(worst, err)
    return worst


class TestDerivativeValidation:
    def test_benchmark_jacobians_consistent(self, fuller_50, translines_coarse):
        rng = np.random.default_rng(17)
        assert so.validate_derivatives(fuller_50[0], rng, n_points=5) <= 1e-5
        assert so.validate_derivatives(translines_coarse[0], rng, n_points=3) <= 1e-5

    def test_error_is_the_two_loop_reference(self, fuller_50, translines_coarse):
        for system, n_points in ((fuller_50[0], 5), (translines_coarse[0], 3)):
            got = so.validate_derivatives(system, np.random.default_rng(17), n_points)
            assert got == two_loop_jacobian_error(system, np.random.default_rng(17), n_points)

    def test_detects_wrong_control_jacobian(self):
        modes = so.enumerate_modes(1)
        system = so.SwitchedSystem(
            state_dim=1, control_dim=1, modes=modes,
            rhs=lambda t, y, u, r: np.array([y[0] * u[0] ** 2]),
            rhs_jac_state=lambda t, y, u, r: np.array([[u[0] ** 2]]),
            rhs_jac_control=lambda t, y, u, r: np.array([[y[0] * u[0]]]),  # wrong by 2x
            terminal_cost=lambda y: 0.0,
            terminal_cost_gradient=lambda y: np.zeros(1),
            initial_state=np.zeros(1),
            control_lower=np.zeros(1), control_upper=np.ones(1),
        )
        with pytest.raises(AssertionError):
            so.validate_derivatives(system, np.random.default_rng(0), n_points=3)

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


_GRID4 = so.TimeGrid(0.0, 1.0, 4)
_EMPTY_U4 = so.ContinuousControlPath.empty(_GRID4)
_UNIFORM_W4 = so.RelaxedControlPath.uniform(_GRID4, 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: dataclasses.replace(make_scalar_system(), initial_state=np.zeros(2)),
                 id="initial-state-shape"),
    pytest.param(lambda: dataclasses.replace(make_scalar_system(), control_lower=np.zeros(1)),
                 id="control-bound-length"),
    pytest.param(lambda: dataclasses.replace(make_scalar_system(), integrator="midpoint"),
                 id="unknown-integrator"),
    pytest.param(lambda: so.Trajectory(_GRID4, np.zeros((4, 1))), id="trajectory-rows"),
    pytest.param(lambda: so.integrate(make_scalar_system(), _GRID4,
                                      so.ContinuousControlPath.empty(so.TimeGrid(0.0, 1.0, 5)),
                                      _UNIFORM_W4),
                 id="control-grid"),
    pytest.param(lambda: so.integrate(make_scalar_system(), _GRID4,
                                      so.ContinuousControlPath.midpoint(_GRID4, [0.0], [1.0]),
                                      _UNIFORM_W4),
                 id="control-channels"),
    pytest.param(lambda: so.integrate(make_scalar_system(), _GRID4, _EMPTY_U4,
                                      so.RelaxedControlPath.uniform(_GRID4, 4)),
                 id="multiplier-modes"),
    pytest.param(lambda: so.penalized_objective(
        make_scalar_system(), _GRID4, _EMPTY_U4, _UNIFORM_W4,
        so.BinaryControlPath.constant(so.TimeGrid(0.0, 1.0, 5), [0]), 1.0),
                 id="penalty-reference-grid"),
])
def test_rejects_bad_input(build):
    with pytest.raises(DimensionError):
        build()
