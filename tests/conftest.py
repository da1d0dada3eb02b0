import dataclasses

import numpy as np
import pytest

import switchopt as so
from switchopt import relaxed, simulate


@pytest.fixture(scope="session")
def fuller_100():
    return so.build_fuller(so.FullerConfig(tau_min=0.05, n_intervals=100))


@pytest.fixture(scope="session")
def fuller_50():
    return so.build_fuller(so.FullerConfig(tau_min=0.05, n_intervals=50))


@pytest.fixture(scope="session")
def translines_coarse():
    cfg = so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
    return so.build_translines(cfg)


@pytest.fixture(scope="session")
def fuller_100_poc_bound(fuller_100):
    """Tightly converged relaxation value; the expensive solve runs once."""
    system, grid, _ = fuller_100
    return so.poc_lower_bound(system, grid)


def make_zero_system(n_modes=2, state_dim=1, control_dim=0):
    """System with vanishing dynamics and zero cost, for trivial cases."""
    modes = so.enumerate_modes(1) if n_modes == 2 else so.enumerate_modes(2)

    def rhs(t, y, u, r):
        return np.zeros(state_dim)

    def jy(t, y, u, r):
        return np.zeros((state_dim, state_dim))

    def ju(t, y, u, r):
        return np.zeros((state_dim, control_dim))

    return so.SwitchedSystem(
        state_dim=state_dim,
        control_dim=control_dim,
        modes=modes,
        rhs=rhs,
        rhs_jac_state=jy,
        rhs_jac_control=ju,
        terminal_cost=lambda y: 0.0,
        terminal_cost_gradient=lambda y: np.zeros(state_dim),
        initial_state=np.zeros(state_dim),
        control_lower=np.zeros(control_dim),
        control_upper=np.ones(control_dim),
    )


def make_blowup_system(controlled=False):
    """Scalar y' = s * y^2 from y = 1 with cost -y on a finite-time blow-up.

    The slope factor s is the switch bit, or with ``controlled`` a control in
    [0, 1] under both modes.  s = 1 diverges before t = 1.5, so a long enough
    step toward lower cost takes a trial sweep to a non-finite state.
    """
    if controlled:
        def factor(u, r):
            return u[0]
    else:
        def factor(u, r):
            return float(r[0])

    def rhs_jac_control(t, y, u, r):
        return np.array([[y[0] ** 2]]) if controlled else np.zeros((1, 0))

    n_u = 1 if controlled else 0
    return so.SwitchedSystem(
        state_dim=1,
        control_dim=n_u,
        modes=so.enumerate_modes(1),
        rhs=lambda t, y, u, r: np.array([factor(u, r) * y[0] ** 2]),
        rhs_jac_state=lambda t, y, u, r: np.array([[2.0 * factor(u, r) * y[0]]]),
        rhs_jac_control=rhs_jac_control,
        terminal_cost=lambda y: -y[0],
        terminal_cost_gradient=lambda y: np.array([-1.0]),
        initial_state=np.ones(1),
        control_lower=np.zeros(n_u),
        control_upper=np.ones(n_u),
    )


def counted_system(system):
    """Copy of ``system`` whose stage-field and terminal callables count calls."""
    counts = dict.fromkeys(("rhs_stack", "terminal_cost", "terminal_cost_gradient"), 0)

    def counting(name):
        fn = getattr(system, name)

        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    return dataclasses.replace(system, **{name: counting(name) for name in counts}), counts


def record_sweep_points(monkeypatch):
    """Wrap every forward-sweep entry point; returns the list of asked
    (u bytes, w bytes) points, one per call, repeats included."""
    asked = []

    def recording(integrate_values):
        def call(system, grid, u_values, w_values, stages=None):
            asked.append((u_values.tobytes(), w_values.tobytes()))
            return integrate_values(system, grid, u_values, w_values, stages)

        return call

    for module in (simulate, relaxed):
        monkeypatch.setattr(module, "_integrate_values", recording(module._integrate_values))
    return asked
