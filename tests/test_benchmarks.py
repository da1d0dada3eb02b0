from fractions import Fraction

import numpy as np
import pytest

import switchopt as so
from switchopt.errors import ConfigurationError


def simulate_constant_mode(system, grid, mode_bits):
    w = so.binary_to_onehot(
        so.BinaryControlPath.constant(grid, mode_bits), system.modes
    )
    u = so.ContinuousControlPath.midpoint(
        grid, system.control_lower, system.control_upper
    )
    return so.objective(system, so.integrate(system, grid, u, w))


class TestFuller:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            so.FullerConfig(tau_min=0.0)
        with pytest.raises(ConfigurationError):
            so.FullerConfig(tau_min=0.7)

    def test_shape_of_build(self):
        system, grid, spec = so.build_fuller(so.FullerConfig(0.05, 200))
        assert system.modes.n_switches == 1
        assert system.modes.n_modes == 2
        assert system.control_dim == 0
        assert grid.n_intervals == 200
        assert spec.min_dwell == (10,)

    def test_switch_off_closed_form(self):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 200))
        expected = float(
            Fraction(1, 10000) + Fraction(1, 300) + Fraction(1, 20)
            + Fraction(1, 4) + 1
        )
        assert simulate_constant_mode(system, grid, [0]) == pytest.approx(
            expected, abs=1e-8
        )

    def test_switch_on_closed_form(self):
        # Downward slope: position 1/100 - t^2/2, velocity -t; the running
        # cost integral differs from the upward case in the cross term.
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 200))
        expected = float(
            Fraction(1, 10000) - Fraction(1, 300) + Fraction(1, 20)
            + Fraction(1, 4) + 1
        )
        assert simulate_constant_mode(system, grid, [1]) == pytest.approx(
            expected, abs=1e-8
        )

    def test_dwell_count_examples(self):
        _, grid, spec = so.build_fuller(so.FullerConfig(0.05, 200))
        assert spec.min_dwell[0] == 10
        _, _, spec2 = so.build_fuller(so.FullerConfig(0.02, 100))
        assert spec2.min_dwell[0] == 2

    def test_gradient_check(self, fuller_50):
        rng = np.random.default_rng(99)
        assert so.validate_derivatives(fuller_50[0], rng, n_points=10) <= 1e-5

    def test_deterministic_build(self):
        a = so.build_fuller(so.FullerConfig(0.05, 100))
        b = so.build_fuller(so.FullerConfig(0.05, 100))
        y = np.array([0.3, -0.2, 0.1])
        u = np.zeros(0)
        for r in ([0], [1]):
            va = a[0].rhs(0.1, y, u, np.array(r))
            vb = b[0].rhs(0.1, y, u, np.array(r))
            assert np.array_equal(va, vb)


def single_line_config(**overrides):
    kwargs = dict(
        nodes=("src", "dst"),
        lines=(so.TransLine("src", "dst", 1.0),),
        switch_groups=((),),
        producers=(("src", 0.0, 2.0),),
        consumers=(("dst", ((0.0, 0.5), (8.0, 0.5))),),
        damping=((0.0, 0.0), (0.0, 0.0)),
        volumes_per_line=4,
        n_time_steps=32,
        t_end=8.0,
        tau_min=0.25,
    )
    kwargs.update(overrides)
    return so.TranslinesConfig(**kwargs)


class TestTranslines:
    def test_subgrid_build_shape(self, translines_coarse):
        system, grid, spec = translines_coarse
        n_lines = 14
        assert system.state_dim == 2 * 2 * n_lines + 1
        assert system.control_dim == 2
        assert system.modes.n_modes == 4
        assert spec.min_dwell == (2, 2)
        assert grid.n_intervals == 52

    def test_paper_scale_discretization(self):
        cfg = so.translines_subgrid_config()
        system, grid, spec = so.build_translines(cfg)
        assert cfg.volumes_per_line == 4
        assert grid.n_intervals == 104
        assert spec.min_dwell == (4, 4)
        assert system.state_dim == 2 * 4 * 14 + 1

    def test_zero_demand_zero_objective(self):
        cfg = single_line_config(
            consumers=(("dst", ((0.0, 0.0), (8.0, 0.0))),),
        )
        system, grid, spec = so.build_translines(cfg)
        w = so.RelaxedControlPath.uniform(grid, system.modes.n_modes)
        u = so.ContinuousControlPath(
            grid, np.zeros((grid.n_intervals, 1)),
            system.control_lower, system.control_upper,
        )
        traj = so.integrate(system, grid, u, w)
        assert so.objective(system, traj) == 0.0

    def test_undamped_line_transports_injection(self):
        # Courant number one: the inflow reaches the far end after the
        # traversal time and is delivered exactly.
        cfg = single_line_config()
        system, grid, _ = so.build_translines(cfg)
        c = 0.75
        u = so.ContinuousControlPath(
            grid, np.full((grid.n_intervals, 1), c),
            system.control_lower, system.control_upper,
        )
        w = so.binary_to_onehot(
            so.BinaryControlPath.constant(grid, [0]), system.modes
        )
        traj = so.integrate(system, grid, u, w)
        # Forward volumes of the single line occupy the first 4 states.
        delivered = traj.states[:, 3]
        times = grid.nodes()
        settled = delivered[times >= 1.25]
        assert np.allclose(settled, c, atol=1e-12)

    def test_cfl_guard(self):
        with pytest.raises(ConfigurationError, match="Courant"):
            so.build_translines(single_line_config(n_time_steps=16))

    def test_upwind_l1_mass_non_increasing_on_ring(self):
        # Periodic closure: one line looping a single node back to itself.
        cfg = so.TranslinesConfig(
            nodes=("ring",),
            lines=(so.TransLine("ring", "ring", 1.0),),
            switch_groups=((),),
            producers=(),
            consumers=(),
            damping=((0.0, 0.0), (0.0, 0.0)),
            volumes_per_line=8,
            n_time_steps=64,
            t_end=8.0,
            tau_min=0.25,
        )
        system, grid, _ = so.build_translines(cfg)
        rng = np.random.default_rng(1)
        y = np.zeros(system.state_dim)
        y[: 2 * 8] = rng.normal(size=16)  # populate both wave families
        u = np.zeros(0)
        r = system.modes.values[1]
        masses = []
        for k in range(grid.n_intervals):
            masses.append(np.abs(y[:-1]).sum())
            y = y + grid.step * system.rhs(grid.node(k), y, u, r)
        masses.append(np.abs(y[:-1]).sum())
        diffs = np.diff(masses)
        assert (diffs <= 1e-12).all()

    def test_switch_groups_gate_delivery(self, translines_coarse):
        system, grid, _ = translines_coarse
        # All switched corridors off: the junction-fed consumers get nothing.
        u = so.ContinuousControlPath(
            grid, np.full((grid.n_intervals, 2), 1.0),
            system.control_lower, system.control_upper,
        )
        w_off = so.binary_to_onehot(
            so.BinaryControlPath.constant(grid, [0, 0]), system.modes
        )
        w_on = so.binary_to_onehot(
            so.BinaryControlPath.constant(grid, [1, 1]), system.modes
        )
        off = so.objective(system, so.integrate(system, grid, u, w_off))
        on = so.objective(system, so.integrate(system, grid, u, w_on))
        assert on != off  # switching changes the delivered power

    def test_deterministic_build(self):
        a_sys, grid, _ = so.build_translines(
            so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
        )
        b_sys, _, _ = so.build_translines(
            so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
        )
        rng = np.random.default_rng(0)
        y = rng.normal(size=a_sys.state_dim)
        u = rng.uniform(0, 2, 2)
        for r in a_sys.modes.values:
            assert np.array_equal(
                a_sys.rhs(3.3, y, u, r), b_sys.rhs(3.3, y, u, r)
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            single_line_config(damping=((0.1, 0.2), (0.3, 0.1)))  # asymmetric
        with pytest.raises(ConfigurationError):
            single_line_config(lines=(so.TransLine("src", "nowhere"),))
        with pytest.raises(ConfigurationError):
            single_line_config(switch_groups=((7,),))
        with pytest.raises(ConfigurationError):
            single_line_config(consumers=(("dst", ((0.0, 0.5), (2.0, 0.5))),))

    def test_dwell_time_is_capped_at_the_horizon(self):
        # The dwell lock's state count grows with tau_min / step, so a tau far
        # beyond the horizon would build a table no grid can use.
        for tau in (26.0 + 1e-9, 1e6):
            with pytest.raises(ConfigurationError, match="tau_min"):
                so.translines_subgrid_config(
                    volumes_per_line=2, n_time_steps=52, tau_min=tau
                )
        config = so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52, tau_min=26.0)
        _, _, spec = so.build_translines(config)
        assert spec.min_dwell[0] == 52

    def test_modewise_representation_option(self):
        cfg = so.translines_subgrid_config(
            volumes_per_line=2, n_time_steps=52, representation=so.MODEWISE
        )
        _, _, spec = so.build_translines(cfg)
        assert spec.representation == so.MODEWISE
        assert spec.n_components == 1


@pytest.mark.parametrize("build", [
    pytest.param(lambda: so.FullerConfig(n_intervals=0), id="fuller-no-intervals"),
    pytest.param(lambda: single_line_config(volumes_per_line=0), id="no-volumes"),
    pytest.param(lambda: single_line_config(representation="x"), id="representation"),
    pytest.param(lambda: single_line_config(producers=(("nowhere", 0.0, 1.0),)),
                 id="unknown-producer-node"),
    pytest.param(lambda: single_line_config(consumers=(("nowhere", ((0.0, 0.5), (8.0, 0.5))),)),
                 id="unknown-consumer-node"),
    pytest.param(lambda: single_line_config(consumers=(("dst", ((8.0, 0.5), (0.0, 0.5))),)),
                 id="unsorted-breakpoints"),
    pytest.param(lambda: so.build_translines(single_line_config(switch_groups=())),
                 id="no-switch-group"),
])
def test_rejects_bad_input(build):
    with pytest.raises(ConfigurationError):
        build()
