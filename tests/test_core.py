import numpy as np
import pytest

import switchopt as so
from switchopt.errors import (
    CapacityError,
    DimensionError,
    RepresentationError,
)


def grid(n, t_end=None):
    return so.TimeGrid(0.0, float(n) if t_end is None else t_end, n)


class TestTimeGrid:
    def test_step_and_nodes(self):
        g = so.TimeGrid(0.0, 1.5, 3)
        assert g.step == 0.5
        np.testing.assert_allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5])
        assert np.all(np.diff(g.nodes()) > 0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(DimensionError):
            so.TimeGrid(1.0, 1.0, 4)
        with pytest.raises(DimensionError):
            so.TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("t_start, t_end", [
        (0.0, float("inf")), (-float("inf"), 0.0), (-float("inf"), float("inf")),
        (float("nan"), 1.0), (0.0, float("nan")),
    ])
    def test_rejects_non_finite_ends(self, t_start, t_end):
        with pytest.raises(DimensionError):
            so.TimeGrid(t_start, t_end, 10)

    @pytest.mark.parametrize("n", [16.5, 2.0, "4", None, True])
    def test_rejects_non_integral_interval_count(self, n):
        with pytest.raises(DimensionError):
            so.TimeGrid(0.0, 1.0, n)

    def test_accepts_numpy_integer_interval_count(self):
        assert so.TimeGrid(0.0, 1.0, np.int64(4)).step == 0.25

    def test_dwell_intervals_handles_float_noise(self):
        g = so.TimeGrid(0.0, 1.0, 200)
        assert so.dwell_intervals(0.05, g) == 10
        assert so.dwell_intervals(0.049, g) == 10
        assert so.dwell_intervals(0.051, g) == 11

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_dwell_intervals_rejects_non_positive_or_non_finite(self, tau):
        with pytest.raises(DimensionError):
            so.dwell_intervals(tau, so.TimeGrid(0.0, 1.0, 10))


class TestEnumerateModes:
    def test_single_switch(self):
        assert so.enumerate_modes(1).values.tolist() == [[0], [1]]

    def test_two_switches_lexicographic(self):
        assert so.enumerate_modes(2).values.tolist() == [
            [0, 0], [0, 1], [1, 0], [1, 1],
        ]

    def test_three_switches_cardinality(self):
        table = so.enumerate_modes(3)
        assert table.n_modes == 8
        assert table.values[0].tolist() == [0, 0, 0]
        assert table.values[-1].tolist() == [1, 1, 1]

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            so.enumerate_modes(17)
        with pytest.raises(CapacityError):
            so.enumerate_modes(0)

    def test_index_of_roundtrip(self):
        table = so.enumerate_modes(4)
        for i in range(16):
            assert table.index_of(table.values[i]) == i
        with pytest.raises(RepresentationError):
            table.index_of((0, 0, 2, 0))


class TestPaths:
    def test_binary_path_requires_binary_entries(self):
        g = grid(2)
        with pytest.raises(RepresentationError):
            so.BinaryControlPath(g, [[0], [2]])

    @pytest.mark.parametrize("bad", [0.9, 1.7, 0.5, -0.2, np.nan])
    def test_non_binary_entries_are_not_truncated(self, bad):
        with pytest.raises(RepresentationError):
            so.BinaryControlPath(grid(2), [[0.0], [bad]])
        with pytest.raises(RepresentationError):
            so.BinaryControlPath.constant(grid(2), [bad])
        with pytest.raises(RepresentationError):
            so.ModeTable([[0.0], [bad]])
        with pytest.raises(RepresentationError):
            so.enumerate_modes(1).index_of([bad])

    @pytest.mark.parametrize("values", [[[0.0], [1.0]], [[False], [True]]], ids=["float", "bool"])
    def test_exact_binary_floats_and_bools_accepted(self, values):
        for arr in (so.BinaryControlPath(grid(2), values).values, so.ModeTable(values).values):
            assert arr.dtype == np.int64 and arr.tolist() == [[0], [1]]
        assert [so.enumerate_modes(1).index_of(row) for row in values] == [0, 1]

    def test_binary_path_shape_checked(self):
        with pytest.raises(DimensionError):
            so.BinaryControlPath(grid(3), [[0], [1]])

    def test_relaxed_rows_must_be_stochastic(self):
        g = grid(2)
        so.RelaxedControlPath(g, [[0.25, 0.75], [1.0, 0.0]])
        with pytest.raises(RepresentationError):
            so.RelaxedControlPath(g, [[0.3, 0.6], [1.0, 0.0]])
        with pytest.raises(RepresentationError):
            so.RelaxedControlPath(g, [[1.2, -0.2], [1.0, 0.0]])

    def test_continuous_bounds_enforced(self):
        g = grid(2)
        with pytest.raises(RepresentationError):
            so.ContinuousControlPath(g, [[2.0], [0.0]], [0.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_relaxed_rejects_non_finite(self, bad):
        with pytest.raises(RepresentationError, match="finite"):
            so.RelaxedControlPath(grid(2), [[bad, 1.0], [1.0, 0.0]])

    def test_relaxed_needs_a_mode_column(self):
        # Every value check is vacuous on an empty array.
        with pytest.raises(DimensionError, match="mode column"):
            so.RelaxedControlPath(grid(3), np.zeros((3, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_continuous_rejects_non_finite(self, bad):
        with pytest.raises(RepresentationError, match="finite"):
            so.ContinuousControlPath(grid(2), [[bad], [0.0]], [-np.inf], [np.inf])

    def test_paths_are_immutable(self):
        g = grid(2)
        v = so.BinaryControlPath(g, [[0], [1]])
        with pytest.raises(ValueError):
            v.values[0, 0] = 1


class TestPenaltyTerm:
    def test_identical_paths_give_zero(self):
        g = grid(4)
        rng = np.random.default_rng(0)
        v = so.BinaryControlPath(g, rng.integers(0, 2, (4, 3)))
        assert so.penalty_term(v, v, g) == 0.0

    def test_hand_value_single_component(self):
        g = so.TimeGrid(0.0, 1.5, 3)  # step 0.5
        v = so.BinaryControlPath(g, [[1], [0], [1]])
        vt = so.BinaryControlPath(g, [[1], [1], [1]])
        assert so.penalty_term(v, vt, g) == 0.5

    def test_hand_value_two_components(self):
        g = so.TimeGrid(0.0, 1.0, 4)  # step 0.25
        v = so.BinaryControlPath(g, [[0, 0], [1, 1], [0, 0], [1, 1]])
        vt = so.BinaryControlPath(g, [[0, 1], [1, 0], [0, 0], [0, 1]])
        # three mismatching entries
        assert so.penalty_term(v, vt, g) == pytest.approx(0.75)

    def test_symmetry_and_triangle_inequality(self):
        g = grid(6)
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c = (
                so.BinaryControlPath(g, rng.integers(0, 2, (6, 2)))
                for _ in range(3)
            )
            ab = so.penalty_term(a, b, g)
            assert ab == so.penalty_term(b, a, g)
            assert ab >= 0.0
            assert (ab == 0.0) == np.array_equal(a.values, b.values)
            assert ab <= so.penalty_term(a, c, g) + so.penalty_term(c, b, g)

    def test_shape_mismatch_raises(self):
        g = grid(2)
        v = so.BinaryControlPath(g, [[0], [1]])
        w = so.BinaryControlPath(g, [[0, 1], [1, 0]])
        with pytest.raises(DimensionError):
            so.penalty_term(v, w, g)


def prefix_deviation_oracle(w_values, onehot_values, step):
    """Independent running-integral evaluation with plain loops."""
    worst = 0.0
    acc = [0.0] * w_values.shape[1]
    for k in range(w_values.shape[0]):
        for i in range(w_values.shape[1]):
            acc[i] += (w_values[k, i] - onehot_values[k, i]) * step
        worst = max(worst, max(abs(a) for a in acc))
    return worst


class TestCiaDeviation:
    def test_zero_for_matching_onehot(self):
        g = grid(5)
        rng = np.random.default_rng(1)
        sel = rng.integers(0, 3, 5)
        vals = np.zeros((5, 3))
        vals[np.arange(5), sel] = 1.0
        w = so.RelaxedControlPath(g, vals)
        assert so.cia_deviation(w, w, g) == 0.0

    def test_constant_mix_against_alternating_choice(self):
        # Oracle-computed reference for the 3-interval 60/40 mix rounded to
        # modes (1, 2, 1): the running gaps peak at 0.4 after the first step.
        g = so.TimeGrid(0.0, 3.0, 3)
        w = so.RelaxedControlPath(g, np.full((3, 2), (0.6, 0.4)))
        v = so.RelaxedControlPath(g, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        expected = prefix_deviation_oracle(w.values, v.values, g.step)
        assert expected == pytest.approx(0.4)
        assert so.cia_deviation(w, v, g) == pytest.approx(expected)

    def test_single_interval_full_disagreement(self):
        for h in (0.25, 1.0, 2.5):
            g = so.TimeGrid(0.0, h, 1)
            w = so.RelaxedControlPath(g, [[1.0, 0.0]])
            v = so.RelaxedControlPath(g, [[0.0, 1.0]])
            assert so.cia_deviation(w, v, g) == pytest.approx(h)

    def test_matches_oracle_on_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, m = int(rng.integers(1, 12)), int(rng.integers(2, 5))
            g = so.TimeGrid(0.0, float(n) * 0.3, n)
            vals = rng.random((n, m))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            sel = rng.integers(0, m, n)
            ohe = np.zeros((n, m))
            ohe[np.arange(n), sel] = 1.0
            v = so.RelaxedControlPath(g, ohe)
            assert so.cia_deviation(w, v, g) == pytest.approx(
                prefix_deviation_oracle(vals, ohe, g.step), abs=1e-12
            )

    def test_requires_onehot_reference(self):
        g = grid(2)
        w = so.RelaxedControlPath.uniform(g, 2)
        with pytest.raises(RepresentationError):
            so.cia_deviation(w, w, g)

    def test_zero_deviation_implies_zero_penalty(self):
        g = grid(6)
        modes = so.enumerate_modes(2)
        rng = np.random.default_rng(3)
        sel = rng.integers(0, 4, 6)
        vals = np.zeros((6, 4))
        vals[np.arange(6), sel] = 1.0
        w = so.RelaxedControlPath(g, vals)
        v = so.RelaxedControlPath(g, vals.copy())
        assert so.cia_deviation(w, v, g) == 0.0
        pen = so.penalty_term(
            so.onehot_to_binary(v, modes), so.onehot_to_binary(w, modes), g
        )
        assert pen == 0.0


class TestSwitchCount:
    def test_constant_path(self):
        g = grid(4)
        v = so.BinaryControlPath(g, np.zeros((4, 1), dtype=int))
        assert so.switch_count(v, 0, 0, 4) == 0

    def test_two_jumps(self):
        g = grid(4)
        v = so.BinaryControlPath(g, [[0], [1], [1], [0]])
        assert so.switch_count(v, 0, 0, 4) == 2

    def test_alternating(self):
        g = grid(5)
        v = so.BinaryControlPath(g, [[0], [1], [0], [1], [0]])
        assert so.switch_count(v, 0, 0, 5) == 4

    def test_window_bounds_checked(self):
        g = grid(3)
        v = so.BinaryControlPath(g, [[0], [1], [0]])
        with pytest.raises(DimensionError):
            so.switch_count(v, 0, 0, 4)
        with pytest.raises(DimensionError):
            so.switch_count(v, 1, 0, 3)

    def test_additive_over_run_boundary_partitions(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            g = grid(n)
            col = rng.integers(0, 2, (n, 1))
            v = so.BinaryControlPath(g, col)
            total = so.switch_count(v, 0, 0, n)
            # Cut points where no switch straddles the boundary.
            cuts = [k for k in range(1, n) if col[k - 1, 0] == col[k, 0]]
            for cut in cuts:
                left = so.switch_count(v, 0, 0, cut)
                right = so.switch_count(v, 0, cut, n)
                assert left + right == total


class TestCheckFeasible:
    def test_min_dwell_satisfied(self):
        g = grid(6)
        v = so.BinaryControlPath(g, [[0], [1], [1], [0], [0], [0]])
        spec = so.CombinatorialSpec.uniform(1, 2)
        assert so.check_feasible(v, spec, g).feasible

    def test_min_dwell_violation_location(self):
        g = grid(4)
        v = so.BinaryControlPath(g, [[0], [1], [0], [0]])
        spec = so.CombinatorialSpec.uniform(1, 2)
        report = so.check_feasible(v, spec, g)
        assert not report.feasible
        (violation,) = report.violations
        assert violation.rule == "min_dwell"
        assert violation.interval == 2
        assert violation.component == 0

    def test_switch_budget(self):
        g = grid(4)
        v = so.BinaryControlPath(g, [[0], [1], [0], [1]])
        spec = so.CombinatorialSpec.uniform(1, 1, max_switches=2)
        report = so.check_feasible(v, spec, g)
        assert not report.feasible
        assert report.violations[0].rule == "max_switches"

    def test_boundary_runs_exempt_from_dwell_rules(self):
        g = grid(6)
        # First run of length 1 and last run of length 1: both exempt.
        v = so.BinaryControlPath(g, [[0], [1], [1], [1], [1], [0]])
        spec = so.CombinatorialSpec.uniform(1, 4, max_dwell=4)
        assert so.check_feasible(v, spec, g).feasible

    def test_interior_max_dwell_enforced(self):
        g = grid(8)
        v = so.BinaryControlPath(g, [[0], [1], [1], [1], [1], [1], [0], [0]])
        spec = so.CombinatorialSpec.uniform(1, 1, max_dwell=4)
        report = so.check_feasible(v, spec, g)
        assert not report.feasible
        assert report.violations[0].rule == "max_dwell"

    def test_monotone_in_dwell(self):
        rng = np.random.default_rng(23)
        g = grid(10)
        for _ in range(200):
            v = so.BinaryControlPath(g, rng.integers(0, 2, (10, 2)))
            d = int(rng.integers(2, 5))
            if so.check_feasible(v, so.CombinatorialSpec.uniform(2, d), g).feasible:
                for smaller in range(1, d):
                    assert so.check_feasible(
                        v, so.CombinatorialSpec.uniform(2, smaller), g
                    ).feasible

    def test_modewise_runs_on_mode_sequence(self):
        g = grid(4)
        spec = so.CombinatorialSpec.uniform(1, 2, representation=so.MODEWISE)
        v = so.BinaryControlPath(g, [[1, 0], [0, 1], [0, 1], [1, 0]])
        assert so.check_feasible(v, spec, g).feasible
        v_bad = so.BinaryControlPath(g, [[1, 0], [0, 1], [1, 0], [1, 0]])
        assert not so.check_feasible(v_bad, spec, g).feasible

    def test_modewise_configuration_and_indicator_paths_agree(self):
        # A modewise switch is any change of the row, whichever encoding.
        rng = np.random.default_rng(31)
        for _ in range(200):
            modes = so.enumerate_modes(int(rng.integers(1, 4)))
            m = modes.n_modes
            n = int(rng.integers(1, 16))
            g = grid(n)
            d = int(rng.integers(1, 4))
            spec = so.CombinatorialSpec(
                min_dwell=(d,),
                max_dwell=(d + int(rng.integers(0, 3)),) if rng.integers(2) else None,
                max_switches=(int(rng.integers(0, 4)),) if rng.integers(2) else None,
                representation=so.MODEWISE,
            )
            sel = rng.integers(0, m, n)
            configs = so.check_feasible(so.BinaryControlPath(g, modes.values[sel]), spec, g)
            indicators = so.check_feasible(
                so.BinaryControlPath(g, np.eye(m, dtype=np.int64)[sel]), spec, g
            )
            assert configs.violations == indicators.violations

    def test_spec_validation(self):
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(0,))
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(3,), max_dwell=(2,))
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(1, 1), representation=so.MODEWISE)
        # Dwell lengths and budgets are counts: no truncation, no bools.
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(2.7,))
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(2,), max_switches=(True,))
        with pytest.raises(DimensionError):
            so.CombinatorialSpec(min_dwell=(2,), max_dwell=(3.9,))
        spec = so.CombinatorialSpec(
            min_dwell=(np.int64(2),), max_dwell=(np.int64(3),), max_switches=(np.int64(1),)
        )
        assert spec.component(0) == (2, 3, 1)
        assert all(type(x) is int for x in spec.component(0))


class TestRepresentationBridges:
    def test_single_switch_always_on(self):
        g = grid(3)
        modes = so.enumerate_modes(1)
        w = so.RelaxedControlPath(g, [[0.0, 1.0]] * 3)
        v = so.onehot_to_binary(w, modes)
        assert v.values.tolist() == [[1], [1], [1]]

    def test_lexicographic_index_lookup(self):
        g = grid(1)
        modes = so.enumerate_modes(2)
        v = so.BinaryControlPath(g, [[1, 0]])
        w = so.binary_to_onehot(v, modes)
        assert w.values.tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_roundtrip_random_paths(self):
        modes = so.enumerate_modes(2)
        rng = np.random.default_rng(5)
        g = grid(10)
        for _ in range(50):
            v = so.BinaryControlPath(g, rng.integers(0, 2, (10, 2)))
            back = so.onehot_to_binary(so.binary_to_onehot(v, modes), modes)
            assert np.array_equal(back.values, v.values)

    def test_row_not_in_table(self):
        g = grid(1)
        modes = so.ModeTable(np.array([[0, 0], [1, 1]]))
        v = so.BinaryControlPath(g, [[1, 0]])
        with pytest.raises(RepresentationError):
            so.binary_to_onehot(v, modes)

    def test_onehot_required(self):
        g = grid(2)
        modes = so.enumerate_modes(1)
        w = so.RelaxedControlPath.uniform(g, 2)
        with pytest.raises(RepresentationError):
            so.onehot_to_binary(w, modes)


class TestModeSubsets:
    """User-supplied mode tables need not enumerate all configurations."""

    def test_subset_table_roundtrip(self):
        modes = so.ModeTable(np.array([[0, 0], [0, 1], [1, 1]]))
        g = so.TimeGrid(0.0, 1.0, 4)
        v = so.BinaryControlPath(g, [[0, 0], [1, 1], [0, 1], [1, 1]])
        w = so.binary_to_onehot(v, modes)
        assert w.n_modes == 3
        back = so.onehot_to_binary(w, modes)
        assert np.array_equal(back.values, v.values)

    def test_subset_rejects_unlisted_row(self):
        modes = so.ModeTable(np.array([[0, 0], [0, 1], [1, 1]]))
        g = so.TimeGrid(0.0, 1.0, 1)
        v = so.BinaryControlPath(g, [[1, 0]])
        with pytest.raises(RepresentationError):
            so.binary_to_onehot(v, modes)

    def test_deviation_costs_with_subset(self):
        modes = so.ModeTable(np.array([[0, 0], [1, 1]]))
        g = so.TimeGrid(0.0, 1.0, 2)
        vt = so.BinaryControlPath(g, [[0, 0], [1, 1]])
        costs = so.mode_deviation_costs(modes, vt)
        assert np.array_equal(costs, [[0, 2], [2, 0]])


class TestModeDeviationCosts:
    def test_matches_manual_l1(self):
        g = grid(2)
        modes = so.enumerate_modes(2)
        vt = so.BinaryControlPath(g, [[0, 0], [1, 1]])
        costs = so.mode_deviation_costs(modes, vt)
        expected = np.array([
            [0, 1, 1, 2],  # distances of 00,01,10,11 to 00
            [2, 1, 1, 0],  # distances to 11
        ])
        assert np.array_equal(costs, expected)


def _two_bit_onehot():
    return so.binary_to_onehot(so.BinaryControlPath.constant(grid(4), [0, 1]),
                               so.enumerate_modes(2))


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: so.ModeTable(np.array([0, 1])), DimensionError, id="mode-table-1d"),
    pytest.param(lambda: so.ModeTable(np.zeros((0, 1))), DimensionError, id="mode-table-empty"),
    pytest.param(lambda: so.ModeTable([[0], [2]]), RepresentationError, id="mode-table-entry"),
    pytest.param(lambda: so.ModeTable([[0, 1], [0, 1]]), RepresentationError,
                 id="mode-table-duplicate-rows"),
    pytest.param(lambda: so.BinaryControlPath(grid(4), np.zeros(4)), DimensionError,
                 id="binary-path-1d"),
    pytest.param(lambda: so.RelaxedControlPath(grid(4), np.full((3, 2), 0.5)), DimensionError,
                 id="relaxed-path-rows"),
    pytest.param(lambda: so.ContinuousControlPath(grid(4), np.zeros((3, 1)), [0.0], [1.0]),
                 DimensionError, id="continuous-path-rows"),
    pytest.param(lambda: so.ContinuousControlPath(grid(4), np.zeros((4, 1)), [0, 0], [1, 1]),
                 DimensionError, id="continuous-bound-length"),
    pytest.param(lambda: so.ContinuousControlPath(grid(4), np.zeros((4, 1)), [1.0], [0.0]),
                 DimensionError, id="continuous-bounds-crossed"),
    pytest.param(lambda: so.ContinuousControlPath(grid(4), np.zeros((4, 1)), [np.nan], [1.0]),
                 DimensionError, id="continuous-bounds-nan-lower"),
    pytest.param(lambda: so.ContinuousControlPath(grid(4), np.zeros((4, 1)), [0.0], [np.nan]),
                 DimensionError, id="continuous-bounds-nan-upper"),
    pytest.param(lambda: so.CombinatorialSpec((2, 2), max_dwell=(3,)), DimensionError,
                 id="spec-max-dwell-length"),
    pytest.param(lambda: so.CombinatorialSpec((2, 2), max_switches=(3,)), DimensionError,
                 id="spec-max-switches-length"),
    pytest.param(lambda: so.CombinatorialSpec((2,), max_switches=(-1,)), DimensionError,
                 id="spec-negative-budget"),
    pytest.param(lambda: so.CombinatorialSpec((2,), representation="x"), DimensionError,
                 id="spec-representation"),
    pytest.param(lambda: so.penalty_term(so.BinaryControlPath.constant(grid(5), [0]),
                                         so.BinaryControlPath.constant(grid(4), [0]), grid(4)),
                 DimensionError, id="penalty-term-grid"),
    pytest.param(lambda: so.cia_deviation(so.RelaxedControlPath.uniform(grid(4), 2),
                                          _two_bit_onehot(), grid(4)),
                 DimensionError, id="cia-deviation-modes"),
    pytest.param(lambda: so.check_feasible(so.BinaryControlPath.constant(grid(4), [0, 1]),
                                           so.CombinatorialSpec((2,)), grid(4)),
                 DimensionError, id="check-feasible-components"),
    pytest.param(lambda: so.binary_to_onehot(so.BinaryControlPath.constant(grid(4), [0, 1]),
                                             so.enumerate_modes(1)),
                 DimensionError, id="binary-to-onehot-components"),
    pytest.param(lambda: so.onehot_to_binary(_two_bit_onehot(), so.enumerate_modes(1)),
                 DimensionError, id="onehot-to-binary-modes"),
    pytest.param(lambda: so.mode_deviation_costs(
        so.enumerate_modes(1), so.BinaryControlPath.constant(grid(4), [0, 1])),
                 DimensionError, id="deviation-costs-components"),
])
def test_rejects_bad_input(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: so.binary_to_onehot(
        so.BinaryControlPath.constant(grid(4), [0, 1]), so.enumerate_modes(1)),
        "path has 2 columns, mode table needs 1", id="binary-to-onehot"),
    pytest.param(lambda: so.onehot_to_binary(_two_bit_onehot(), so.enumerate_modes(1)),
                 "path has 4 columns, mode table needs 2", id="onehot-to-binary"),
    pytest.param(lambda: so.mode_deviation_costs(
        so.enumerate_modes(1), so.BinaryControlPath.constant(grid(4), [0, 1])),
        "path has 2 columns, mode table needs 1", id="deviation-costs"),
    pytest.param(lambda: so.dwell_project_weighted(
        _two_bit_onehot(), so.enumerate_modes(1), so.CombinatorialSpec((1,)), grid(4)),
        "path has 4 columns, mode table needs 2", id="dwell-project-weighted"),
])
def test_path_against_mode_table_width_has_one_wording(call, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        call()
