import itertools
import math

import numpy as np
import pytest

import switchopt as so
from switchopt import simulate
from switchopt.adm import MAX_LADDER_RUNGS
from switchopt.errors import DimensionError

from conftest import counted_system, make_zero_system, record_sweep_points


def fast_options(variant=so.ADM_SUR, **kwargs):
    return so.AdmOptions(variant=variant, **kwargs)


class TestPenaltySchedule:
    def test_ladder_starts_at_zero_and_spans_range(self):
        ladder = so.PenaltySchedule().ladder()
        assert ladder[0] == 0.0
        assert ladder[1] == pytest.approx(1e-3)
        assert ladder[-1] == pytest.approx(1e6)
        assert len(ladder) == 11

    def test_fractional_increment_factors(self):
        ladder = so.PenaltySchedule(increment_factor=np.sqrt(10.0)).ladder()
        ratios = np.diff(np.log10(ladder[1:]))
        assert np.allclose(ratios, 0.5)

    def test_validation(self):
        with pytest.raises(Exception):
            so.PenaltySchedule(rho_initial=0.0)
        with pytest.raises(Exception):
            so.PenaltySchedule(increment_factor=1.0)
        with pytest.raises(Exception):
            so.PenaltySchedule(rho_initial=10.0, rho_max=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"increment_factor": 1 + 1e-12},
        {"rho_initial": 1e-300, "rho_max": 1e300, "increment_factor": 1.1},
    ], ids=["factor-barely-above-one", "wide-range-small-factor"])
    def test_ladder_rung_cap(self, kwargs):
        # Construction alone must fail: walking such a ladder exhausts memory.
        with pytest.raises(DimensionError, match="rungs"):
            so.PenaltySchedule(**kwargs)

    def test_wide_ladder_below_the_cap(self):
        schedule = so.PenaltySchedule(rho_initial=1e-300, rho_max=1e300)
        assert len(schedule.ladder()) == 602 <= MAX_LADDER_RUNGS

    @pytest.mark.parametrize("field, value", [
        ("rho_max", math.inf), ("rho_initial", math.nan),
        ("increment_factor", math.nan), ("increment_factor", math.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        # An infinite rho_max would make ladder() run forever.
        with pytest.raises(DimensionError):
            so.PenaltySchedule(**{field: value})


class TestAdmOptions:
    @pytest.mark.parametrize("field", ["epsilon", "penalty_stop_tol"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_tolerances_must_be_positive_and_finite(self, field, value):
        with pytest.raises(DimensionError):
            so.AdmOptions(**{field: value})

    @pytest.mark.parametrize("value", [0, 2.5, True])
    def test_max_inner_iterations_must_be_a_positive_integer(self, value):
        # adm_penalty loops over range(max_inner_iterations).
        with pytest.raises(DimensionError):
            so.AdmOptions(max_inner_iterations=value)

    def test_numpy_integer_count_accepted(self):
        assert so.AdmOptions(max_inner_iterations=np.int64(3)).max_inner_iterations == 3


class TestInnerAlternation:
    def test_trivial_objective_breaks_immediately(self):
        system = make_zero_system(state_dim=1)
        grid = so.TimeGrid(0.0, 1.0, 6)
        spec = so.CombinatorialSpec.uniform(1, 2)
        start = so.default_initial_guess(system, grid)
        point, reason, records, certified, _ = so.inner_alternation(
            system, grid, spec, 0.0, fast_options(), start
        )
        assert reason == "poc_stall"
        assert certified
        assert len(records) == 1

    def test_rho_zero_decouples_within_two_steps(self, fuller_50):
        system, grid, spec = fuller_50
        start = so.default_initial_guess(system, grid)
        point, reason, records, certified, _ = so.inner_alternation(
            system, grid, spec, 0.0, fast_options(), start
        )
        assert len(records) <= 2
        assert reason in ("poc_stall", "mip_stall")
        assert certified

    def test_mip_direction_slack_zero_against_enumeration(self):
        # Small instance: at the terminated run the stored projection must
        # attain the best penalty over the whole constraint set, and the
        # exact projection step must match brute force at the final w.
        system, grid, spec = so.build_fuller(so.FullerConfig(0.25, 8))
        res = so.adm_penalty(system, grid, spec, options=fast_options())
        assert res.converged
        w_final = res.relaxed_w_final
        best = np.inf
        for bits in itertools.product((0, 1), repeat=8):
            v = so.BinaryControlPath(grid, np.array(bits).reshape(-1, 1))
            if not so.check_feasible(v, spec, grid).feasible:
                continue
            best = min(best, so.weighted_penalty_value(system, grid, w_final, v))
        projected = so.dwell_project_weighted(w_final, system.modes, spec, grid)
        exact = so.weighted_penalty_value(system, grid, w_final, projected)
        current = so.weighted_penalty_value(system, grid, w_final, res.v_tilde_final)
        assert exact == pytest.approx(best, abs=1e-12)
        assert current == pytest.approx(best, abs=1e-12)
        assert res.p_eps_certificate.mip_slack == 0.0

    def test_iteration_budget_exit_is_uncertified(self, fuller_100):
        system, grid, spec = fuller_100
        options = fast_options(max_inner_iterations=1)
        start = so.default_initial_guess(system, grid)
        # At this penalty weight the first alternation step makes real
        # progress, so a budget of one exhausts without firing a break.
        point, reason, records, certified, _ = so.inner_alternation(
            system, grid, spec, 0.1, options, start
        )
        assert reason == "max_inner"
        assert not certified
        assert len(records) == 1 and records[0].break_fired is None

    def test_relaxed_solve_stats_recorded(self, fuller_50):
        system, grid, spec = fuller_50
        options = fast_options()
        start = so.default_initial_guess(system, grid)
        _, _, records, _, _ = so.inner_alternation(
            system, grid, spec, 0.1, options, start
        )
        solver_options = options.solver_options()
        sol = so.solve_relaxed_poc(
            system, grid, start.v_tilde, 0.1, (start.u, start.w), solver_options
        )
        first = records[0]
        assert first.relaxed_value == sol.value
        assert first.relaxed_iterations == sol.iterations > 0
        assert first.relaxed_stationarity == sol.stationarity
        for rec in records:
            assert rec.relaxed_converged == (
                rec.relaxed_stationarity <= solver_options.stationarity_tol
            )

    def test_inner_descent_recorded(self, fuller_100):
        system, grid, spec = fuller_100
        options = fast_options()
        res = so.adm_penalty(system, grid, spec, options=options)
        eps_half = options.epsilon / 2
        by_loop = {}
        for rec in res.trace:
            by_loop.setdefault(rec.outer_index, []).append(rec)
        for recs in by_loop.values():
            for rec in recs:
                if rec.break_fired is None:
                    # Accepted steps descend beyond the eps/2 slack in both
                    # directional solves.
                    assert rec.psi_after_poc < rec.psi_previous - eps_half
                    assert rec.psi_after_mip < rec.psi_after_poc - eps_half


class TestAdmPenalty:
    def test_trivial_system_terminates_feasible(self):
        system = make_zero_system(state_dim=1)
        grid = so.TimeGrid(0.0, 1.0, 6)
        spec = so.CombinatorialSpec.uniform(1, 2)
        res = so.adm_penalty(system, grid, spec, options=fast_options())
        assert res.feasible
        assert res.penalty_value < 1e-4
        assert res.converged

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_default_start_meets_every_spec(self, fuller_50, n_modes):
        # The alternation starts from this path without checking it: a
        # constant path has no switch, so no dwell or budget rule can fail.
        system, grid, _ = fuller_50
        if n_modes == 4:
            system = make_zero_system(n_modes=4)
        v0 = so.default_initial_guess(system, grid).v_tilde
        n_switches = system.modes.n_switches
        rng = np.random.default_rng(11)
        for _ in range(40):
            modewise = bool(rng.integers(2))
            n_comp = 1 if modewise else n_switches
            min_dwell = rng.integers(1, grid.n_intervals + 1, size=n_comp)
            spec = so.CombinatorialSpec(
                min_dwell=tuple(min_dwell),
                max_dwell=(tuple(min_dwell + rng.integers(0, 5, size=n_comp))
                           if rng.integers(2) else None),
                max_switches=(tuple(rng.integers(0, 3, size=n_comp))
                              if rng.integers(2) else None),
                representation=so.MODEWISE if modewise else so.COMPONENTWISE,
            )
            assert so.check_feasible(v0, spec, grid).feasible, spec

    def test_spec_not_matching_mode_table_rejected(self, fuller_50):
        system, grid, _ = fuller_50
        with pytest.raises(DimensionError):
            so.adm_penalty(system, grid, so.CombinatorialSpec.uniform(2, 2))

    @pytest.mark.parametrize("variant", [so.ADM_SUR, so.ADM_PLAIN])
    def test_fuller_end_to_end(self, fuller_100, variant):
        system, grid, spec = fuller_100
        res = so.adm_penalty(system, grid, spec, options=fast_options(variant))
        assert res.feasible
        assert res.converged
        assert res.penalty_value < 1e-4
        assert so.check_feasible(res.v_final, spec, grid).feasible
        # Reported objective is the plain objective of the reported control.
        w = so.binary_to_onehot(res.v_final, system.modes)
        direct = so.objective(system, so.integrate(system, grid, res.u_final, w))
        assert res.objective == pytest.approx(direct, rel=1e-12)

    def test_certificate_slacks(self, fuller_100):
        system, grid, spec = fuller_100
        res = so.adm_penalty(system, grid, spec, options=fast_options())
        cert = res.p_eps_certificate
        assert cert is not None
        assert cert.mip_slack == 0.0
        assert cert.poc_slack < cert.epsilon
        assert cert.poc_within_epsilon
        assert cert.mip_exact

    def test_outer_penalty_trend_reported(self, fuller_100):
        # The limit theory guarantees only limit behavior, so the trend is
        # inspected rather than asserted fatally.
        system, grid, spec = fuller_100
        res = so.adm_penalty(system, grid, spec, options=fast_options())
        by_outer = {}
        for rec in res.trace:
            by_outer[rec.outer_index] = rec.penalty_before
        values = [by_outer[k] for k in sorted(by_outer)]
        increases = sum(
            1 for a, b in zip(values, values[1:]) if b > a + 1e-12
        )
        if increases:
            print(f"note: penalty trend has {increases} increases across sweeps")
        assert values[-1] <= values[0] + 1e-12

    def test_sandwich_against_lower_bound(self, fuller_100, fuller_100_poc_bound):
        system, grid, spec = fuller_100
        for variant in (so.ADM_SUR, so.ADM_PLAIN):
            res = so.adm_penalty(system, grid, spec, options=fast_options(variant))
            assert res.objective >= fuller_100_poc_bound - 1e-6


class TestSweepMemo:
    """``adm_penalty`` sweeps each control point once per run."""

    def test_stage_evaluations_count_distinct_points(self, fuller_100, monkeypatch):
        system, grid, spec = fuller_100
        system, counts = counted_system(system)
        asked = record_sweep_points(monkeypatch)
        so.adm_penalty(system, grid, spec, options=fast_options(so.ADM_PLAIN))
        assert len(asked) > len(set(asked))
        assert counts["rhs_stack"] == 4 * grid.n_intervals * len(set(asked))
        assert simulate._memo.get() is None

    @pytest.mark.parametrize("variant", [so.ADM_PLAIN, so.ADM_SUR])
    def test_same_run_without_the_memo(self, fuller_100, monkeypatch, variant):
        # A memo of no entries sweeps every call, as outside a scope.
        system, grid, spec = fuller_100
        runs = []
        for entries in (simulate._MEMO_ENTRIES, 0):
            monkeypatch.setattr(simulate, "_MEMO_ENTRIES", entries)
            counted, counts = counted_system(system)
            res = so.adm_penalty(counted, grid, spec, options=fast_options(variant))
            runs.append((res, counts))
        (res, counts), (ref, ref_counts) = runs
        assert repr(res.trace) == repr(ref.trace)
        assert repr(res.p_eps_certificate) == repr(ref.p_eps_certificate)
        assert (res.objective, res.penalty_value) == (ref.objective, ref.penalty_value)
        assert res.u_final.values.tobytes() == ref.u_final.values.tobytes()
        assert res.relaxed_w_final.values.tobytes() == ref.relaxed_w_final.values.tobytes()
        assert np.array_equal(res.v_final.values, ref.v_final.values)
        # Every value and every reverse sweep still reaches the model.
        for name in ("terminal_cost", "terminal_cost_gradient"):
            assert counts[name] == ref_counts[name]
        assert counts["rhs_stack"] < ref_counts["rhs_stack"]


class TestHeuristics:
    def test_poc_bound_zero_dynamics(self):
        system = make_zero_system(state_dim=2)
        grid = so.TimeGrid(0.0, 1.0, 5)
        assert so.poc_lower_bound(system, grid) == 0.0

    def test_poc_bound_below_all_heuristics(self, fuller_100, fuller_100_poc_bound):
        system, grid, spec = fuller_100
        opts = so.RelaxedSolveOptions(stationarity_tol=1e-4)
        sur = so.sur_heuristic(system, grid, spec, opts)
        ciap = so.ciap_heuristic(system, grid, spec, opts)
        assert fuller_100_poc_bound <= sur.objective + 1e-6
        assert fuller_100_poc_bound <= ciap.objective + 1e-6

    def test_sur_infeasible_ciap_feasible_on_fuller(self, fuller_100):
        system, grid, spec = fuller_100
        opts = so.RelaxedSolveOptions(stationarity_tol=1e-4)
        sur = so.sur_heuristic(system, grid, spec, opts)
        ciap = so.ciap_heuristic(system, grid, spec, opts)
        assert not sur.feasible
        assert ciap.feasible
        assert so.check_feasible(ciap.v_final, spec, grid).feasible

    def test_vacuous_dwell_makes_ciap_equal_unconstrained(self, fuller_50):
        system, grid, _ = fuller_50
        spec1 = so.CombinatorialSpec.uniform(1, 1)
        run = so.ciap_heuristic(system, grid, spec1)
        assert run.feasible
        w = run.relaxed_w_final
        res = so.constrained_ciap(
            w, so.CombinatorialSpec.uniform(1, 1, representation=so.MODEWISE), grid
        )
        assert so.cia_deviation(w, so.binary_to_onehot(run.v_final, system.modes), grid) \
            == pytest.approx(res.deviation, abs=1e-12)

    def test_modewise_lift(self):
        spec = so.CombinatorialSpec.uniform(3, 2, max_switches=4)
        lifted = so.lift_to_modewise(spec)
        assert lifted.representation == so.MODEWISE
        assert lifted.min_dwell == (2,)
        assert lifted.max_switches == (4,)
        already = so.CombinatorialSpec.uniform(1, 5, representation=so.MODEWISE)
        assert so.lift_to_modewise(already) is already


class TestModewiseIntegration:
    def test_adm_with_modewise_dwell(self, translines_coarse):
        system, grid, _ = translines_coarse
        spec = so.CombinatorialSpec.uniform(1, 4, representation=so.MODEWISE)
        res = so.adm_penalty(system, grid, spec, options=fast_options(so.ADM_PLAIN))
        assert res.feasible
        assert res.penalty_value < 1e-4
        # Mode runs of the final configuration path respect the dwell.
        indicator = so.binary_to_onehot(res.v_final, system.modes)
        v_ind = so.BinaryControlPath(grid, indicator.values.astype(int))
        assert so.check_feasible(v_ind, spec, grid).feasible

    def test_feasible_flag_is_the_check_on_the_configuration_path(self, translines_coarse):
        system, grid, _ = translines_coarse
        spec = so.CombinatorialSpec.uniform(1, 4, representation=so.MODEWISE)
        res = so.adm_penalty(system, grid, spec, options=fast_options(so.ADM_SUR))
        assert so.check_feasible(res.v_final, spec, grid).feasible == res.feasible

    def test_subset_mode_table_system(self):
        # Three admissible configurations of two switches; the alternation
        # must stay inside the listed subset.
        modes = so.ModeTable(np.array([[0, 0], [0, 1], [1, 1]]))
        slopes = {(0, 0): -1.0, (0, 1): 0.5, (1, 1): 2.0}

        def rhs(t, y, u, r):
            return np.array([slopes[tuple(r)]])

        system = so.SwitchedSystem(
            state_dim=1, control_dim=0, modes=modes,
            rhs=rhs,
            rhs_jac_state=lambda t, y, u, r: np.zeros((1, 1)),
            rhs_jac_control=lambda t, y, u, r: np.zeros((1, 0)),
            terminal_cost=lambda y: float((y[0] - 0.2) ** 2),
            terminal_cost_gradient=lambda y: np.array([2.0 * (y[0] - 0.2)]),
            initial_state=np.zeros(1),
            control_lower=np.zeros(0), control_upper=np.zeros(0),
        )
        grid = so.TimeGrid(0.0, 1.0, 12)
        spec = so.CombinatorialSpec.uniform(2, 3)
        res = so.adm_penalty(system, grid, spec, options=fast_options())
        assert res.feasible
        rows = {tuple(row) for row in res.v_final.values}
        assert rows <= set(slopes)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: so.AdmOptions(variant="x"), id="unknown-variant"),
    pytest.param(lambda: so.lift_to_modewise(so.CombinatorialSpec((2, 2), max_dwell=(3, 3))),
                 id="lift-max-dwell"),
])
def test_rejects_bad_input(build):
    with pytest.raises(DimensionError):
        build()
