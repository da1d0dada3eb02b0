import collections
import functools
import heapq
import itertools
import operator
import tracemalloc

import numpy as np
import pytest

import switchopt as so
from switchopt.errors import CapacityError
from switchopt import rounding
from switchopt.rounding import ORACLE_CHUNK_ROWS, _DwellAutomaton, _solve_dwell_dp
from switchopt.simulate import _step

from conftest import make_zero_system


def runs_of(bits):
    """Maximal constant-run lengths, left to right."""
    lengths = [1]
    for a, b in zip(bits, bits[1:]):
        if a == b:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def sequence_feasible(bits, d, dmax=None, budget=None):
    """Independent dwell predicate: interior runs within [d, dmax], budgeted
    switch count.  Boundary runs are unconstrained."""
    lengths = runs_of(bits)
    interior = lengths[1:-1]
    if any(r < d for r in interior):
        return False
    if dmax is not None and any(r > dmax for r in interior):
        return False
    if budget is not None and len(lengths) - 1 > budget:
        return False
    return True


def all_feasible_sequences(n, n_values, d, dmax=None, budget=None):
    return [
        seq
        for seq in itertools.product(range(n_values), repeat=n)
        if sequence_feasible(seq, d, dmax, budget)
    ]


class TestSumUpRounding:
    def test_onehot_input_returned_unchanged(self):
        g = so.TimeGrid(0.0, 1.0, 8)
        rng = np.random.default_rng(0)
        sel = rng.integers(0, 3, 8)
        vals = np.zeros((8, 3))
        vals[np.arange(8), sel] = 1.0
        w = so.RelaxedControlPath(g, vals)
        assert np.array_equal(so.sum_up_rounding(w, g).values, vals)

    def test_hand_traced_sixty_forty(self):
        g = so.TimeGrid(0.0, 3.0, 3)
        w = so.RelaxedControlPath(g, np.full((3, 2), (0.6, 0.4)))
        out = so.sum_up_rounding(w, g)
        assert out.selected_modes().tolist() == [0, 1, 0]

    def test_tie_break_lowest_index_first(self):
        g = so.TimeGrid(0.0, 2.0, 2)
        w = so.RelaxedControlPath(g, np.full((2, 2), 0.5))
        out = so.sum_up_rounding(w, g)
        assert out.selected_modes().tolist() == [0, 1]

    def test_near_vertex_rows_round_to_their_vertex(self):
        # Rows within 1e-9 of a vertex: the target mode's gap stays near 1
        # and every other mode's near 0, so each row keeps its vertex.
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 401))
            m = int(rng.integers(2, 9))
            g = so.TimeGrid(0.0, 1.0, n)
            sel = rng.integers(0, m, n)
            vals = rng.random((n, m)) * 1e-9 / m
            vals[np.arange(n), sel] = 0.0
            vals[np.arange(n), sel] = 1.0 - vals.sum(axis=1)
            out = so.sum_up_rounding(so.RelaxedControlPath(g, vals), g)
            want = np.zeros((n, m))
            want[np.arange(n), sel] = 1.0
            assert np.array_equal(out.values, want)

    def test_deviation_bound_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(2, 5))
            g = so.TimeGrid(0.0, float(n) * 0.137, n)
            vals = rng.random((n, m))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            out = so.sum_up_rounding(w, g)
            bound = (m - 1) * g.step
            assert so.cia_deviation(w, out, g) <= bound * (1 + 1e-12)


def exhaustive_projection_cost(column, d, h, dmax=None, budget=None):
    """Minimal L1 projection cost by scanning every feasible sequence."""
    n = len(column)
    best = None
    for seq in all_feasible_sequences(n, 2, d, dmax, budget):
        cost = h * sum(abs(a - b) for a, b in zip(column, seq))
        if best is None or cost < best:
            best = cost
    return best


class TestDwellProject:
    def test_feasible_input_unchanged(self):
        g = so.TimeGrid(0.0, 1.0, 6)
        spec = so.CombinatorialSpec.uniform(1, 2)
        v = so.BinaryControlPath(g, [[0], [1], [1], [0], [0], [0]])
        out = so.dwell_project(v, spec, g)
        assert np.array_equal(out.values, v.values)

    def test_hand_case_cost_and_tie_break(self):
        for h in (0.5, 1.0):
            g = so.TimeGrid(0.0, 4 * h, 4)
            spec = so.CombinatorialSpec.uniform(1, 2)
            v = so.BinaryControlPath(g, [[0], [1], [0], [0]])
            out = so.dwell_project(v, spec, g)
            assert so.penalty_term(v, out, g) == pytest.approx(h)
            assert out.values[:, 0].tolist() == [0, 1, 1, 0]
            assert exhaustive_projection_cost([0, 1, 0, 0], 2, h) == pytest.approx(h)

    def test_alternating_path_matches_exhaustive(self):
        g = so.TimeGrid(0.0, 6.0, 6)
        spec = so.CombinatorialSpec.uniform(1, 3)
        v = so.BinaryControlPath(g, [[0], [1], [0], [1], [0], [1]])
        out = so.dwell_project(v, spec, g)
        assert so.check_feasible(out, spec, g).feasible
        assert so.penalty_term(v, out, g) == pytest.approx(
            exhaustive_projection_cost([0, 1, 0, 1, 0, 1], 3, 1.0)
        )

    def test_exhaustive_sweep_single_component(self):
        # Every instance: all binary paths, N up to 9 here (the acceptance
        # suite extends to 12), d in {1, 2, 3}.
        for n in range(1, 10):
            g = so.TimeGrid(0.0, float(n), n)
            for d in (1, 2, 3):
                spec = so.CombinatorialSpec.uniform(1, d)
                for bits in itertools.product((0, 1), repeat=n):
                    v = so.BinaryControlPath(g, np.array(bits).reshape(-1, 1))
                    out = so.dwell_project(v, spec, g)
                    assert so.check_feasible(out, spec, g).feasible
                    got = so.penalty_term(v, out, g)
                    want = exhaustive_projection_cost(list(bits), d, 1.0)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_components_decompose(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            g = so.TimeGrid(0.0, float(n), n)
            d = int(rng.integers(1, 4))
            spec2 = so.CombinatorialSpec.uniform(2, d)
            spec1 = so.CombinatorialSpec.uniform(1, d)
            v = so.BinaryControlPath(g, rng.integers(0, 2, (n, 2)))
            out = so.dwell_project(v, spec2, g)
            cost = so.penalty_term(v, out, g)
            parts = 0.0
            for c in range(2):
                vc = so.BinaryControlPath(g, v.values[:, c:c + 1])
                parts += so.penalty_term(
                    vc, so.dwell_project(vc, spec1, g), g
                )
            assert cost == pytest.approx(parts, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        g = so.TimeGrid(0.0, 10.0, 10)
        spec = so.CombinatorialSpec.uniform(2, 3)
        for _ in range(100):
            v = so.BinaryControlPath(g, rng.integers(0, 2, (10, 2)))
            once = so.dwell_project(v, spec, g)
            twice = so.dwell_project(once, spec, g)
            assert np.array_equal(once.values, twice.values)

    def test_max_dwell_and_budget_against_exhaustive(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            g = so.TimeGrid(0.0, float(n), n)
            d = int(rng.integers(1, 3))
            dmax = d + int(rng.integers(0, 3))
            budget = int(rng.integers(0, 4))
            spec = so.CombinatorialSpec.uniform(
                1, d, max_dwell=dmax, max_switches=budget
            )
            bits = rng.integers(0, 2, n)
            v = so.BinaryControlPath(g, bits.reshape(-1, 1))
            out = so.dwell_project(v, spec, g)
            assert so.check_feasible(out, spec, g).feasible
            want = exhaustive_projection_cost(list(bits), d, 1.0, dmax, budget)
            assert so.penalty_term(v, out, g) == pytest.approx(want, abs=1e-12)

    def test_weighted_matches_plain_on_onehot(self):
        modes = so.enumerate_modes(2)
        rng = np.random.default_rng(6)
        g = so.TimeGrid(0.0, 8.0, 8)
        spec = so.CombinatorialSpec.uniform(2, 2)
        for _ in range(50):
            v = so.BinaryControlPath(g, rng.integers(0, 2, (8, 2)))
            w = so.binary_to_onehot(v, modes)
            plain = so.dwell_project(v, spec, g)
            weighted = so.dwell_project_weighted(w, modes, spec, g)
            assert so.penalty_term(v, plain, g) == pytest.approx(
                so.penalty_term(v, weighted, g)
            )

    def test_weighted_exact_against_exhaustive(self):
        modes = so.enumerate_modes(1)
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = so.TimeGrid(0.0, float(n), n)
            d = int(rng.integers(1, 4))
            spec = so.CombinatorialSpec.uniform(1, d)
            vals = rng.random((n, 2))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            out = so.dwell_project_weighted(w, modes, spec, g)

            def weighted_cost(seq):
                return g.step * sum(
                    vals[k, j] * abs(j - seq[k])
                    for k in range(n) for j in range(2)
                )

            got = weighted_cost(out.values[:, 0].tolist())
            want = min(
                weighted_cost(seq) for seq in all_feasible_sequences(n, 2, d)
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_modewise_projection(self):
        g = so.TimeGrid(0.0, 5.0, 5)
        spec = so.CombinatorialSpec.uniform(1, 3, representation=so.MODEWISE)
        # Indicator path over three modes, middle run too short.
        vals = np.zeros((5, 3), dtype=int)
        for k, m in enumerate([0, 0, 1, 2, 2]):
            vals[k, m] = 1
        v = so.BinaryControlPath(g, vals)
        out = so.dwell_project(v, spec, g)
        assert so.check_feasible(out, spec, g).feasible


class TestProjectionProperties:
    """Seeded random small specs: both projections against brute force.

    Each draw picks a min dwell, and with even odds a max dwell and a switch
    budget; every result must pass ``check_feasible`` and attain the least
    cost over ``all_feasible_sequences``.
    """

    @staticmethod
    def draw(rng, n_components, representation):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        dmax = d + int(rng.integers(0, 3)) if rng.random() < 0.5 else None
        budget = int(rng.integers(0, 4)) if rng.random() < 0.5 else None
        spec = so.CombinatorialSpec.uniform(n_components, d, dmax, budget, representation)
        return so.TimeGrid(0.0, 0.5 * n, n), spec, (d, dmax, budget)

    @staticmethod
    def component_sequences(n, n_components, rule):
        """Every feasible bit matrix, as tuples of rows."""
        columns = all_feasible_sequences(n, 2, *rule)
        return [tuple(zip(*cols)) for cols in itertools.product(columns, repeat=n_components)]

    def test_modewise_plain_on_indicator_paths(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            g, spec, rule = self.draw(rng, 1, so.MODEWISE)
            n = g.n_intervals
            selected = rng.integers(0, m, n)
            v = so.BinaryControlPath(g, np.eye(m, dtype=np.int64)[selected])
            out = so.dwell_project(v, spec, g)
            assert so.check_feasible(out, spec, g).feasible
            want = min(
                2.0 * g.step * sum(a != b for a, b in zip(seq, selected))
                for seq in all_feasible_sequences(n, m, *rule)
            )
            assert so.penalty_term(v, out, g) == pytest.approx(want, abs=1e-12)

    def test_modewise_weighted(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            modes = so.ModeTable(so.enumerate_modes(2).values[:m])
            g, spec, rule = self.draw(rng, 1, so.MODEWISE)
            n = g.n_intervals
            w = so.RelaxedControlPath(g, rng.dirichlet(np.ones(m), size=n))
            out = so.dwell_project_weighted(w, modes, spec, g)
            # Indicator path of the chosen modes, for the modewise checker.
            seq_out = [modes.index_of(row) for row in out.values]
            indicator = so.BinaryControlPath(g, np.eye(m, dtype=np.int64)[seq_out])
            assert so.check_feasible(indicator, spec, g).feasible
            dist = np.abs(modes.values[:, None, :] - modes.values[None, :, :]).sum(axis=2)
            costs = g.step * (w.values @ dist)

            def cost(seq):
                return float(costs[np.arange(n), list(seq)].sum())

            want = min(cost(seq) for seq in all_feasible_sequences(n, m, *rule))
            assert cost(seq_out) == pytest.approx(want, abs=1e-12)

    def test_componentwise_plain(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            switches = int(rng.integers(1, 3))
            g, spec, rule = self.draw(rng, switches, so.COMPONENTWISE)
            n = g.n_intervals
            bits = rng.integers(0, 2, (n, switches))
            v = so.BinaryControlPath(g, bits)
            out = so.dwell_project(v, spec, g)
            assert so.check_feasible(out, spec, g).feasible
            want = min(
                g.step * float(np.abs(np.array(rows) - bits).sum())
                for rows in self.component_sequences(n, switches, rule)
            )
            assert so.penalty_term(v, out, g) == pytest.approx(want, abs=1e-12)

    def test_componentwise_weighted(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            switches = int(rng.integers(1, 3))
            modes = so.enumerate_modes(switches)
            g, spec, rule = self.draw(rng, switches, so.COMPONENTWISE)
            n = g.n_intervals
            w = so.RelaxedControlPath(g, rng.dirichlet(np.ones(modes.n_modes), size=n))
            out = so.dwell_project_weighted(w, modes, spec, g)
            assert so.check_feasible(out, spec, g).feasible

            def cost(rows):
                rows = np.asarray(rows)
                dist = np.abs(modes.values[None, :, :] - rows[:, None, :]).sum(axis=2)
                return g.step * float((w.values * dist).sum())

            want = min(cost(rows) for rows in self.component_sequences(n, switches, rule))
            assert cost(out.values) == pytest.approx(want, abs=1e-12)


def reference_dwell_dp(costs, automaton):
    """The dynamic program as a scan over sources: each source in ascending
    order relaxes each of its successors on strict improvement only.  A
    constant sequence is always feasible, so a terminal state is reached."""
    n_intervals, n_values = costs.shape
    table = np.full((n_intervals, automaton.n_states), np.inf)
    preds = np.full((n_intervals, automaton.n_states), -1, dtype=np.int64)
    for val in range(n_values):
        table[0, automaton.initial_state[val]] = costs[0, val]
    for k in range(1, n_intervals):
        for s, row in enumerate(automaton.next_state):
            base = table[k - 1, s]
            if base == np.inf:
                continue
            for val, t in enumerate(row):
                if t < 0:
                    continue
                cand = base + costs[k, val]
                if cand < table[k, t]:
                    table[k, t] = cand
                    preds[k, t] = s
    s = int(np.argmin(table[-1]))
    sequence = np.empty(n_intervals, dtype=np.int64)
    for k in range(n_intervals - 1, -1, -1):
        sequence[k] = automaton.values[s]
        s = preds[k, s]
    return sequence


def reference_lock_tables(n_values, d, dmax, budget):
    """The automaton built state by state from (value, run, first, used)
    tuples and a switch rule, as a reference for the arithmetic numbering.

    Returns (next_state, values, initial_state, predecessor groups) in the
    layout of ``_DwellAutomaton``."""
    run_cap = (dmax + 1) if dmax is not None else d
    used_levels = range(budget + 1) if budget is not None else (0,)
    states = [
        (val, run, first, used)
        for val in range(n_values)
        for run in range(1, run_cap + 1)
        for first in (False, True)
        for used in used_levels
    ]
    index = {state: i for i, state in enumerate(states)}

    def may_switch(run, first, used):
        if budget is not None and used >= budget:
            return False
        if first:
            return True
        if run < d:
            return False
        if dmax is not None and run > dmax:
            return False
        return True

    bump = 0 if budget is None else 1
    next_state = np.full((len(states), n_values), -1, dtype=np.int64)
    for s, (val, run, first, used) in enumerate(states):
        for new_val in range(n_values):
            if new_val == val:
                next_state[s, new_val] = index[(val, min(run + 1, run_cap), first, used)]
            elif may_switch(run, first, used):
                next_state[s, new_val] = index[(new_val, 1, False, used + bump)]
    preds = [[] for _ in states]
    for s in range(len(states)):
        for t in next_state[s]:
            if t >= 0:
                preds[t].append(s)
    by_count = {}
    for t, sources in enumerate(preds):
        if sources:
            by_count.setdefault(len(sources), []).append(t)
    groups = [
        (np.array(targets), np.array([states[t][0] for t in targets]),
         np.array([preds[t] for t in targets]))
        for targets in by_count.values()
    ]
    values = np.array([state[0] for state in states])
    initial = np.array([index[(val, 1, True, 0)] for val in range(n_values)])
    return next_state, values, initial, groups


class TestDwellDp:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(320):
            n_values = int(rng.integers(2, 7))
            d = 1 if trial % 4 == 0 else int(rng.integers(1, 6))
            dmax = d + int(rng.integers(0, 3)) if rng.random() < 0.4 else None
            budget = None
            if rng.random() < 0.5:
                budget = 0 if trial % 5 == 0 else int(rng.integers(1, 6))
            n = 1 if trial % 16 == 0 else int(rng.integers(1, 41))
            if trial % 2:
                # Multiples of 0.1: sums of distinct terms round to ties.
                costs = rng.integers(0, 5, (n, n_values)) * 0.1
            else:
                costs = rng.random((n, n_values))
            automaton = _DwellAutomaton(n_values, d, dmax, budget)
            want = reference_dwell_dp(costs, automaton)
            assert _solve_dwell_dp(costs, automaton).tolist() == want.tolist()

    def test_matches_brute_force_on_tied_costs(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n_values = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            dmax = d + int(rng.integers(0, 3)) if rng.random() < 0.5 else None
            budget = int(rng.integers(0, 4)) if rng.random() < 0.5 else None
            n = int(rng.integers(1, 8 if n_values == 2 else 6))
            # Few distinct integer costs, so many sequences tie.
            costs = rng.integers(0, 3, (n, n_values)).astype(float)
            feasible = all_feasible_sequences(n, n_values, d, dmax, budget)
            seq = _solve_dwell_dp(costs, _DwellAutomaton(n_values, d, dmax, budget))
            assert tuple(seq.tolist()) in feasible

            def cost(s):
                return float(costs[np.arange(n), list(s)].sum())

            assert cost(seq) == min(cost(s) for s in feasible)

    @pytest.mark.parametrize("costs, rule, want", [
        (np.zeros((3, 2)), (2, 1, None, None), [1, 0, 0]),
        (np.zeros((5, 3)), (3, 2, None, None), [0, 0, 1, 1, 0]),
        (np.zeros((6, 2)), (2, 2, 3, 1), [1, 1, 1, 1, 1, 0]),
        (np.array([[0, 0], [1, 0], [0, 1], [0, 0], [1, 1]], dtype=float),
         (2, 2, None, None), [1, 1, 0, 0, 0]),
        # Distinct prefix costs 0.1 + 0.2 > 0.3 + 0.0 whose sums with 0.1
        # both round to 0.4: the tie goes to the lower state (value 0),
        # not to the smaller prefix cost.
        (np.array([[0.1, 0.1, 0.3], [0.2, 1.0, 0.0], [0.7, 0.1, 0.3]]),
         (3, 2, None, None), [0, 0, 1]),
    ])
    def test_ties_resolve_to_lowest_state_index(self, costs, rule, want):
        assert _solve_dwell_dp(costs, _DwellAutomaton(*rule)).tolist() == want

    def test_successor_walk_enumerates_feasible_sequences(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n_values = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            dmax = d + int(rng.integers(0, 3)) if rng.random() < 0.5 else None
            budget = int(rng.integers(0, 4)) if rng.random() < 0.5 else None
            n = int(rng.integers(1, 8 if n_values == 2 else 6))
            automaton = _DwellAutomaton(n_values, d, dmax, budget)
            assert automaton.next_state.shape == (automaton.n_states, n_values)
            assert automaton.values.shape == (automaton.n_states,)
            for s, row in enumerate(automaton.next_state):
                assert row[automaton.values[s]] >= 0

            walked = []

            def walk(prefix, state):
                if len(prefix) == n:
                    walked.append(tuple(prefix))
                    return
                for val, nxt in enumerate(automaton.next_state[state]):
                    if nxt >= 0:
                        walk(prefix + [val], nxt)

            for val in range(n_values):
                walk([val], automaton.initial_state[val])
            assert walked == all_feasible_sequences(n, n_values, d, dmax, budget)

    # State counts on each side of the int8/int16 and int16/int32 limits.
    @pytest.mark.parametrize("d, budget, n_states, pred_type", [
        (4, 7, 128, np.int8), (4, 8, 144, np.int16),
        (8, 1023, 32_768, np.int16), (8, 1024, 32_800, np.int32),
    ])
    def test_predecessor_table_type_at_width_limits(self, monkeypatch, d, budget,
                                                    n_states, pred_type):
        automaton = _DwellAutomaton(2, d, None, budget)
        assert automaton.n_states == n_states
        costs = np.random.default_rng(budget).random((12, 2))
        tables = []
        full = np.full

        def recording_full(shape, *args, **kwargs):
            out = full(shape, *args, **kwargs)
            if out.ndim == 2:
                tables.append(out.dtype)
            return out

        monkeypatch.setattr(np, "full", recording_full)
        got = _solve_dwell_dp(costs, automaton)
        monkeypatch.undo()
        assert tables == [np.dtype(pred_type)]
        assert got.tolist() == reference_dwell_dp(costs, automaton).tolist()

    @pytest.mark.parametrize("n_values", range(1, 7))
    def test_table_matches_per_state_construction(self, n_values):
        for d in range(1, 7):
            for dmax in (None, d, d + 1, d + 2):
                for budget in (None, 0, 1, 2, 5):
                    automaton = _DwellAutomaton(n_values, d, dmax, budget)
                    next_state, values, initial, groups = reference_lock_tables(
                        n_values, d, dmax, budget
                    )
                    assert automaton.n_values == n_values
                    assert automaton.n_states == len(values)
                    assert np.array_equal(automaton.next_state, next_state)
                    assert np.array_equal(automaton.values, values)
                    assert np.array_equal(automaton.initial_state, initial)
                    got = automaton.predecessor_groups()
                    assert len(got) == len(groups)
                    for have, want in zip(got, groups):
                        for a, b in zip(have, want):
                            assert a.shape == b.shape and np.array_equal(a, b)


def exhaustive_ciap(values, h, d, dmax=None, budget=None):
    """Best deviation over every dwell-feasible mode sequence."""
    n, m = values.shape
    best = np.inf
    for seq in all_feasible_sequences(n, m, d, dmax, budget):
        onehot = np.zeros((n, m))
        onehot[np.arange(n), list(seq)] = 1.0
        dev = np.abs(np.cumsum((values - onehot) * h, axis=0)).max()
        if dev < best:
            best = dev
    return float(best)


def reference_ciap(w, spec, grid, max_nodes):
    """CIAP as a push-every-child, pop-every-node best-first loop; returns
    (deviation, nodes, proven, path, exit), where exit names how it ended:
    "leaf" (a popped leaf), "incumbent" (a budget exit with a pushed leaf)
    or "frontier" (a budget exit that completes the best frontier node)."""
    n, m, h = grid.n_intervals, w.n_modes, grid.step
    automaton = _DwellAutomaton(m, *spec.component(0))
    successors = [[(mode, t) for mode, t in enumerate(row) if t >= 0]
                  for row in automaton.next_state.tolist()]
    steps = ((w.values[:, None, :] - np.eye(m)) * h).tolist()
    parents, heap, incumbent, pops = [], [], None, 0

    def push(depth, mode, state, gamma, bound, parent):
        heapq.heappush(heap, (bound, -depth, len(parents), state, gamma))
        parents.append((parent, mode))

    for mode in range(m):
        gamma = tuple(steps[0][mode])
        push(0, mode, int(automaton.initial_state[mode]), gamma, max(map(abs, gamma)), -1)
    best_leaf, exit_kind = None, "leaf"
    while pops < max_nodes:
        bound, neg_depth, node_id, state, gamma = heapq.heappop(heap)
        pops += 1
        if -neg_depth == n - 1:
            best_leaf = (bound, node_id)
            break
        k = 1 - neg_depth
        for new_mode, new_state in successors[state]:
            new_gamma = tuple(map(operator.add, gamma, steps[k][new_mode]))
            new_bound = max(bound, max(map(abs, new_gamma)))
            if incumbent is not None and new_bound >= incumbent[0]:
                continue
            if k == n - 1:
                incumbent = (new_bound, len(parents))
            push(k, new_mode, new_state, new_gamma, new_bound, node_id)
    if best_leaf is None:
        exit_kind = "incumbent"
        if incumbent is None:
            exit_kind = "frontier"
            bound, neg_depth, node_id, state, gamma = heap[0]
            mode = automaton.values[state]
            for k in range(1 - neg_depth, n):
                gamma = tuple(map(operator.add, gamma, steps[k][mode]))
                bound = max(bound, max(map(abs, gamma)))
                parents.append((node_id, mode))
                node_id = len(parents) - 1
            incumbent = (bound, node_id)
        best_leaf = incumbent
    deviation, node_id = best_leaf
    seq = []
    while node_id >= 0:
        node_id, mode = parents[node_id]
        seq.append(mode)
    path = "".join(str(mode) for mode in reversed(seq))
    return deviation, pops, exit_kind == "leaf", path, exit_kind


class TestConstrainedCiap:
    def test_feasible_onehot_returned_as_is(self):
        g = so.TimeGrid(0.0, 6.0, 6)
        spec = so.CombinatorialSpec.uniform(1, 2, representation=so.MODEWISE)
        vals = np.zeros((6, 2))
        for k, m in enumerate([0, 0, 1, 1, 0, 0]):
            vals[k, m] = 1.0
        w = so.RelaxedControlPath(g, vals)
        res = so.constrained_ciap(w, spec, g)
        assert res.deviation == 0.0
        assert res.proven_optimal
        assert np.array_equal(res.control.values, vals)

    def test_exactness_on_random_instances(self):
        rng = np.random.default_rng(777)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            g = so.TimeGrid(0.0, float(n) * 0.5, n)
            vals = rng.random((n, 2))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            spec = so.CombinatorialSpec.uniform(1, d, representation=so.MODEWISE)
            res = so.constrained_ciap(w, spec, g)
            assert res.proven_optimal
            want = exhaustive_ciap(vals, g.step, d)
            assert res.deviation == pytest.approx(want, abs=1e-12)
            assert so.cia_deviation(w, res.control, g) == pytest.approx(
                res.deviation, abs=1e-12
            )

    def test_unconstrained_never_worse_than_rounding(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            g = so.TimeGrid(0.0, float(n) * 0.2, n)
            vals = rng.random((n, 2))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            spec = so.CombinatorialSpec.uniform(1, 1, representation=so.MODEWISE)
            res = so.constrained_ciap(w, spec, g)
            sur_dev = so.cia_deviation(w, so.sum_up_rounding(w, g), g)
            assert res.deviation <= sur_dev + 1e-12

    def test_dwell_constraint_enforced(self):
        rng = np.random.default_rng(13)
        g = so.TimeGrid(0.0, 10.0, 10)
        spec = so.CombinatorialSpec.uniform(1, 3, representation=so.MODEWISE)
        vals = rng.random((10, 3))
        vals /= vals.sum(axis=1, keepdims=True)
        w = so.RelaxedControlPath(g, vals)
        res = so.constrained_ciap(w, spec, g)
        assert so.check_feasible(
            so.BinaryControlPath(g, res.control.values.astype(int)), spec, g
        ).feasible

    def test_exactness_with_max_dwell_and_budget(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 3))
            dmax = d + int(rng.integers(0, 3))
            budget = int(rng.integers(0, 4))
            g = so.TimeGrid(0.0, float(n), n)
            vals = rng.random((n, 2))
            vals /= vals.sum(axis=1, keepdims=True)
            w = so.RelaxedControlPath(g, vals)
            spec = so.CombinatorialSpec.uniform(
                1, d, max_dwell=dmax, max_switches=budget,
                representation=so.MODEWISE,
            )
            res = so.constrained_ciap(w, spec, g)
            assert res.proven_optimal
            want = exhaustive_ciap(vals, g.step, d, dmax, budget)
            assert res.deviation == pytest.approx(want, abs=1e-12)
            assert so.check_feasible(
                so.BinaryControlPath(g, res.control.values.astype(int)), spec, g
            ).feasible

    def test_budget_exit_keeps_feasible_incumbent(self):
        rng = np.random.default_rng(17)
        g = so.TimeGrid(0.0, 30.0, 30)
        spec = so.CombinatorialSpec.uniform(1, 4, representation=so.MODEWISE)
        vals = rng.random((30, 4))
        vals /= vals.sum(axis=1, keepdims=True)
        w = so.RelaxedControlPath(g, vals)
        res = so.constrained_ciap(w, spec, g, max_nodes=40)
        assert not res.proven_optimal
        assert so.check_feasible(
            so.BinaryControlPath(g, res.control.values.astype(int)), spec, g
        ).feasible

    # Exact results, so a change of the expansion order or of the gap
    # arithmetic shows even where the deviation stays within rounding.
    @pytest.mark.parametrize("seed, modes, n, d, budget, max_nodes, want", [
        # The benchmark's budgeted instance, stopped by the node budget.
        (7, 4, 60, 3, 8, 5_000, (
            0.5971558782493465, 5_000, False,
            "200011122233311122222222222222222222222222222222222222222222")),
        # A larger unbudgeted instance, solved to proven optimality.
        (5, 6, 100, 4, None, 1_000_000, (
            0.022700472324012306, 353, True,
            "22255550000111133333444422225555000022223333444411115555"
            "00003333444422221111555500003333444422221111")),
        # No pop: the best root held to the end.
        (7, 4, 60, 3, 8, 0, (
            0.6867307505467133, 0, False,
            "111111111111111111111111111111111111111111111111111111111111")),
        # The benchmark's instance reaches no complete assignment within 10^6
        # pops, so this small one pins a budget exit with an incumbent but
        # no popped leaf, and then its proven optimum.
        (0, 4, 10, 2, 4, 32, (0.12534176488482582, 32, False, "1002233000")),
        (0, 4, 10, 2, 4, 1_000_000, (0.10442302185937932, 48, True, "1002233300")),
        # The benchmark's budgeted instance at the benchmark's node budget.
        (7, 4, 60, 3, 8, 100_000, (
            0.28673075054671304, 100_000, False,
            "110000333222221111133333322200011111111111111111111111111111")),
    ])
    def test_golden_results(self, seed, modes, n, d, budget, max_nodes, want):
        g = so.TimeGrid(0.0, 1.0, n)
        rng = np.random.default_rng(seed)
        w = so.RelaxedControlPath(g, rng.dirichlet(np.full(modes, 0.5), size=n))
        spec = so.CombinatorialSpec.uniform(
            1, d, max_switches=budget, representation=so.MODEWISE
        )
        res = so.constrained_ciap(w, spec, g, max_nodes=max_nodes)
        path = "".join(str(mode) for mode in res.control.selected_modes())
        assert (res.deviation, res.nodes_explored, res.proven_optimal, path) == want

    def test_node_store_peak_memory_below_reference(self):
        # The benchmark's budgeted instance pushes no leaf, so the tree only
        # grows; the flat node store must stay well below the reference's
        # list of (parent, mode) tuples.
        g = so.TimeGrid(0.0, 1.0, 60)
        w = so.RelaxedControlPath(g, np.random.default_rng(7).dirichlet(np.full(4, 0.5), size=60))
        spec = so.CombinatorialSpec.uniform(1, 3, max_switches=8, representation=so.MODEWISE)
        peaks = []
        tracemalloc.start()
        try:
            for solve in (so.constrained_ciap, reference_ciap):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                solve(w, spec, g, max_nodes=20_000)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 0.75 * peaks[1], peaks

    def test_matches_reference_loop(self):
        # Each instance is solved to its end, then stopped at three budgets
        # of 0-300 pops below that, which fall before, at and after the
        # first leaf is pushed.
        rng = np.random.default_rng(2021)
        exits = collections.Counter()
        for _ in range(150):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 25))
            d = int(rng.integers(1, 4))
            dmax = None if rng.random() < 0.5 else d + int(rng.integers(0, 3))
            budget = None if rng.random() < 0.3 else int(rng.integers(0, 6))
            g = so.TimeGrid(0.0, 1.0, n)
            w = so.RelaxedControlPath(g, rng.dirichlet(np.full(m, 0.5), size=n))
            spec = so.CombinatorialSpec.uniform(
                1, d, max_dwell=dmax, max_switches=budget, representation=so.MODEWISE
            )
            pops = reference_ciap(w, spec, g, 1_000_000)[1]
            budgets = rng.integers(0, min(pops, 300) + 1, size=3).tolist()
            for max_nodes in [1_000_000, *budgets]:
                *want, exit_kind = reference_ciap(w, spec, g, max_nodes)
                exits[exit_kind] += 1
                res = so.constrained_ciap(w, spec, g, max_nodes=max_nodes)
                path = "".join(str(mode) for mode in res.control.selected_modes())
                assert [res.deviation, res.nodes_explored, res.proven_optimal, path] == want
        assert min(exits[kind] for kind in ("leaf", "incumbent", "frontier")) >= 20, exits


def make_two_switch_system():
    """Two switches (four modes) forcing a harmonic oscillator whose squared
    position is tracked; the per-mode callables derive every hook."""
    def rhs(t, y, u, r):
        return np.array([y[1] + r[0] - 0.4, 0.3 * r[1] - 0.5 * y[0] - 0.1, y[0] * y[0]])

    def rhs_jac_state(t, y, u, r):
        return np.array([[0.0, 1.0, 0.0], [-0.5, 0.0, 0.0], [2.0 * y[0], 0.0, 0.0]])

    return so.SwitchedSystem(
        state_dim=3,
        control_dim=0,
        modes=so.enumerate_modes(2),
        rhs=rhs,
        rhs_jac_state=rhs_jac_state,
        rhs_jac_control=lambda t, y, u, r: np.zeros((3, 0)),
        terminal_cost=lambda y: y[2] + (y[0] - 0.05) ** 2 + y[1] ** 2,
        terminal_cost_gradient=lambda y: np.array([2.0 * (y[0] - 0.05), 2.0 * y[1], 1.0]),
        initial_state=np.array([0.02, 0.0, 0.0]),
        control_lower=np.zeros(0),
        control_upper=np.zeros(0),
    )


def small_controlled_translines():
    """Four-step translines instance with two continuous controls, small
    enough that every complete sequence's best response is solved."""
    cfg = so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
    return so.build_translines(so.TranslinesConfig(
        nodes=cfg.nodes, lines=cfg.lines, switch_groups=cfg.switch_groups,
        producers=cfg.producers,
        consumers=tuple(
            (node, ((0.0, q0), (2.0, q0)))
            for (node, table), q0 in zip(cfg.consumers, (0.4, 0.3, 0.5, 0.2, 0.3))
        ),
        volumes_per_line=1, n_time_steps=4, t_end=2.0, tau_min=1.0,
    ))


def fuller_oracle_case(n, d, dmax, budget, representation):
    system, _, _ = so.build_fuller(so.FullerConfig(0.1, 20))
    spec = so.CombinatorialSpec.uniform(
        1, d, max_dwell=dmax, max_switches=budget, representation=representation
    )
    return system, so.TimeGrid(0.0, 1.0, n), spec


# (system, grid, spec) builders of the reference-walk cases, by test id.
ORACLE_CASES = {
    "fuller modewise N=12 d=2": lambda: fuller_oracle_case(12, 2, None, None, so.MODEWISE),
    "fuller modewise N=14 d=2 dmax=4 budget=3": (
        lambda: fuller_oracle_case(14, 2, 4, 3, so.MODEWISE)),
    "fuller componentwise N=16 d=3": (
        lambda: fuller_oracle_case(16, 3, None, None, so.COMPONENTWISE)),
    "fuller componentwise N=12 d=1 dmax=3": (
        lambda: fuller_oracle_case(12, 1, 3, None, so.COMPONENTWISE)),
    "fuller componentwise N=14 d=2 budget=3": (
        lambda: fuller_oracle_case(14, 2, None, 3, so.COMPONENTWISE)),
    "two switches componentwise": lambda: (
        make_two_switch_system(), so.TimeGrid(0.0, 1.0, 8),
        so.CombinatorialSpec(min_dwell=(1, 2), max_dwell=(2, 3), max_switches=(3, 2))),
    "two switches modewise": lambda: (
        make_two_switch_system(), so.TimeGrid(0.0, 1.0, 8),
        so.CombinatorialSpec.uniform(1, 2, max_switches=3, representation=so.MODEWISE)),
    # Every complete sequence ties at value 0: the first one must win.
    "zero system": lambda: (
        make_zero_system(n_modes=4), so.TimeGrid(0.0, 1.0, 6),
        so.CombinatorialSpec(min_dwell=(1, 2), max_dwell=(2, 3), max_switches=(3, 2))),
}


@functools.lru_cache(maxsize=None)
def oracle_tree_size(name):
    return reference_oracle(*ORACLE_CASES[name]())[2]


def reference_oracle(system, grid, spec, max_nodes=10_000_000):
    """The oracle as a node-by-node depth-first walk in ascending mode order,
    one one-row step per node; returns (value, sequence, nodes, proven,
    best_u), with sequence None when no complete sequence was reached."""
    n, m = grid.n_intervals, system.modes.n_modes
    if spec.representation == so.MODEWISE:
        automata = (_DwellAutomaton(m, *spec.component(0)),)
        mode_values = [(mode,) for mode in range(m)]
    else:
        automata = tuple(
            _DwellAutomaton(2, *spec.component(c)) for c in range(spec.n_components)
        )
        mode_values = [tuple(int(b) for b in row) for row in system.modes.values]
    tables = [a.next_state.tolist() for a in automata]
    has_u = system.control_dim > 0
    u_stub = np.zeros(system.control_dim)
    onehot_rows = np.eye(m)
    best = (np.inf, None, None)
    nodes = 0
    stack = []
    for mode in range(m - 1, -1, -1):
        y1 = None if has_u else _step(
            system, grid.node(0), system.initial_state, u_stub, onehot_rows[mode], grid.step
        )[0]
        states = tuple(int(a.initial_state[v]) for a, v in zip(automata, mode_values[mode]))
        stack.append((0, (mode,), states, y1))
    while stack:
        if nodes >= max_nodes:
            break
        depth, seq, states, y = stack.pop()
        nodes += 1
        if depth == n - 1:
            if has_u:
                u_vals, value = so.best_response_continuous(system, grid, onehot_rows[list(seq)])
            else:
                u_vals, value = None, float(system.terminal_cost(y))
            if value < best[0]:
                best = (value, seq, u_vals)
            continue
        children = []
        for mode in range(m):
            following = tuple(
                table[s][v] for table, s, v in zip(tables, states, mode_values[mode])
            )
            if -1 in following:
                continue
            y_next = None if has_u else _step(
                system, grid.node(depth + 1), y, u_stub, onehot_rows[mode], grid.step
            )[0]
            children.append((depth + 1, seq + (mode,), following, y_next))
        stack.extend(reversed(children))
    return best[0], best[1], nodes, not stack, best[2]


class TestGlobalOracle:
    def test_sequence_count_matches_independent_enumeration(self):
        system, _, _ = so.build_fuller(so.FullerConfig(0.5, 4))
        grid = so.TimeGrid(0.0, 1.0, 4)
        spec = so.CombinatorialSpec.uniform(1, 2)
        res = so.global_oracle(system, grid, spec)
        sequences = all_feasible_sequences(4, 2, 2)
        # The oracle walks every feasible prefix; leaves equal sequences.
        assert res.proven_optimal
        assert res.nodes_explored >= len(sequences)
        best = min(
            so.objective(
                system,
                so.integrate(
                    system, grid, so.ContinuousControlPath.empty(grid),
                    so.binary_to_onehot(
                        so.BinaryControlPath(grid, np.array(seq).reshape(-1, 1)),
                        system.modes,
                    ),
                ),
            )
            for seq in sequences
        )
        assert res.best_value == pytest.approx(best, abs=1e-12)

    @staticmethod
    def feasible_prefix_count(n, n_modes, component_bits, params):
        """Prefixes of every length 1..n whose per-component value sequences
        pass the independent dwell predicate."""
        return sum(
            all(
                sequence_feasible([bits(mode) for mode in prefix], *p)
                for bits, p in zip(component_bits, params)
            )
            for length in range(1, n + 1)
            for prefix in itertools.product(range(n_modes), repeat=length)
        )

    def test_nodes_count_feasible_prefixes_modewise_fuller(self):
        n = 8
        system, _, _ = so.build_fuller(so.FullerConfig(0.5, n))
        grid = so.TimeGrid(0.0, 1.0, n)
        spec = so.CombinatorialSpec.uniform(
            1, 2, max_dwell=3, max_switches=2, representation=so.MODEWISE
        )
        res = so.global_oracle(system, grid, spec)
        assert res.proven_optimal
        assert res.nodes_explored == self.feasible_prefix_count(
            n, 2, [lambda mode: mode], [(2, 3, 2)]
        )
        indicator = so.binary_to_onehot(res.best_control, system.modes)
        v_ind = so.BinaryControlPath(grid, indicator.values.astype(int))
        assert so.check_feasible(v_ind, spec, grid).feasible

    def test_nodes_count_feasible_prefixes_componentwise_two_switches(self):
        n = 6
        system = make_zero_system(n_modes=4)
        grid = so.TimeGrid(0.0, 1.0, n)
        spec = so.CombinatorialSpec(
            min_dwell=(1, 2), max_dwell=(2, 3), max_switches=(3, 2)
        )
        res = so.global_oracle(system, grid, spec)
        assert res.proven_optimal
        rows = system.modes.values
        assert res.nodes_explored == self.feasible_prefix_count(
            n, 4,
            [lambda mode: rows[mode, 0], lambda mode: rows[mode, 1]],
            [(1, 2, 3), (2, 3, 2)],
        )
        assert so.check_feasible(res.best_control, spec, grid).feasible

    def test_dominates_heuristics_on_coarse_grid(self):
        system, grid, spec = so.build_fuller(so.FullerConfig(0.1, 20))
        res = so.global_oracle(system, grid, spec)
        assert res.proven_optimal
        ciap = so.ciap_heuristic(system, grid, spec)
        assert res.best_value <= ciap.objective + 1e-12

    def test_maximal_dwell_only_boundary_switch_patterns(self):
        n = 6
        system, _, _ = so.build_fuller(so.FullerConfig(0.5, n))
        grid = so.TimeGrid(0.0, 1.0, n)
        spec = so.CombinatorialSpec.uniform(1, n)
        res = so.global_oracle(system, grid, spec)
        sequences = all_feasible_sequences(n, 2, n)
        assert res.proven_optimal
        # With d = N only constant-or-one-switch patterns remain.
        for seq in sequences:
            assert len(runs_of(seq)) <= 2 or (
                len(runs_of(seq)) == 3 and runs_of(seq)[1] >= n
            )
        best = min(
            so.objective(
                system,
                so.integrate(
                    system, grid, so.ContinuousControlPath.empty(grid),
                    so.binary_to_onehot(
                        so.BinaryControlPath(grid, np.array(seq).reshape(-1, 1)),
                        system.modes,
                    ),
                ),
            )
            for seq in sequences
        )
        assert res.best_value == pytest.approx(best, abs=1e-12)

    def test_oracle_control_is_feasible(self):
        system, grid, spec = so.build_fuller(so.FullerConfig(0.15, 20))
        res = so.global_oracle(system, grid, spec)
        assert so.check_feasible(res.best_control, spec, grid).feasible

    def test_grid_cap(self):
        system, _, spec = so.build_fuller(so.FullerConfig(0.1, 40))
        grid = so.TimeGrid(0.0, 1.0, 40)
        with pytest.raises(CapacityError):
            so.global_oracle(system, grid, spec)

    @staticmethod
    def assert_same_walk(system, grid, spec, max_nodes=10_000_000):
        value, seq, nodes, proven, best_u = reference_oracle(system, grid, spec, max_nodes)
        res = so.global_oracle(system, grid, spec, max_nodes)
        assert float(res.best_value).hex() == float(value).hex()
        assert np.array_equal(res.best_control.values, system.modes.values[list(seq)])
        assert (res.nodes_explored, res.proven_optimal) == (nodes, proven)
        assert (res.best_u is None) == (best_u is None)
        if best_u is not None:
            assert np.array_equal(res.best_u, best_u)
        return res

    @pytest.mark.parametrize("name", [*ORACLE_CASES, "translines controlled"])
    @pytest.mark.parametrize("chunk_rows", [ORACLE_CHUNK_ROWS, 3, 1])
    def test_matches_reference_walk(self, monkeypatch, name, chunk_rows):
        # Small chunks split every level, so chunk order is exercised too.
        monkeypatch.setattr(rounding, "ORACLE_CHUNK_ROWS", chunk_rows)
        case = ORACLE_CASES.get(name, small_controlled_translines)()
        res = self.assert_same_walk(*case)
        assert res.proven_optimal

    @pytest.mark.parametrize("name", ORACLE_CASES)
    @pytest.mark.parametrize(
        "budget", ["n", 50, 123, "size // 2", 500, "size - 1", "size"])
    @pytest.mark.parametrize("chunk_rows", [ORACLE_CHUNK_ROWS, 3, 1])
    def test_matches_reference_walk_under_node_budget(self, monkeypatch, name, budget,
                                                      chunk_rows):
        # The budget exit drops the nodes past it whatever the chunk size.
        monkeypatch.setattr(rounding, "ORACLE_CHUNK_ROWS", chunk_rows)
        system, grid, spec = ORACLE_CASES[name]()
        size = oracle_tree_size(name)
        max_nodes = {"n": grid.n_intervals, "size // 2": size // 2, "size - 1": size - 1,
                     "size": size}.get(budget, budget)
        res = self.assert_same_walk(system, grid, spec, max_nodes)
        assert res.proven_optimal == (max_nodes >= size)
        assert res.nodes_explored == min(max_nodes, size)

    # The controlled translines tree has 156 nodes.
    @pytest.mark.parametrize("max_nodes", [13, 100])
    @pytest.mark.parametrize("chunk_rows", [ORACLE_CHUNK_ROWS, 3])
    def test_controlled_leaves_match_reference_walk_under_node_budget(
            self, monkeypatch, max_nodes, chunk_rows):
        monkeypatch.setattr(rounding, "ORACLE_CHUNK_ROWS", chunk_rows)
        res = self.assert_same_walk(*small_controlled_translines(), max_nodes)
        assert not res.proven_optimal
        assert res.nodes_explored == max_nodes
        assert res.best_u is not None

    @pytest.mark.parametrize("max_nodes", [100, 2_000, 20_000])
    def test_budget_exit_steps_little_past_the_budget(self, monkeypatch, max_nodes):
        # Past the first dropped node the walk only finishes the expansions
        # under way, about one chunk per depth; walking the stack's later
        # chunks too would step several times the budget here.
        monkeypatch.setattr(rounding, "ORACLE_CHUNK_ROWS", 3)
        stepped = []

        def counting_step(system, t, y, *rest):
            stepped.append(len(y))
            return _step(system, t, y, *rest)

        monkeypatch.setattr(rounding, "_step", counting_step)
        system, grid, spec = so.build_fuller(so.FullerConfig(0.1, 20))
        res = so.global_oracle(system, grid, spec, max_nodes=max_nodes)
        assert (res.nodes_explored, res.proven_optimal) == (max_nodes, False)
        look_ahead = grid.n_intervals * system.modes.n_modes * 3
        assert max_nodes <= sum(stepped) <= max_nodes + look_ahead

    @pytest.mark.parametrize("max_nodes", [0, 10, 19])
    def test_budget_before_first_leaf_is_a_capacity_error(self, max_nodes):
        # The first complete sequence is node 20 of the walk; the problem is
        # feasible, so running out before it is the budget's doing.
        system, grid, spec = so.build_fuller(so.FullerConfig(0.1, 20))
        with pytest.raises(CapacityError, match="node budget"):
            so.global_oracle(system, grid, spec, max_nodes=max_nodes)
        assert so.global_oracle(system, grid, spec, max_nodes=20).nodes_explored == 20

    def test_node_budget_gives_partial_result(self):
        system, grid, spec = so.build_fuller(so.FullerConfig(0.1, 20))
        res = so.global_oracle(system, grid, spec, max_nodes=50)
        assert not res.proven_optimal
        assert np.isfinite(res.best_value)

    def test_with_continuous_controls_solves_inner_problem(self):
        # Tiny horizon keeps the enumeration small; m_u > 0 triggers the
        # inner best-response solve at every complete sequence.
        sys_small, grid_small, spec_small = small_controlled_translines()
        res = so.global_oracle(sys_small, grid_small, spec_small)
        assert res.proven_optimal
        assert res.best_u is not None
        assert res.best_u.shape == (4, 2)
        # Any fixed-mode evaluation upper-bounds the oracle value: the leaf
        # solves follow the same iterates as this looser one, only further.
        w_const = np.zeros((4, 4))
        w_const[:, 3] = 1.0
        opts = so.RelaxedSolveOptions(stationarity_tol=1e-3, max_iterations=40)
        _, val_const = so.best_response_continuous(sys_small, grid_small, w_const, opts)
        assert res.best_value <= val_const + 1e-9


_GRID4 = so.TimeGrid(0.0, 1.0, 4)
_UNIFORM4 = so.RelaxedControlPath.uniform(_GRID4, 4)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: so.dwell_project(so.BinaryControlPath.constant(_GRID4, [0, 1]),
                                          so.CombinatorialSpec((2,)), _GRID4),
                 id="project-components"),
    pytest.param(lambda: so.dwell_project(so.BinaryControlPath.constant(_GRID4, [1, 1]),
                                          so.CombinatorialSpec((2,), representation=so.MODEWISE),
                                          _GRID4),
                 id="project-modewise-not-onehot"),
    pytest.param(lambda: so.dwell_project_weighted(_UNIFORM4, so.enumerate_modes(1),
                                                   so.CombinatorialSpec((2,)), _GRID4),
                 id="weighted-mode-columns"),
    pytest.param(lambda: so.constrained_ciap(_UNIFORM4, so.CombinatorialSpec((2, 2)), _GRID4),
                 id="ciap-componentwise"),
    pytest.param(lambda: so.global_oracle(make_zero_system(), _GRID4,
                                          so.CombinatorialSpec((2, 2))),
                 id="oracle-components"),
])
def test_rejects_bad_input(build):
    with pytest.raises(so.DimensionError):
        build()


@pytest.mark.parametrize("max_nodes", [None, -1, -5, 2.5, 3.0, True, "10"])
@pytest.mark.parametrize("solver", ["ciap", "oracle"])
def test_node_budget_must_be_a_non_negative_integer(solver, max_nodes):
    spec = so.CombinatorialSpec((2,), representation=so.MODEWISE)
    with pytest.raises(so.DimensionError, match="max_nodes"):
        if solver == "ciap":
            so.constrained_ciap(_UNIFORM4, spec, _GRID4, max_nodes=max_nodes)
        else:
            so.global_oracle(make_zero_system(n_modes=4), _GRID4, spec, max_nodes=max_nodes)


@pytest.mark.parametrize("max_nodes", [0, np.int64(3)])
def test_node_budget_accepts_zero_and_numpy_integers(max_nodes):
    spec = so.CombinatorialSpec((2,), representation=so.MODEWISE)
    res = so.constrained_ciap(_UNIFORM4, spec, _GRID4, max_nodes=max_nodes)
    assert res.nodes_explored == max_nodes
    # The oracle's first complete sequence is node 4 of its walk.
    with pytest.raises(CapacityError, match="node budget"):
        so.global_oracle(make_zero_system(n_modes=4), _GRID4, spec, max_nodes=max_nodes)
