"""Integer-side solvers: rounding, exact dwell projection, and enumeration.

Four solvers share the dwell-lock state machine (current value, length of the
current run, whether that run touches the left boundary, switches used):

* sum-up rounding, the classical greedy integral-gap rounding;
* an exact dynamic program over dwell-feasible value sequences, used both
  for the 1-norm projection of a binary path and for its multiplier-weighted
  generalization;
* best-first branch-and-bound for the dwell-constrained min-max integral
  approximation problem;
* a depth-first global oracle that enumerates every dwell-feasible mode
  sequence on a coarse grid and simulates each one.

All tie-breaks are lowest-index-first so results are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    COMPONENTWISE,
    MODEWISE,
    BinaryControlPath,
    CombinatorialSpec,
    ModeTable,
    RelaxedControlPath,
    TimeGrid,
    onehot_to_binary,
)
from .errors import CapacityError, DimensionError, DivergenceError, InfeasibleError
from .relaxed import RelaxedSolveOptions
from .simulate import SwitchedSystem, _adjoint_values, _integrate_values, _step

MAX_ORACLE_INTERVALS = 32


def sum_up_rounding(w: RelaxedControlPath, grid: TimeGrid) -> RelaxedControlPath:
    """Greedy one-hot rounding that tracks the accumulated control integral.

    At each interval the mode with the largest accumulated integral gap is
    activated (lowest index on ties).  The resulting deviation never exceeds
    (n_modes - 1) times the step.
    """
    if w.grid != grid:
        raise DimensionError("w lives on a different time grid")
    values = w.values
    n, m = values.shape
    chosen = np.zeros((n, m))
    gap = np.zeros(m)
    for k in range(n):
        gap += values[k]
        pick = int(np.argmax(gap))
        chosen[k, pick] = 1.0
        gap[pick] -= 1.0
    return RelaxedControlPath(grid, chosen)


# ---------------------------------------------------------------------------
# Exact dwell-constrained dynamic programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DwellDpTable:
    """Forward table of the dwell-feasible shortest-path problem.

    States are (value, run length saturated at the lock horizon, first-run
    flag, switches used) in lexicographic order; ``costs[k, s]`` is the best
    partial cost of any feasible prefix ending in state s after interval k,
    and ``predecessors[k, s]`` the arg of that minimum (-1 at k = 0).
    """

    states: tuple
    costs: np.ndarray
    predecessors: np.ndarray

    def best_terminal(self) -> int:
        """Lowest-index state of minimal final cost."""
        return int(np.argmin(self.costs[-1]))


class _DwellAutomaton:
    """Transition structure for dwell-feasible sequences over n_values."""

    def __init__(self, n_values: int, min_dwell: int,
                 max_dwell: Optional[int], max_switches: Optional[int]):
        if min_dwell < 1:
            raise DimensionError("min dwell must be >= 1")
        self.n_values = n_values
        self.d = min_dwell
        self.dmax = max_dwell
        self.budget = max_switches
        self.run_cap = (max_dwell + 1) if max_dwell is not None else min_dwell
        used_levels = range(max_switches + 1) if max_switches is not None else (0,)
        self.states = tuple(
            (val, run, first, used)
            for val in range(n_values)
            for run in range(1, self.run_cap + 1)
            for first in (False, True)
            for used in used_levels
        )
        self.index = {s: i for i, s in enumerate(self.states)}
        self.n_states = len(self.states)
        # Per state: index after staying, and list of (new_value, index) after
        # switching (empty when the lock forbids it).
        self.stay = np.empty(self.n_states, dtype=np.int64)
        self.switches = []
        for i, (val, run, first, used) in enumerate(self.states):
            self.stay[i] = self.index[(val, min(run + 1, self.run_cap), first, used)]
            targets = []
            if self._may_switch(run, first, used):
                new_used = min(used + 1, max_switches) if max_switches is not None else 0
                for new_val in range(n_values):
                    if new_val == val:
                        continue
                    targets.append((new_val, self.index[(new_val, 1, False, new_used)]))
            self.switches.append(tuple(targets))

    def _may_switch(self, run: int, first: bool, used: int) -> bool:
        if self.budget is not None and used >= self.budget:
            return False
        if first:
            return True
        if run < self.d:
            return False
        if self.dmax is not None and run > self.dmax:
            return False
        return True

    def initial_state(self, value: int) -> int:
        return self.index[(value, 1, True, 0)]


def _solve_dwell_dp(costs: np.ndarray, automaton: _DwellAutomaton):
    """Exact minimum of sum(costs[k, value_k]) over feasible sequences.

    Returns (value indices, total cost, table).  Ties resolve to the lowest
    state index, scanning predecessors in ascending order with strict
    improvement only.
    """
    n_intervals, n_values = costs.shape
    if n_values != automaton.n_values:
        raise DimensionError("cost table width does not match the automaton")
    inf = np.inf
    table = np.full((n_intervals, automaton.n_states), inf)
    preds = np.full((n_intervals, automaton.n_states), -1, dtype=np.int64)
    for val in range(n_values):
        table[0, automaton.initial_state(val)] = costs[0, val]
    for k in range(1, n_intervals):
        row = table[k - 1]
        new_row = table[k]
        new_pred = preds[k]
        for s in range(automaton.n_states):
            base = row[s]
            if base == inf:
                continue
            val = automaton.states[s][0]
            t = automaton.stay[s]
            cand = base + costs[k, val]
            if cand < new_row[t]:
                new_row[t] = cand
                new_pred[t] = s
            for new_val, t in automaton.switches[s]:
                cand = base + costs[k, new_val]
                if cand < new_row[t]:
                    new_row[t] = cand
                    new_pred[t] = s
    dp = DwellDpTable(automaton.states, table, preds)
    best = dp.best_terminal()
    total = float(table[-1, best])
    if not np.isfinite(total):
        raise InfeasibleError("no dwell-feasible sequence exists on this grid")
    sequence = np.empty(n_intervals, dtype=np.int64)
    s = best
    for k in range(n_intervals - 1, -1, -1):
        sequence[k] = automaton.states[s][0]
        s = preds[k, s]
    return sequence, total, dp


def _component_params(spec: CombinatorialSpec, c: int):
    return (
        spec.min_dwell[c],
        None if spec.max_dwell is None else spec.max_dwell[c],
        None if spec.max_switches is None else spec.max_switches[c],
    )


def dwell_project(v: BinaryControlPath, spec: CombinatorialSpec,
                  grid: TimeGrid) -> BinaryControlPath:
    """Closest dwell-feasible binary path in the integrated 1-norm.

    Componentwise specs decompose into independent per-component dynamic
    programs; modewise specs run a single program over the one-hot columns.
    The returned path attains the global minimum of the projection cost.
    """
    if v.grid != grid:
        raise DimensionError("v lives on a different time grid")
    h = grid.step
    n = grid.n_intervals
    if spec.representation == COMPONENTWISE:
        if v.n_components != spec.n_components:
            raise DimensionError(
                f"path has {v.n_components} components, spec has {spec.n_components}"
            )
        out = np.empty((n, v.n_components), dtype=np.int64)
        for c in range(v.n_components):
            column = v.values[:, c]
            costs = np.empty((n, 2))
            costs[:, 0] = h * column
            costs[:, 1] = h * (1 - column)
            automaton = _DwellAutomaton(2, *_component_params(spec, c))
            seq, _, _ = _solve_dwell_dp(costs, automaton)
            out[:, c] = seq
        return BinaryControlPath(grid, out)
    # Modewise: one DP over the selected-index sequence; indicator columns
    # differ in two entries, so each mismatched interval costs 2h.
    m = v.n_components
    selected = v.values.argmax(axis=1)
    if not ((v.values == 1).sum(axis=1) == 1).all():
        raise DimensionError("modewise projection needs one-hot rows")
    costs = np.full((n, m), 2.0 * h)
    costs[np.arange(n), selected] = 0.0
    automaton = _DwellAutomaton(m, *_component_params(spec, 0))
    seq, _, _ = _solve_dwell_dp(costs, automaton)
    out = np.zeros((n, m), dtype=np.int64)
    out[np.arange(n), seq] = 1
    return BinaryControlPath(grid, out)


def dwell_project_weighted(w: RelaxedControlPath, modes: ModeTable,
                           spec: CombinatorialSpec, grid: TimeGrid) -> BinaryControlPath:
    """Exact minimizer over the constraint set of the multiplier-weighted gap.

    Minimizes step * sum_k sum_i w[k, i] |r^i - v_k|_1, which collapses to
    the plain projection when w is one-hot.  This is the projection step the
    alternating method uses in both variants.
    """
    if w.grid != grid:
        raise DimensionError("w lives on a different time grid")
    if w.n_modes != modes.n_modes:
        raise DimensionError("w columns do not match the mode table")
    h = grid.step
    n = grid.n_intervals
    if spec.representation == COMPONENTWISE:
        if spec.n_components != modes.n_switches:
            raise DimensionError(
                f"spec has {spec.n_components} components, modes have "
                f"{modes.n_switches}"
            )
        marginals = w.values @ modes.values.astype(np.float64)  # (N, M)
        out = np.empty((n, modes.n_switches), dtype=np.int64)
        for c in range(modes.n_switches):
            p = marginals[:, c]
            costs = np.column_stack((h * p, h * (1.0 - p)))
            automaton = _DwellAutomaton(2, *_component_params(spec, c))
            seq, _, _ = _solve_dwell_dp(costs, automaton)
            out[:, c] = seq
        return BinaryControlPath(grid, out)
    pairwise = np.abs(
        modes.values[:, None, :] - modes.values[None, :, :]
    ).sum(axis=2)  # (M̃, M̃) 1-norm distances between configurations
    costs = h * (w.values @ pairwise.astype(np.float64))
    automaton = _DwellAutomaton(modes.n_modes, *_component_params(spec, 0))
    seq, _, _ = _solve_dwell_dp(costs, automaton)
    return BinaryControlPath(grid, modes.values[seq])


# ---------------------------------------------------------------------------
# Dwell-constrained combinatorial integral approximation (branch and bound)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CiapResult:
    control: RelaxedControlPath
    deviation: float
    nodes_explored: int
    proven_optimal: bool


def _ciap_scalars(spec: CombinatorialSpec, n_modes: int):
    if spec.representation == MODEWISE:
        return _component_params(spec, 0)
    if spec.n_components == 1 and n_modes == 2:
        # Single binary component: value switches and mode switches coincide.
        return _component_params(spec, 0)
    raise DimensionError(
        "constrained CIAP needs a modewise spec (or a single-component "
        "componentwise spec over two modes)"
    )


def constrained_ciap(w: RelaxedControlPath, spec: CombinatorialSpec,
                     grid: TimeGrid, max_nodes: int = 1_000_000) -> CiapResult:
    """Dwell-feasible one-hot path of provably minimal integral deviation.

    Best-first branch and bound over interval assignments.  The running
    maximum of the accumulated integral gap is an exact lower bound because
    the objective is non-decreasing in the prefix, so the first completed
    assignment popped from the frontier is optimal.  Bound ties prefer
    deeper nodes and then earlier creation, which dives to good incumbents
    quickly; expansions enumerate modes in ascending index order.
    """
    if w.grid != grid:
        raise DimensionError("w lives on a different time grid")
    n = grid.n_intervals
    m = w.n_modes
    h = grid.step
    d, dmax, budget = _ciap_scalars(spec, m)
    run_cap = (dmax + 1) if dmax is not None else d
    values = w.values

    # Node storage: parents[i] = (parent index, mode at this node's interval).
    parents = []
    heap = []
    counter = itertools.count()
    incumbent = None  # (deviation, node index)
    pops = 0

    def push(depth, mode, run, first, used, gamma, bound, parent):
        node_id = len(parents)
        parents.append((parent, mode))
        heapq.heappush(
            heap, (bound, -depth, next(counter), node_id, mode, run, first, used, gamma)
        )

    def reconstruct(node_id):
        seq = []
        while node_id >= 0:
            parent, mode = parents[node_id]
            seq.append(mode)
            node_id = parent
        seq.reverse()
        out = np.zeros((n, m))
        out[np.arange(n), np.array(seq, dtype=np.int64)] = 1.0
        return out

    for mode in range(m):
        gamma = (values[0] - np.eye(m)[mode]) * h
        bound = float(np.abs(gamma).max())
        push(0, mode, 1, True, 0, tuple(gamma), bound, -1)

    best_leaf = None
    proven = False
    while heap:
        if pops >= max_nodes:
            break
        bound, neg_depth, _, node_id, mode, run, first, used, gamma = heapq.heappop(heap)
        pops += 1
        depth = -neg_depth
        if incumbent is not None and bound > incumbent[0]:
            continue
        if depth == n - 1:
            best_leaf = (bound, node_id)
            proven = True
            break
        k = depth + 1
        wk = values[k]
        may_switch = (
            (first or (run >= d and (dmax is None or run <= dmax)))
            and (budget is None or used < budget)
        )
        for new_mode in range(m):
            if new_mode == mode:
                new_run = min(run + 1, run_cap)
                new_first, new_used = first, used
            else:
                if not may_switch:
                    continue
                new_run, new_first = 1, False
                new_used = used + 1 if budget is not None else 0
            new_gamma = tuple(
                g + (wk[i] - (1.0 if i == new_mode else 0.0)) * h
                for i, g in enumerate(gamma)
            )
            new_bound = max(bound, max(abs(g) for g in new_gamma))
            if incumbent is not None and new_bound >= incumbent[0]:
                continue
            if k == n - 1:
                incumbent = (new_bound, len(parents))
            push(k, new_mode, new_run, new_first, new_used, new_gamma, new_bound, node_id)

    if best_leaf is None:
        if incumbent is None:
            # Budget ran out before any complete assignment: finish the best
            # frontier node by holding its mode, which is always feasible.
            if not heap:
                raise InfeasibleError("no dwell-feasible assignment was reached")
            bound, neg_depth, _, node_id, mode, run, first, used, gamma = heap[0]
            gamma = np.asarray(gamma)
            for k in range(-neg_depth + 1, n):
                gamma = gamma + (values[k] - np.eye(m)[mode]) * h
                bound = max(bound, float(np.abs(gamma).max()))
                parents.append((node_id, mode))
                node_id = len(parents) - 1
            incumbent = (bound, node_id)
        # Heap exhausted: everything remaining was pruned against the
        # incumbent, so its value is optimal; budget exits stay unproven.
        best_leaf = incumbent
        proven = pops < max_nodes and not heap

    deviation, node_id = best_leaf
    control = RelaxedControlPath(grid, reconstruct(node_id))
    return CiapResult(
        control=control,
        deviation=float(deviation),
        nodes_explored=pops,
        proven_optimal=proven,
    )


# ---------------------------------------------------------------------------
# Global enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleResult:
    best_control: BinaryControlPath
    best_value: float
    nodes_explored: int
    proven_optimal: bool
    best_u: Optional[np.ndarray] = None


def _mode_transition_allowed(spec, modes, prev_row, new_row, runs, firsts, used):
    """Check one interval transition against componentwise dwell locks."""
    for c in range(modes.n_switches):
        if prev_row[c] != new_row[c]:
            if spec.max_switches is not None and used[c] >= spec.max_switches[c]:
                return False
            if firsts[c]:
                continue
            if runs[c] < spec.min_dwell[c]:
                return False
            if spec.max_dwell is not None and runs[c] > spec.max_dwell[c]:
                return False
    return True


def best_response_continuous(system: SwitchedSystem, grid: TimeGrid,
                             w_values: np.ndarray,
                             options: RelaxedSolveOptions = RelaxedSolveOptions()):
    """Minimize the objective over box-bounded continuous controls only.

    Projected gradient in u with the mode multipliers held fixed; returns
    (u values, objective value).  Used by the oracle at enumeration leaves.
    """
    lo, hi = system.control_lower, system.control_upper
    u_vals = np.repeat(((lo + hi) / 2.0)[None, :], grid.n_intervals, axis=0)
    if system.control_dim == 0:
        states = _integrate_values(system, grid, u_vals, w_values)
        return u_vals, float(system.terminal_cost(states[-1]))

    def value_grad(u):
        val, gu, _ = _adjoint_values(system, grid, u, w_values, None)
        return val, gu

    fx, grad = value_grad(u_vals)
    step = options.initial_step
    prev = None
    for _ in range(options.max_iterations):
        proj = np.clip(u_vals - grad, lo, hi)
        if float(np.abs(proj - u_vals).max()) <= options.stationarity_tol:
            break
        if prev is not None:
            s = u_vals - prev[0]
            y = grad - prev[1]
            sy = float((s * y).sum())
            if sy > 1e-300:
                step = min(max(float((s * s).sum()) / sy, 1e-12), 1e8)
        t = step
        accepted = False
        while t >= 1e-14:
            u_new = np.clip(u_vals - t * grad, lo, hi)
            decrease = float((grad * (u_new - u_vals)).sum())
            if decrease >= -1e-300:
                break
            try:
                states = _integrate_values(system, grid, u_new, w_values)
            except DivergenceError:
                f_new = np.inf  # a trial that blows up fails like an Armijo test
            else:
                f_new = float(system.terminal_cost(states[-1]))
            if f_new <= fx + options.armijo_c * decrease:
                accepted = True
                break
            t *= options.backtrack_factor
        if not accepted:
            break
        prev = (u_vals, grad)
        u_vals, step = u_new, t
        fx, grad = value_grad(u_vals)
    return u_vals, fx


def global_oracle(system: SwitchedSystem, grid_coarse: TimeGrid,
                  spec: CombinatorialSpec,
                  inner_solver: Optional[Callable] = None,
                  max_nodes: int = 10_000_000) -> OracleResult:
    """Exhaustive search over dwell-feasible mode sequences on a coarse grid.

    Depth-first enumeration in ascending mode-index order; each feasible
    partial sequence advances the simulation by one interval, so complete
    sequences are evaluated incrementally.  With continuous controls present
    every complete sequence additionally minimizes over them.  The best value
    is the exact discretized global optimum once enumeration completes.
    """
    n = grid_coarse.n_intervals
    if n > MAX_ORACLE_INTERVALS:
        raise CapacityError(
            f"oracle grids are capped at {MAX_ORACLE_INTERVALS} intervals, got {n}"
        )
    modes = system.modes
    m = modes.n_modes
    if spec.representation == MODEWISE:
        d, dmax, budget = _component_params(spec, 0)
    elif spec.n_components != modes.n_switches:
        raise DimensionError("componentwise spec does not match the mode table")

    has_u = system.control_dim > 0
    solve_leaf = inner_solver or (
        lambda w_values: best_response_continuous(system, grid_coarse, w_values)
    )
    h = grid_coarse.step
    u_stub = np.zeros(system.control_dim)

    onehot_rows = np.eye(m)

    best_value = np.inf
    best_sequence = None
    best_u = None
    nodes = 0
    truncated = False

    # Stack entries: (depth, mode, runs, firsts, used, state-after-interval)
    stack = []
    modewise = spec.representation == MODEWISE
    n_comp = 1 if modewise else modes.n_switches
    for mode in range(m - 1, -1, -1):
        y1 = None if has_u else _step(
            system, grid_coarse.node(0), system.initial_state, u_stub, onehot_rows[mode], h
        )[0]
        stack.append((0, (mode,), (1,) * n_comp, (True,) * n_comp, (0,) * n_comp, y1))

    while stack:
        if nodes >= max_nodes:
            truncated = True
            break
        depth, seq, runs, firsts, used, y = stack.pop()
        nodes += 1
        if depth == n - 1:
            if has_u:
                w_values = onehot_rows[np.array(seq)]
                u_vals, value = solve_leaf(w_values)
            else:
                u_vals = None
                value = float(system.terminal_cost(y))
            if value < best_value:
                best_value = value
                best_sequence = seq
                best_u = u_vals
            continue
        k = depth + 1
        prev_mode = seq[-1]
        children = []
        for mode in range(m):
            if modewise:
                if mode == prev_mode:
                    nr, nf, nu = (runs[0] + 1,), firsts, used
                else:
                    ok = (firsts[0] or (
                        runs[0] >= d and (dmax is None or runs[0] <= dmax)
                    )) and (budget is None or used[0] < budget)
                    if not ok:
                        continue
                    nr, nf = (1,), (False,)
                    nu = (used[0] + 1,)
            else:
                prev_row = modes.values[prev_mode]
                new_row = modes.values[mode]
                if not _mode_transition_allowed(
                    spec, modes, prev_row, new_row, runs, firsts, used
                ):
                    continue
                nr = tuple(
                    runs[c] + 1 if prev_row[c] == new_row[c] else 1
                    for c in range(n_comp)
                )
                nf = tuple(
                    firsts[c] if prev_row[c] == new_row[c] else False
                    for c in range(n_comp)
                )
                nu = tuple(
                    used[c] + (prev_row[c] != new_row[c]) for c in range(n_comp)
                )
            y_next = None if has_u else _step(
                system, grid_coarse.node(k), y, u_stub, onehot_rows[mode], h
            )[0]
            children.append((k, seq + (mode,), nr, nf, nu, y_next))
        stack.extend(reversed(children))  # pop order = ascending mode index

    if best_sequence is None:
        raise InfeasibleError("oracle found no feasible mode sequence")
    onehot = onehot_rows[np.array(best_sequence)]
    control = onehot_to_binary(RelaxedControlPath(grid_coarse, onehot), modes)
    return OracleResult(
        best_control=control,
        best_value=float(best_value),
        nodes_explored=nodes,
        proven_optimal=not truncated,
        best_u=best_u,
    )
