"""Integer-side solvers: rounding, exact dwell projection, and enumeration.

Three of the four solvers walk one dwell-lock automaton, ``_DwellAutomaton``,
whose states are (current value, length of the current run, whether that run
touches the left boundary, switches used) and whose ``next_state`` table is
the only encoding of the dwell rule:

* sum-up rounding, the classical greedy integral-gap rounding (no lock);
* an exact dynamic program over dwell-feasible value sequences, used both
  for the 1-norm projection of a binary path and for its multiplier-weighted
  generalization;
* best-first branch-and-bound for the dwell-constrained min-max integral
  approximation problem;
* a global oracle that enumerates every dwell-feasible mode sequence on a
  coarse grid in lexicographic order, simulating chunks of sibling prefixes
  with one batched step each.

``core._run_violations`` stays an independent checker of the same rule.
All tie-breaks are lowest-index-first so results are deterministic.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from operator import add
from typing import Optional

import numpy as np

from .core import (
    COMPONENTWISE,
    MODEWISE,
    BinaryControlPath,
    CombinatorialSpec,
    ModeTable,
    RelaxedControlPath,
    TimeGrid,
    _check_grid,
    _check_table_width,
    _check_width,
    _is_int,
)
from .errors import CapacityError, DimensionError, InfeasibleError
from .relaxed import best_response_continuous
from .simulate import SwitchedSystem, _step
# Unused here; bench/tracing.py wraps the sweeps under these names in this module.
from .simulate import _adjoint_values, _integrate_values  # noqa: F401

MAX_ORACLE_INTERVALS = 32
# Most frontier rows the oracle advances with one batched step.
ORACLE_CHUNK_ROWS = 1024


def sum_up_rounding(w: RelaxedControlPath, grid: TimeGrid) -> RelaxedControlPath:
    """Greedy one-hot rounding that tracks the accumulated control integral.

    At each interval the mode with the largest accumulated integral gap is
    activated (lowest index on ties).  The resulting deviation never exceeds
    (n_modes - 1) times the step.
    """
    _check_grid(w.grid, grid, "w")
    gap = np.zeros(w.n_modes)
    picks = []
    for row in w.values:
        gap += row
        picks.append(int(np.argmax(gap)))
        gap[picks[-1]] -= 1.0
    return RelaxedControlPath(grid, np.eye(w.n_modes)[picks])


# ---------------------------------------------------------------------------
# Exact dwell-constrained dynamic programming
# ---------------------------------------------------------------------------


class _DwellAutomaton:
    """The dwell lock as a finite automaton over n_values.

    State s is (value, run, first, used): the current value, the length of
    its run (capped one past the maximum dwell, or at the minimum dwell),
    whether that run touches the left boundary, and the switches used, with
    s = ((value * run_cap + run - 1) * 2 + first) * levels + used.
    ``next_state[s, v]`` is the state after taking value v, or -1 where the
    lock forbids that switch; ``values[s]`` is the value of state s and
    ``initial_state[v]`` the state of a first interval with value v.
    """

    def __init__(self, n_values: int, min_dwell: int,
                 max_dwell: Optional[int], max_switches: Optional[int]):
        run_cap = (max_dwell + 1) if max_dwell is not None else min_dwell
        levels = 1 if max_switches is None else max_switches + 1
        value, run, first, used = np.indices((n_values, run_cap, 2, levels)).reshape(4, -1)
        run += 1
        self.n_values = n_values
        self.n_states = value.size
        self.values = value
        self.initial_state = (np.arange(n_values) * run_cap * 2 + 1) * levels
        # A run touching the left boundary may end at any length; an inner
        # run only inside its dwell window.  Each switch spends one unit of
        # the budget, if there is one, and starts an inner run of length 1.
        may_switch = (first == 1) | (run >= min_dwell)
        if max_dwell is not None:
            may_switch &= (first == 1) | (run <= max_dwell)
        if max_switches is not None:
            may_switch &= used < max_switches
        spent = used + (max_switches is not None)
        switch_to = np.arange(n_values) * (run_cap * 2 * levels) + spent[:, None]
        self.next_state = np.where(may_switch[:, None], switch_to, -1)
        stay_run = np.minimum(run + 1, run_cap)
        self.next_state[np.arange(self.n_states), value] = (
            ((value * run_cap + stay_run - 1) * 2 + first) * levels + used
        )

    def predecessor_groups(self) -> tuple:
        """The successor table read backwards, one group per predecessor count.

        Each group is (targets, their values, sources), where row r of
        ``sources`` lists the predecessors of ``targets[r]`` in ascending
        order.  States without predecessors are in no group.
        """
        sources, taken = np.nonzero(self.next_state >= 0)
        targets = self.next_state[sources, taken]
        order = np.argsort(targets, kind="stable")
        sources = sources[order]
        counts = np.bincount(targets, minlength=self.n_states)
        starts = np.cumsum(counts) - counts
        groups = []
        for count in dict.fromkeys(counts[counts > 0].tolist()):
            group = np.flatnonzero(counts == count)
            groups.append((group, self.values[group],
                           sources[starts[group, None] + np.arange(count)]))
        return tuple(groups)


def _solve_dwell_dp(costs: np.ndarray, automaton: _DwellAutomaton) -> np.ndarray:
    """Value sequence minimizing sum(costs[k, value_k]) over feasible sequences.

    ``row[s]`` is the least cost of a feasible prefix ending in automaton
    state s after the current interval, and ``preds[k, s]`` the state before
    it.  Ties resolve to the lowest state index: each target's candidate sums
    ``row[source] + cost`` are formed over its predecessors in ascending order
    and the first least one is kept, which is what a scan with strict
    improvement keeps (the sums come before the min because fl(base + c) can
    tie for distinct bases); the walk back starts from the lowest-index
    terminal state of least cost.  Only the current row is kept, and each
    group gathers its targets' costs from the current interval's row.
    """
    n_intervals = costs.shape[0]
    # preds has the narrowest signed type holding every state and -1; its
    # writes copy from sources cast once to that type, while row is gathered
    # with the intp sources (a narrow index array gathers more slowly).
    pred_type = np.min_scalar_type(-automaton.n_states)
    groups = [
        (targets, sources, sources.astype(pred_type), np.arange(len(targets)),
         values[:, None])
        for targets, values, sources in automaton.predecessor_groups()
    ]
    row = np.full(automaton.n_states, np.inf)
    row[automaton.initial_state] = costs[0]
    preds = np.full((n_intervals, automaton.n_states), -1, dtype=pred_type)
    for k in range(1, n_intervals):
        new_row = np.full(automaton.n_states, np.inf)
        new_pred = preds[k]
        cost = costs[k]
        for targets, sources, pred_sources, rows, target_values in groups:
            cand = row[sources] + cost[target_values]
            if sources.shape[1] == 1:
                # One candidate per target: nothing to compare.
                new_row[targets] = cand[:, 0]
                new_pred[targets] = pred_sources[:, 0]
                continue
            j = cand.argmin(axis=1)
            new_row[targets] = cand[rows, j]
            new_pred[targets] = pred_sources[rows, j]
        row = new_row
    s = int(np.argmin(row))
    sequence = np.empty(n_intervals, dtype=np.int64)
    for k in range(n_intervals - 1, -1, -1):
        sequence[k] = automaton.values[s]
        s = int(preds[k, s])
    return sequence


def _project_bits(p: np.ndarray, spec: CombinatorialSpec, h: float) -> np.ndarray:
    """Per-component dwell projection of bit weights ``p`` (one column each).

    Column c of the result minimizes h * sum_k |bit_k - p[k, c]| under
    component c's rule; the components are independent programs.
    """
    out = np.empty(p.shape, dtype=np.int64)
    for c in range(p.shape[1]):
        costs = np.column_stack((h * p[:, c], h * (1.0 - p[:, c])))
        out[:, c] = _solve_dwell_dp(costs, _DwellAutomaton(2, *spec.component(c)))
    return out


def dwell_project(v: BinaryControlPath, spec: CombinatorialSpec,
                  grid: TimeGrid) -> BinaryControlPath:
    """Closest dwell-feasible binary path in the integrated 1-norm.

    Componentwise specs decompose into independent per-component dynamic
    programs.  A modewise indicator path is the weighted projection of its
    own one-hot rows over the indicator modes, whose configurations differ
    in two entries, so each mismatched interval costs 2h.  The returned path
    attains the global minimum of the projection cost.
    """
    _check_grid(v.grid, grid, "v")
    _check_width(spec, v.n_components, "path")
    if spec.representation == COMPONENTWISE:
        return BinaryControlPath(grid, _project_bits(v.values, spec, grid.step))
    if not ((v.values == 1).sum(axis=1) == 1).all():
        raise DimensionError("modewise projection needs one-hot rows")
    indicators = ModeTable(np.eye(v.n_components, dtype=np.int64))
    return dwell_project_weighted(RelaxedControlPath(grid, v.values), indicators, spec, grid)


def dwell_project_weighted(w: RelaxedControlPath, modes: ModeTable,
                           spec: CombinatorialSpec, grid: TimeGrid) -> BinaryControlPath:
    """Exact minimizer over the constraint set of the multiplier-weighted gap.

    Minimizes step * sum_k sum_i w[k, i] |r^i - v_k|_1, which collapses to
    the plain projection when w is one-hot.  This is the projection step the
    alternating method uses in both variants.
    """
    _check_grid(w.grid, grid, "w")
    _check_table_width(w, modes)
    _check_width(spec, modes.n_switches, "mode table")
    h = grid.step
    if spec.representation == COMPONENTWISE:
        marginals = w.values @ modes.values.astype(np.float64)  # (N, M)
        return BinaryControlPath(grid, _project_bits(marginals, spec, h))
    pairwise = np.abs(
        modes.values[:, None, :] - modes.values[None, :, :]
    ).sum(axis=2)  # (M̃, M̃) 1-norm distances between configurations
    costs = h * (w.values @ pairwise.astype(np.float64))
    seq = _solve_dwell_dp(costs, _DwellAutomaton(modes.n_modes, *spec.component(0)))
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


def _ciap_admissible(spec: CombinatorialSpec, n_modes: int) -> bool:
    """Whether constrained CIAP can enforce ``spec`` on mode sequences: it is
    modewise, or one binary component over two modes, whose value switches
    and mode switches coincide."""
    return spec.representation == MODEWISE or (spec.n_components == 1 and n_modes == 2)


def _check_max_nodes(max_nodes) -> None:
    """A node budget is a non-negative integer (not a bool)."""
    if not (_is_int(max_nodes) and max_nodes >= 0):
        raise DimensionError(f"max_nodes must be an integer >= 0, got {max_nodes!r}")


def constrained_ciap(w: RelaxedControlPath, spec: CombinatorialSpec,
                     grid: TimeGrid, max_nodes: int = 1_000_000) -> CiapResult:
    """Dwell-feasible one-hot path of provably minimal integral deviation.

    Best-first branch and bound over interval assignments.  The running
    maximum of the accumulated integral gap is an exact lower bound because
    the objective is non-decreasing in the prefix, so the first completed
    assignment popped from the frontier is optimal.  Bound ties prefer
    deeper nodes and then earlier creation, which dives to good incumbents
    quickly; expansions enumerate modes in ascending index order.  The
    frontier never empties (a popped inner node pushes its always-allowed
    stay child unless the incumbent, whose leaf is still queued, prunes it),
    so the search ends at a popped leaf or when ``max_nodes`` pops are spent.
    """
    _check_max_nodes(max_nodes)
    _check_grid(w.grid, grid, "w")
    n = grid.n_intervals
    m = w.n_modes
    h = grid.step
    if not _ciap_admissible(spec, m):
        raise DimensionError(
            "constrained CIAP needs a modewise spec (or a single-component "
            "componentwise spec over two modes)"
        )
    automaton = _DwellAutomaton(m, *spec.component(0))
    # successors[s]: the (mode, next state) pairs of state s, in mode order.
    successors = [
        [(mode, t) for mode, t in enumerate(row) if t >= 0]
        for row in automaton.next_state.tolist()
    ]
    # steps[k][mode]: the gap increment of taking mode on interval k, as
    # Python floats (the same IEEE operations, without numpy scalars).
    steps = ((w.values[:, None, :] - np.eye(m)) * h).tolist()

    # Node storage: origin[i] = parent id * m + mode at node i's interval,
    # one machine integer per node (a root's parent id is -1, so divmod by m
    # decodes every node).  Heap keys (bound, -depth, node id, state, gamma)
    # are unique, so the pop order does not depend on where a key is stored:
    # the least child of the last expansion is held out of the heap, and
    # ``heappushpop`` returns it untouched whenever it is below ``heap[0]``.
    origin = array("q")
    heap = []
    held = None
    incumbent = None  # (deviation, node index)
    pops = 0

    def reconstruct(node_id):
        seq = []
        while node_id >= 0:
            node_id, mode = divmod(origin[node_id], m)
            seq.append(mode)
        return np.eye(m)[seq[::-1]]

    for mode in range(m):
        gamma = tuple(steps[0][mode])
        origin.append(mode - m)
        heap.append((max(map(abs, gamma)), 0, mode, int(automaton.initial_state[mode]), gamma))
    heapq.heapify(heap)

    best_leaf = None
    while pops < max_nodes:
        node = heapq.heappop(heap) if held is None else heapq.heappushpop(heap, held)
        bound, neg_depth, node_id, state, gamma = node
        held = None
        pops += 1
        depth = -neg_depth
        if depth == n - 1:
            best_leaf = (bound, node_id)
            break
        k = depth + 1
        neg_k = -k
        base = node_id * m
        step_k = steps[k]
        for new_mode, new_state in successors[state]:
            new_gamma = tuple(map(add, gamma, step_k[new_mode]))
            new_bound = max(bound, max(map(abs, new_gamma)))
            if incumbent is not None and new_bound >= incumbent[0]:
                continue
            child = (new_bound, neg_k, len(origin), new_state, new_gamma)
            if k == n - 1:
                incumbent = (new_bound, child[2])
            origin.append(base + new_mode)
            # Siblings share a depth and ids ascend: only a lower bound is less.
            if held is None or new_bound < held[0]:
                held, child = child, held
            if child is not None:
                heapq.heappush(heap, child)

    proven = best_leaf is not None
    if not proven:
        if incumbent is None:
            # Budget ran out before any complete assignment: finish the best
            # frontier node by holding its mode, which is always feasible.
            if held is not None:
                heapq.heappush(heap, held)
            bound, neg_depth, node_id, state, gamma = heap[0]
            mode = automaton.values[state]
            for k in range(-neg_depth + 1, n):
                gamma = tuple(map(add, gamma, steps[k][mode]))
                bound = max(bound, max(map(abs, gamma)))
                origin.append(node_id * m + mode)
                node_id = len(origin) - 1
            incumbent = (bound, node_id)
        best_leaf = incumbent

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


def global_oracle(system: SwitchedSystem, grid_coarse: TimeGrid,
                  spec: CombinatorialSpec, max_nodes: int = 10_000_000) -> OracleResult:
    """Exhaustive search over dwell-feasible mode sequences on a coarse grid.

    Depth-first over chunks of at most ``ORACLE_CHUNK_ROWS`` sibling prefixes:
    a chunk's children are its rows' allowed modes in (row, mode) order,
    advanced one interval by one batched step and pushed as chunks in
    reverse, so complete sequences are reached in lexicographic order and
    the first least value wins.  With continuous controls present every
    complete sequence additionally minimizes over them.  The best value is
    the exact discretized global optimum once enumeration completes.

    The budget admits the first ``max_nodes`` nodes of the tree in preorder.
    Each depth's nodes are created in lexicographic order, so a new node's
    rank among its depth is the count created there before it, and
    ``pre = pre[parent] + 1 + rank`` (a root's is its mode) is its preorder
    index for a complete sequence and a lower bound on it otherwise.  A node
    with ``pre >= max_nodes`` lies past the budget, as does every node after
    it; the walk drops it and its unwalked successors and reports
    ``nodes_explored=max_nodes`` with ``proven_optimal=False``, the best
    complete sequence among those first nodes.  A budget spent before the
    first complete sequence raises ``CapacityError``.
    """
    _check_max_nodes(max_nodes)
    n = grid_coarse.n_intervals
    if n > MAX_ORACLE_INTERVALS:
        raise CapacityError(
            f"oracle grids are capped at {MAX_ORACLE_INTERVALS} intervals, got {n}"
        )
    modes = system.modes
    m = modes.n_modes
    _check_width(spec, modes.n_switches, "mode table")
    # (automaton, each mode's value in it) per constrained component: the
    # mode index for a modewise spec, one switch's bits per componentwise one.
    if spec.representation == MODEWISE:
        locks = [(_DwellAutomaton(m, *spec.component(0)), np.arange(m))]
    else:
        locks = [(_DwellAutomaton(2, *spec.component(c)), modes.values[:, c])
                 for c in range(spec.n_components)]
    # tables[c][s, mode]: automaton c's successor of state s on that mode's value.
    tables = [a.next_state[:, values] for a, values in locks]
    initial = np.column_stack([a.initial_state[values] for a, values in locks])

    def expand(states):
        """(parent row, mode, joint state) of each child of (B, C) joint
        states, in row-major order: the modes every component's lock allows."""
        following = np.stack(
            [table[states[:, c]] for c, table in enumerate(tables)], axis=-1
        )
        rows, taken = np.nonzero((following >= 0).all(-1))
        return rows, taken, following[rows, taken]

    has_u = system.control_dim > 0
    h = grid_coarse.step
    onehot_rows = np.eye(m)

    def advance(k, ys, rows, taken):
        """States after interval k of the children (rows, taken) of ``ys``;
        with continuous controls the leaves simulate, so none are kept."""
        if has_u:
            return None
        return _step(system, grid_coarse.node(k), ys[rows], np.zeros((len(rows), 0)),
                     onehot_rows[taken], h)[0]

    # Stack entries: (mode sequences, joint automaton states, states after
    # the last interval, preorder bounds), one row per node of the chunk.
    stack = []
    truncated = False

    def push(seqs, states, ys, pre):
        """Push the new nodes with pre under the budget as chunks; others truncate."""
        nonlocal truncated
        kept = int(np.searchsorted(pre, max_nodes))
        if kept < len(pre):
            # Everything on the stack comes after the first dropped node.
            truncated = True
            stack.clear()
        for start in reversed(range(0, kept, ORACLE_CHUNK_ROWS)):
            rows = slice(start, min(start + ORACLE_CHUNK_ROWS, kept))
            stack.append((seqs[rows], states[rows], None if ys is None else ys[rows], pre[rows]))

    first = np.arange(m)
    push(first.astype(np.min_scalar_type(m - 1))[:, None], initial,
         advance(0, system.initial_state[None], np.zeros(m, dtype=np.int64), first), first)

    best_value = np.inf
    best_sequence = None
    best_u = None
    nodes = 0
    # ranks[k]: nodes of depth k (k + 1 intervals) created so far.
    ranks = [0] * n
    while stack:
        seqs, states, ys, pre = stack.pop()
        nodes += len(seqs)
        k = seqs.shape[1]
        if k < n:
            rows, taken, children = expand(states)
            child_pre = pre[rows] + 1 + ranks[k] + np.arange(len(rows))
            ranks[k] += len(rows)
            push(np.column_stack((seqs[rows], taken.astype(seqs.dtype))), children,
                 advance(k, ys, rows, taken), child_pre)
            continue
        for i, seq in enumerate(seqs):
            if has_u:
                u_vals, value = best_response_continuous(system, grid_coarse, onehot_rows[seq])
            else:
                u_vals = None
                value = float(system.terminal_cost(ys[i]))
            if value < best_value:
                best_value = value
                best_sequence = seq
                best_u = u_vals

    if best_sequence is None:
        if truncated:
            raise CapacityError(
                f"the oracle's node budget of {max_nodes} ran out before the first "
                "complete mode sequence"
            )
        raise InfeasibleError("no complete mode sequence has a value below infinity")
    return OracleResult(
        best_control=BinaryControlPath(grid_coarse, modes.values[best_sequence]),
        best_value=float(best_value),
        nodes_explored=int(max_nodes) if truncated else nodes,
        proven_optimal=not truncated,
        best_u=best_u,
    )
