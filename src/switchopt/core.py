"""Grids, control-path representations, and time-coupling switching constraints.

The controls of a switched system live on a shared uniform time grid and come
in three flavours: binary switching signals (one column per switch), relaxed
convex multipliers over enumerated switch configurations (one column per
mode, rows on the probability simplex), and box-bounded continuous controls.
`CombinatorialSpec` captures dwell-time and switch-budget restrictions in
interval units, and `check_feasible` verifies them exactly on integer data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    RepresentationError,
)

SOS1_TOL = 1e-12

#: Hard cap on full mode enumeration (2**M rows).
MAX_ENUMERATED_SWITCHES = 16


def _is_int(x) -> bool:
    """True for Python and numpy integers; a bool is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into n_intervals pieces."""

    t_start: float
    t_end: float
    n_intervals: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise DimensionError(
                f"grid ends must be finite, got [{self.t_start}, {self.t_end}]"
            )
        if not self.t_end > self.t_start:
            raise DimensionError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})"
            )
        if not _is_int(self.n_intervals) or self.n_intervals < 1:
            raise DimensionError(
                f"n_intervals must be an integer >= 1, got {self.n_intervals!r}"
            )

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.n_intervals

    @property
    def horizon(self) -> float:
        return self.t_end - self.t_start

    def node(self, k: int) -> float:
        return self.t_start + k * self.step

    def nodes(self) -> np.ndarray:
        """All n_intervals + 1 grid nodes, strictly increasing."""
        return self.t_start + self.step * np.arange(self.n_intervals + 1)


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Ordered list of distinct binary switch configurations.

    Row i holds the configuration vector of mode i.  Built by full
    enumeration the table contains all 2**M vectors in lexicographic order,
    so the row index equals the integer with that bit pattern (first
    component is the most significant bit).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"mode table must be 2-D and non-empty, got {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise RepresentationError("mode table entries must be 0 or 1")
        if len({tuple(row) for row in arr}) != arr.shape[0]:
            raise RepresentationError("mode table rows must be distinct")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(
            self, "_index", {tuple(row): i for i, row in enumerate(arr)}
        )

    @property
    def n_switches(self) -> int:
        return self.values.shape[1]

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    def index_of(self, row) -> int:
        key = tuple(int(x) for x in row)
        try:
            return self._index[key]
        except KeyError:
            raise RepresentationError(f"configuration {key} not in mode table") from None

    def __len__(self) -> int:
        return self.n_modes


def enumerate_modes(n_switches: int) -> ModeTable:
    """All 2**M binary configurations of M switches, lexicographically ordered."""
    if not 1 <= n_switches <= MAX_ENUMERATED_SWITCHES:
        raise CapacityError(
            f"full enumeration supports 1..{MAX_ENUMERATED_SWITCHES} switches, "
            f"got {n_switches}; supply an explicit mode subset instead"
        )
    count = 1 << n_switches
    rows = (np.arange(count)[:, None] >> np.arange(n_switches - 1, -1, -1)) & 1
    return ModeTable(rows)


def _check_grid(path_grid: TimeGrid, grid: TimeGrid, what: str):
    if path_grid != grid:
        raise DimensionError(f"{what} lives on a different time grid")


@dataclass(frozen=True, eq=False)
class BinaryControlPath:
    """Piecewise-constant binary switching signal, one row per interval."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"binary control values must be 2-D, got {arr.shape}")
        if arr.shape[0] != self.grid.n_intervals:
            raise DimensionError(
                f"binary control has {arr.shape[0]} rows, grid has "
                f"{self.grid.n_intervals} intervals"
            )
        if not np.isin(arr, (0, 1)).all():
            raise RepresentationError("binary control entries must be exactly 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def constant(grid: TimeGrid, row) -> "BinaryControlPath":
        row = np.asarray(row, dtype=np.int64).reshape(1, -1)
        return BinaryControlPath(grid, np.repeat(row, grid.n_intervals, axis=0))


@dataclass(frozen=True, eq=False)
class RelaxedControlPath:
    """Row-stochastic mode multipliers, one row per interval.

    Every row must lie on the probability simplex up to ``SOS1_TOL``.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise DimensionError(
                f"relaxed control values must be 2-D with a mode column, got {arr.shape}"
            )
        if arr.shape[0] != self.grid.n_intervals:
            raise DimensionError(
                f"relaxed control has {arr.shape[0]} rows, grid has "
                f"{self.grid.n_intervals} intervals"
            )
        # NaN passes every range comparison below, so it is rejected first.
        if not np.isfinite(arr).all():
            raise RepresentationError("relaxed control entries must be finite")
        if arr.min() < -SOS1_TOL or arr.max() > 1.0 + SOS1_TOL:
            raise RepresentationError("relaxed control entries must lie in [0, 1]")
        row_sums = arr.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > SOS1_TOL:
            worst = int(np.abs(row_sums - 1.0).argmax())
            raise RepresentationError(
                f"row {worst} sums to {row_sums[worst]!r}, expected 1 within {SOS1_TOL}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def uniform(grid: TimeGrid, n_modes: int) -> "RelaxedControlPath":
        return RelaxedControlPath(
            grid, np.full((grid.n_intervals, n_modes), 1.0 / n_modes)
        )

    def is_onehot(self) -> bool:
        near_one = np.abs(self.values - 1.0) <= SOS1_TOL
        near_zero = np.abs(self.values) <= SOS1_TOL
        return bool(((near_one | near_zero).all()) and (near_one.sum(axis=1) == 1).all())

    def selected_modes(self) -> np.ndarray:
        """Mode index per interval; requires one-hot rows."""
        if not self.is_onehot():
            raise RepresentationError("path is not one-hot")
        return self.values.argmax(axis=1)


@dataclass(frozen=True, eq=False)
class ContinuousControlPath:
    """Piecewise-constant continuous controls with per-channel box bounds."""

    grid: TimeGrid
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        lo = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        if arr.ndim != 2 or arr.shape[0] != self.grid.n_intervals:
            raise DimensionError(
                f"continuous control shape {arr.shape} does not match grid with "
                f"{self.grid.n_intervals} intervals"
            )
        if lo.shape != (arr.shape[1],) or hi.shape != (arr.shape[1],):
            raise DimensionError("bounds must have one entry per control channel")
        if np.any(lo > hi):
            raise DimensionError("lower bounds exceed upper bounds")
        if not np.isfinite(arr).all():
            raise RepresentationError("continuous control values must be finite")
        if arr.size and (np.any(arr < lo) or np.any(arr > hi)):
            raise RepresentationError("continuous control values violate their bounds")
        for a in (arr, lo, hi):
            a.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def empty(grid: TimeGrid) -> "ContinuousControlPath":
        z = np.zeros((grid.n_intervals, 0))
        return ContinuousControlPath(grid, z, np.zeros(0), np.zeros(0))

    @staticmethod
    def midpoint(grid: TimeGrid, lower, upper) -> "ContinuousControlPath":
        lo = np.asarray(lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(upper, dtype=np.float64).reshape(-1)
        mid = np.repeat(((lo + hi) / 2.0)[None, :], grid.n_intervals, axis=0)
        return ContinuousControlPath(grid, mid, lo, hi)


COMPONENTWISE = "componentwise"
MODEWISE = "modewise"


def _counts(entries) -> tuple:
    """Dwell or budget entries as Python ints; a non-integer entry is rejected."""
    entries = tuple(entries)
    if not all(map(_is_int, entries)):
        raise DimensionError(f"dwell and budget entries must be integers, got {entries!r}")
    return tuple(map(int, entries))


@dataclass(frozen=True)
class CombinatorialSpec:
    """Dwell-time and switch-budget restrictions in interval units.

    ``min_dwell[i]`` is the least number of intervals between two consecutive
    switches of component i.  ``max_dwell[i]``, when given, caps the length of
    every constant run that is bounded by switches on both sides.  Runs
    touching the horizon boundary (before the first switch, after the last)
    are exempt from both dwell rules.  ``max_switches[i]`` caps the total
    switch count of component i.

    In the ``modewise`` representation the single component is the whole
    row of the path, and a switch is any change of that row.
    """

    min_dwell: tuple
    max_dwell: Optional[tuple] = None
    max_switches: Optional[tuple] = None
    representation: str = COMPONENTWISE

    def __post_init__(self):
        object.__setattr__(self, "min_dwell", _counts(self.min_dwell))
        if any(d < 1 for d in self.min_dwell):
            raise DimensionError("min dwell counts must be >= 1")
        if self.max_dwell is not None:
            md = _counts(self.max_dwell)
            if len(md) != len(self.min_dwell):
                raise DimensionError("max_dwell length must match min_dwell")
            if any(big < small for big, small in zip(md, self.min_dwell)):
                raise DimensionError("max dwell must be >= min dwell per component")
            object.__setattr__(self, "max_dwell", md)
        if self.max_switches is not None:
            ms = _counts(self.max_switches)
            if len(ms) != len(self.min_dwell):
                raise DimensionError("max_switches length must match min_dwell")
            if any(s < 0 for s in ms):
                raise DimensionError("switch budgets must be >= 0")
            object.__setattr__(self, "max_switches", ms)
        if self.representation not in (COMPONENTWISE, MODEWISE):
            raise DimensionError(f"unknown representation {self.representation!r}")
        if self.representation == MODEWISE and len(self.min_dwell) != 1:
            raise DimensionError("modewise specs have exactly one component")

    @property
    def n_components(self) -> int:
        return len(self.min_dwell)

    def component(self, c: int):
        """(min dwell, max dwell or None, switch budget or None) of component c."""
        return (
            self.min_dwell[c],
            None if self.max_dwell is None else self.max_dwell[c],
            None if self.max_switches is None else self.max_switches[c],
        )

    @staticmethod
    def uniform(
        n_components: int,
        min_dwell: int,
        max_dwell: Optional[int] = None,
        max_switches: Optional[int] = None,
        representation: str = COMPONENTWISE,
    ) -> "CombinatorialSpec":
        return CombinatorialSpec(
            min_dwell=(min_dwell,) * n_components,
            max_dwell=None if max_dwell is None else (max_dwell,) * n_components,
            max_switches=None
            if max_switches is None
            else (max_switches,) * n_components,
            representation=representation,
        )


def dwell_intervals(tau_min: float, grid: TimeGrid) -> int:
    """Smallest interval count covering the dwell time ``tau_min``.

    Guards against floating-point noise in the quotient so that an exact
    multiple of the step maps to the exact integer.
    """
    if not 0 < tau_min < math.inf:
        raise DimensionError(f"dwell time must be positive and finite, got {tau_min}")
    quotient = tau_min / grid.step
    return max(1, math.ceil(quotient - 1e-9))


@dataclass(frozen=True)
class Violation:
    component: int
    interval: int
    rule: str
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.feasible


def penalty_term(v: BinaryControlPath, v_tilde: BinaryControlPath, grid: TimeGrid) -> float:
    """Integrated 1-norm distance between two binary paths.

    Exact for piecewise-constant paths: step times the entrywise mismatch
    count.  Zero iff the paths are identical.
    """
    _check_grid(v.grid, grid, "v")
    _check_grid(v_tilde.grid, grid, "v_tilde")
    if v.values.shape != v_tilde.values.shape:
        raise DimensionError(
            f"component mismatch: {v.values.shape} vs {v_tilde.values.shape}"
        )
    return grid.step * float(np.abs(v.values - v_tilde.values).sum())


def cia_deviation(
    w: RelaxedControlPath, v_onehot: RelaxedControlPath, grid: TimeGrid
) -> float:
    """Worst accumulated control-integral gap between w and a one-hot path.

    Evaluates max over grid nodes of the max-norm of the running integral of
    (w - v), which is exact for piecewise-constant integrands.
    """
    _check_grid(w.grid, grid, "w")
    _check_grid(v_onehot.grid, grid, "v_onehot")
    if w.values.shape != v_onehot.values.shape:
        raise DimensionError(
            f"mode-count mismatch: {w.values.shape} vs {v_onehot.values.shape}"
        )
    if not v_onehot.is_onehot():
        raise RepresentationError("v_onehot rows must be one-hot")
    gaps = np.cumsum((w.values - v_onehot.values) * grid.step, axis=0)
    return float(np.abs(gaps).max())


def switch_count(
    v: BinaryControlPath, component: int, from_interval: int, to_interval: int
) -> int:
    """Number of value changes of one component inside an interval window."""
    n = v.grid.n_intervals
    if not 0 <= from_interval <= to_interval <= n:
        raise DimensionError(
            f"window [{from_interval}, {to_interval}] out of range for {n} intervals"
        )
    if not 0 <= component < v.n_components:
        raise DimensionError(f"component {component} out of range")
    segment = v.values[from_interval:to_interval, component]
    return int(np.count_nonzero(np.diff(segment)))


def _switch_positions(column: np.ndarray) -> list:
    """Indices k >= 1 where column[k] != column[k-1]."""
    return [int(k) for k in np.nonzero(np.diff(column))[0] + 1]


def _run_violations(
    column: np.ndarray, component: int, d: int, dmax: Optional[int], budget: Optional[int]
) -> list:
    violations = []
    switches = _switch_positions(column)
    for a, b in zip(switches, switches[1:]):
        gap = b - a
        if gap < d:
            violations.append(
                Violation(component, b, "min_dwell", f"dwell {gap} < {d}")
            )
        if dmax is not None and gap > dmax:
            violations.append(
                Violation(component, a, "max_dwell", f"dwell {gap} > {dmax}")
            )
    if budget is not None and len(switches) > budget:
        violations.append(
            Violation(
                component,
                switches[budget],
                "max_switches",
                f"{len(switches)} switches > budget {budget}",
            )
        )
    return violations


def check_feasible(
    v: BinaryControlPath, spec: CombinatorialSpec, grid: TimeGrid
) -> FeasibilityReport:
    """Exact dwell/switch-budget feasibility check of a binary path.

    Componentwise specs inspect each column separately.  For a modewise
    spec a switch is any change of the path's row, so a configuration path
    and its mode-indicator path give the same report.
    """
    _check_grid(v.grid, grid, "v")
    violations = []
    if spec.representation == COMPONENTWISE:
        if v.n_components != spec.n_components:
            raise DimensionError(
                f"path has {v.n_components} components, spec has {spec.n_components}"
            )
        for c in range(spec.n_components):
            violations.extend(_run_violations(v.values[:, c], c, *spec.component(c)))
    else:
        runs = np.cumsum(np.r_[0, (np.diff(v.values, axis=0) != 0).any(axis=1)])
        violations.extend(_run_violations(runs, 0, *spec.component(0)))
    return FeasibilityReport(not violations, tuple(violations))


def binary_to_onehot(v: BinaryControlPath, modes: ModeTable) -> RelaxedControlPath:
    """One-hot multiplier path selecting each row's mode-table index."""
    if v.n_components != modes.n_switches:
        raise DimensionError(
            f"path has {v.n_components} components, modes have {modes.n_switches}"
        )
    out = np.zeros((v.grid.n_intervals, modes.n_modes))
    for k, row in enumerate(v.values):
        out[k, modes.index_of(row)] = 1.0
    return RelaxedControlPath(v.grid, out)


def onehot_to_binary(w_onehot: RelaxedControlPath, modes: ModeTable) -> BinaryControlPath:
    """Binary path applying the configuration selected by each one-hot row."""
    if w_onehot.n_modes != modes.n_modes:
        raise DimensionError(
            f"path has {w_onehot.n_modes} mode columns, table has {modes.n_modes}"
        )
    selected = w_onehot.selected_modes()
    return BinaryControlPath(w_onehot.grid, modes.values[selected])


def mode_deviation_costs(modes: ModeTable, v_tilde: BinaryControlPath) -> np.ndarray:
    """Per-interval 1-norm distance from each mode to a binary reference path.

    Entry (k, i) is |r^i - v_tilde_k|_1; this is the kernel of the penalty
    coupling between relaxed multipliers and the projected binary iterate.
    """
    if modes.n_switches != v_tilde.n_components:
        raise DimensionError(
            f"modes have {modes.n_switches} switches, path has "
            f"{v_tilde.n_components} components"
        )
    # (N, M̃): broadcast |r^i - ṽ_k| over modes and intervals, summed over switches.
    return (
        np.abs(modes.values[None, :, :] - v_tilde.values[:, None, :])
        .sum(axis=2)
        .astype(np.float64)
    )
