"""Forward simulation of convexified switched dynamics and discrete adjoints.

The state equation couples a mode-dependent right-hand side with relaxed
multipliers: ydot = sum_i w_i(t) f(t, y, u, r^i).  Integration uses one
classical RK4 macro step per grid interval (or forward Euler when the system
asks for it), with all controls held constant on the interval.  Gradients are
exact for the discrete transcription: the adjoint sweep differentiates the
integrator itself, so it matches central finite differences to solver
precision.

The sweeps use only the stacked form of a system (``rhs_stack`` and the
weight-combined Jacobians).  A gradient sweep keeps the forward pass's stage
states and per-mode stage fields (N x stages x modes x n_y floats) and walks
them backwards instead of recomputing them.  The reverse interval loop runs
only the adjoint recursion and records each stage's weight; the w- and
u-contractions run after it as stacked ``np.matmul`` products (bitwise equal
to per-interval 2-D products, which ``np.einsum`` is not).  The coupling
penalty is one linear table, ``_penalty_weights``, and every penalized value
is ``_penalized_value``.

Inside a ``_sweep_memo`` scope, which ``adm.adm_penalty``, ``cli.run`` and
the relaxed solver's loop enter, ``_integrate_values`` keeps its few most
recent forward sweeps (node states and stage records) and replays one when
it is called again with the same system and grid objects and the same
control bytes.  The gradient at an accepted line-search trial replays that
trial's sweep; the ADM loop re-evaluates points the relaxed solve has just
swept, and each relaxed solve starts at the previous one's last iterate, so
a run sweeps most such points once.  A replay is bitwise the sweep it stands
for.  The memo lives only as long as the outermost scope; outside any scope
every call sweeps.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    BinaryControlPath,
    ContinuousControlPath,
    ModeTable,
    RelaxedControlPath,
    TimeGrid,
    mode_deviation_costs,
)
from .errors import DimensionError, DivergenceError

RK4 = "rk4"
EULER = "euler"


@dataclass(frozen=True, eq=False)
class SwitchedSystem:
    """Switched ODE with mode-wise right-hand side and Mayer objective.

    ``rhs(t, y, u, r)`` evaluates the full state derivative for one binary
    configuration r; ``rhs_jac_state`` and ``rhs_jac_control`` are its exact
    partial derivatives at the same arguments.  These per-mode callables are
    the contract.  Integral costs are expected to be folded into the state as
    quadrature components so that the objective is ``terminal_cost`` at the
    final state only.

    The stacked hooks are optional speed-ups returning float arrays.  Absent
    ones are derived from the per-mode callables (``rhs_batch`` from
    ``rhs_stack``, row by row); supplied ones must match them bitwise on
    one-hot rows (up to the sign of zero).  ``rhs_batch`` evaluates
    ``rhs_stack`` at each row of a (B, n_y) state array and a (B, m_u)
    control array.  Derived hooks are stored in their fields, so a
    ``dataclasses.replace`` copy with new per-mode callables must pass the
    hooks as None to derive them again.
    """

    state_dim: int
    control_dim: int
    modes: ModeTable
    rhs: Callable
    rhs_jac_state: Callable
    rhs_jac_control: Callable
    terminal_cost: Callable
    terminal_cost_gradient: Callable
    initial_state: np.ndarray
    control_lower: np.ndarray
    control_upper: np.ndarray
    integrator: str = RK4
    state_names: Optional[tuple] = None
    rhs_stack: Optional[Callable] = None            # (t, y, u) -> (n_modes, n_y)
    combined_jac_state: Optional[Callable] = None   # (t, y, u, weights) -> (n_y, n_y)
    combined_jac_control: Optional[Callable] = None  # (t, y, u, weights) -> (n_y, m_u)
    rhs_batch: Optional[Callable] = None            # (t, Y, U) -> (B, n_modes, n_y)

    def __post_init__(self):
        y0 = np.asarray(self.initial_state, dtype=np.float64).reshape(-1)
        lo = np.asarray(self.control_lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.control_upper, dtype=np.float64).reshape(-1)
        if y0.shape != (self.state_dim,):
            raise DimensionError(
                f"initial state has shape {y0.shape}, expected ({self.state_dim},)"
            )
        if not np.isfinite(y0).all():
            raise DimensionError("initial state must be finite")
        if lo.shape != (self.control_dim,) or hi.shape != (self.control_dim,):
            raise DimensionError("control bounds must have control_dim entries")
        if not (lo <= hi).all():
            raise DimensionError("control bounds must be ordered, lower <= upper, and not NaN")
        if self.integrator not in (RK4, EULER):
            raise DimensionError(f"unknown integrator {self.integrator!r}")
        for a in (y0, lo, hi):
            a.flags.writeable = False
        object.__setattr__(self, "initial_state", y0)
        object.__setattr__(self, "control_lower", lo)
        object.__setattr__(self, "control_upper", hi)
        modes = self.modes.values
        if self.rhs_stack is None:
            object.__setattr__(self, "rhs_stack", _stacked(self.rhs, modes))
        if self.rhs_batch is None:
            object.__setattr__(self, "rhs_batch", _batched(self.rhs_stack))
        if self.combined_jac_state is None:
            object.__setattr__(self, "combined_jac_state", _combined(
                self.rhs_jac_state, modes, (self.state_dim, self.state_dim)
            ))
        if self.combined_jac_control is None:
            object.__setattr__(self, "combined_jac_control", _combined(
                self.rhs_jac_control, modes, (self.state_dim, self.control_dim)
            ))


def _stacked(rhs: Callable, modes: np.ndarray) -> Callable:
    """``rhs_stack`` built from the per-mode right-hand side."""
    def rhs_stack(t, y, u):
        return np.array([rhs(t, y, u, r) for r in modes], dtype=np.float64)

    return rhs_stack


def _batched(rhs_stack: Callable) -> Callable:
    """``rhs_batch`` built from ``rhs_stack``, one row at a time."""
    def rhs_batch(t, ys, us):
        return np.array([rhs_stack(t, y, u) for y, u in zip(ys, us)], dtype=np.float64)

    return rhs_batch


def _combined(jac: Callable, modes: np.ndarray, shape: tuple) -> Callable:
    """Weight-combined Jacobian built from a per-mode one; zero weights are
    skipped, so a one-hot row gives the active mode's Jacobian exactly."""
    def combined(t, y, u, weights):
        out = np.zeros(shape)
        for r, wi in zip(modes, weights):
            if wi != 0.0:
                out = out + wi * np.asarray(jac(t, y, u, r), dtype=np.float64)
        return out

    return combined


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State values at all grid nodes, row 0 being the initial state."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != self.grid.n_intervals + 1:
            raise DimensionError(
                f"trajectory shape {arr.shape} does not match grid with "
                f"{self.grid.n_intervals} intervals"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_control_shapes(system: SwitchedSystem, grid: TimeGrid,
                          u: ContinuousControlPath, w: RelaxedControlPath):
    if u.grid != grid or w.grid != grid:
        raise DimensionError("controls live on a different time grid")
    if u.n_channels != system.control_dim:
        raise DimensionError(
            f"control path has {u.n_channels} channels, system expects "
            f"{system.control_dim}"
        )
    if w.n_modes != system.modes.n_modes:
        raise DimensionError(
            f"multiplier path has {w.n_modes} modes, system expects "
            f"{system.modes.n_modes}"
        )


def _step(system: SwitchedSystem, t: float, y: np.ndarray, u_k: np.ndarray,
          w_k: np.ndarray, h: float):
    """One RK4 or forward-Euler step of the convexified field ``w_k @ rhs_stack``.

    Returns (y_next, stage_states, stage_fields): the states at which the
    stages were evaluated and the per-mode fields (n_modes, n_y) there.
    With a leading batch axis on ``y``, ``u_k`` and ``w_k`` each row takes
    this step at the same time t, through ``rhs_batch`` and a stacked
    row-vector ``matmul``; on one-hot rows a row's result is the one-row
    step's.
    """
    if y.ndim == 1:
        stack, combine = system.rhs_stack, np.matmul
    else:
        stack, combine = system.rhs_batch, _combine_rows
    if system.integrator == EULER:
        f1 = stack(t, y, u_k)
        return y + h * combine(w_k, f1), (y,), (f1,)
    half_h = 0.5 * h
    t_mid = t + half_h
    f1 = stack(t, y, u_k)
    s1 = combine(w_k, f1)
    y2 = y + half_h * s1
    f2 = stack(t_mid, y2, u_k)
    s2 = combine(w_k, f2)
    y3 = y + half_h * s2
    f3 = stack(t_mid, y3, u_k)
    s3 = combine(w_k, f3)
    y4 = y + h * s3
    f4 = stack(t + h, y4, u_k)
    s4 = combine(w_k, f4)
    y_next = y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    return y_next, (y, y2, y3, y4), (f1, f2, f3, f4)


def _combine_rows(w: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Row-wise ``w[b] @ fields[b]`` of (B, n_modes) weights and
    (B, n_modes, n_y) fields."""
    return np.matmul(w[:, None, :], fields)[:, 0]


#: Forward sweeps a memo keeps.
_MEMO_ENTRIES = 4

# The active memo: a list of (system, grid, key, states, stages) entries,
# least recently used first, or None outside every ``_sweep_memo`` scope.
_memo: contextvars.ContextVar = contextvars.ContextVar("switchopt_sweep_memo", default=None)


@contextlib.contextmanager
def _sweep_memo():
    """Scope in which ``_integrate_values`` replays its recent sweeps.

    A nested scope shares the enclosing scope's memo; the memo is dropped
    when the outermost scope exits.
    """
    if _memo.get() is not None:
        yield
        return
    token = _memo.set([])
    try:
        yield
    finally:
        _memo.reset(token)


def _array_key(a: np.ndarray) -> tuple:
    """Exact identity of an array's contents: shape, dtype and bytes (which
    tell -0.0 from 0.0)."""
    return a.shape, a.dtype.str, a.tobytes()


def _integrate_values(system: SwitchedSystem, grid: TimeGrid, u_values: np.ndarray,
                      w_values: np.ndarray, stages: Optional[list] = None) -> np.ndarray:
    """Forward sweep on raw arrays; returns (N+1, n_y) node states.

    When ``stages`` is a list, each interval's (stage states, stage fields)
    pair from ``_step`` is appended to it.  Inside a ``_sweep_memo`` scope a
    repeated call returns the recorded, read-only arrays of the first; a
    sweep that diverges is not recorded.
    """
    memo = _memo.get()
    if memo is None:
        return _forward_sweep(system, grid, u_values, w_values, stages)
    # System and grid by identity: an entry holds both, so neither can be
    # collected and its id reused, and equal grid ends of another number
    # type would step differently.
    key = (_array_key(u_values), _array_key(w_values))
    for i, entry in enumerate(memo):
        if entry[0] is system and entry[1] is grid and entry[2] == key:
            memo.append(memo.pop(i))
            break
    else:
        recorded = []
        states = _forward_sweep(system, grid, u_values, w_values, recorded)
        states.flags.writeable = False
        entry = (system, grid, key, states, recorded)
        memo.append(entry)
        if len(memo) > _MEMO_ENTRIES:
            del memo[0]
    if stages is not None:
        stages.extend(entry[4])
    return entry[3]


def _forward_sweep(system: SwitchedSystem, grid: TimeGrid, u_values: np.ndarray,
                   w_values: np.ndarray, stages: Optional[list]) -> np.ndarray:
    """The sweep behind ``_integrate_values``, never memoized."""
    n = grid.n_intervals
    h = grid.step
    states = np.empty((n + 1, system.state_dim))
    states[0] = system.initial_state
    y = system.initial_state.copy()
    for k in range(n):
        t = grid.t_start + k * h
        y, stage_states, stage_fields = _step(system, t, y, u_values[k], w_values[k], h)
        if not np.isfinite(y).all():
            raise DivergenceError(
                f"non-finite state after interval {k}", interval=k
            )
        if stages is not None:
            stages.append((stage_states, stage_fields))
        states[k + 1] = y
    return states


def integrate(system: SwitchedSystem, grid: TimeGrid, u: ContinuousControlPath,
              w: RelaxedControlPath) -> Trajectory:
    """Integrate the convexified switched system across the grid.

    For one-hot multiplier rows this reproduces the binary-mode system
    exactly, since partial outer convexification is exact on vertices.
    """
    _check_control_shapes(system, grid, u, w)
    return Trajectory(grid, _integrate_values(system, grid, u.values, w.values))


def objective(system: SwitchedSystem, trajectory: Trajectory) -> float:
    """Terminal cost of a simulated trajectory."""
    return float(system.terminal_cost(trajectory.final_state))


def _penalty_weights(system: SwitchedSystem, grid: TimeGrid,
                     v_tilde: BinaryControlPath, rho: float = 1.0) -> np.ndarray:
    """rho * step * |r^i - v_tilde_k|_1 table of the coupling penalty.

    Also the penalty's w-gradient.  rho must be finite and >= 0; rho = 0
    gives the all-zero table, and at rho = 1 it is the unweighted table
    exactly, since 1.0 * step is exact.
    """
    if not 0 <= rho < np.inf:
        raise DimensionError(f"penalty parameter must be finite and >= 0, got {rho}")
    if v_tilde.grid != grid:
        raise DimensionError("penalty reference lives on a different grid")
    return rho * grid.step * mode_deviation_costs(system.modes, v_tilde)


def _penalized_value(system: SwitchedSystem, states: np.ndarray,
                     w_values: np.ndarray, pen: np.ndarray) -> float:
    """Terminal cost at the final node state plus the penalty sum(w * pen)."""
    return float(system.terminal_cost(states[-1])) + float((w_values * pen).sum())


def penalized_objective(system: SwitchedSystem, grid: TimeGrid,
                        u: ContinuousControlPath, w: RelaxedControlPath,
                        v_tilde: BinaryControlPath, rho: float) -> float:
    """Objective plus rho times the integrated multiplier/projection gap.

    The penalty accumulator state has a piecewise-constant derivative, so its
    terminal value is evaluated in closed form instead of being integrated.
    This is bitwise the value the relaxed solver minimizes.
    """
    pen = _penalty_weights(system, grid, v_tilde, rho)
    return _penalized_value(system, integrate(system, grid, u, w).states, w.values, pen)


def weighted_penalty_value(system: SwitchedSystem, grid: TimeGrid,
                           w: RelaxedControlPath, v_tilde: BinaryControlPath) -> float:
    """Integrated multiplier-weighted 1-norm gap to a binary reference path."""
    coeffs = _penalty_weights(system, grid, v_tilde)
    return float((w.values * coeffs).sum())


_RK_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def _adjoint_values(system: SwitchedSystem, grid: TimeGrid, u_values: np.ndarray,
                    w_values: np.ndarray, pen: np.ndarray):
    """Reverse sweep on raw arrays.

    Returns (value, grad_u, grad_w) of ``_penalized_value`` with the penalty
    table ``pen`` (a ``_penalty_weights`` table, the penalty's w-gradient).
    The forward sweep keeps its stage states and per-mode stage fields, and
    the adjoint rolls back through them; inside a ``_sweep_memo`` scope that
    sweep is a replay when these arrays were just swept.
    """
    n = grid.n_intervals
    h = grid.step
    stages = []
    states = _integrate_values(system, grid, u_values, w_values, stages)
    value = _penalized_value(system, states, w_values, pen)
    grad_u = np.zeros_like(u_values)

    lam = np.asarray(system.terminal_cost_gradient(states[-1]), dtype=np.float64).copy()
    rk4 = system.integrator == RK4
    has_u = u_values.shape[1] > 0
    jac_y = system.combined_jac_state
    jac_u = system.combined_jac_control
    half_h = 0.5 * h
    hb1, hb2, hb3, hb4 = (h * b for b in _RK_B)
    n_stages = 4 if rk4 else 1
    # The loop records each stage's weight (and control Jacobian) for the
    # contractions after it.
    stage_weights = np.empty((n, n_stages, system.state_dim))
    if has_u:
        stage_jac_u = np.empty((n, n_stages, system.state_dim, u_values.shape[1]))

    for k in range(n - 1, -1, -1):
        t = grid.t_start + k * h
        uk = u_values[k]
        wk = w_values[k]
        sb = stage_weights[k]
        if rk4:
            (y1, y2, y3, y4), _ = stages[k]
            t_mid, t_end = t + half_h, t + h
            sb[3] = sb4 = hb4 * lam
            yb4 = jac_y(t_end, y4, uk, wk).T @ sb4
            sb[2] = sb3 = hb3 * lam + h * yb4
            yb3 = jac_y(t_mid, y3, uk, wk).T @ sb3
            sb[1] = sb2 = hb2 * lam + half_h * yb3
            yb2 = jac_y(t_mid, y2, uk, wk).T @ sb2
            sb[0] = sb1 = hb1 * lam + half_h * yb2
            yb1 = jac_y(t, y1, uk, wk).T @ sb1
            if has_u:
                ju = stage_jac_u[k]
                ju[0] = jac_u(t, y1, uk, wk)
                ju[1] = jac_u(t_mid, y2, uk, wk)
                ju[2] = jac_u(t_mid, y3, uk, wk)
                ju[3] = jac_u(t_end, y4, uk, wk)
            lam = lam + yb1 + yb2 + yb3 + yb4
        else:
            (y1,), _ = stages[k]
            sb[0] = lam
            if has_u:
                stage_jac_u[k, 0] = jac_u(t, y1, uk, wk)
            lam = lam + h * (jac_y(t, y1, uk, wk).T @ lam)

    # A stacked matmul runs the same per-item product as the 2-D one, so
    # these sums are bitwise those of the per-interval contractions;
    # np.einsum sums in another order and is not.
    weights = stage_weights[..., None]
    stage_fields = np.array([fields for _, fields in stages])
    grad_w = pen + _stage_sum(np.matmul(stage_fields, weights)[..., 0], h)
    if has_u:
        grad_u += _stage_sum(np.matmul(stage_jac_u.swapaxes(2, 3), weights)[..., 0], h)
    return value, grad_u, grad_w


def _stage_sum(terms: np.ndarray, h: float) -> np.ndarray:
    """Per-interval sum over the stage axis of (N, stages, ...) contractions:
    ((s1 + s2) + s3) + s4 for RK4, h * s1 for Euler."""
    if terms.shape[1] == 1:
        return h * terms[:, 0]
    return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]


def adjoint_gradient(system: SwitchedSystem, grid: TimeGrid,
                     u: ContinuousControlPath, w: RelaxedControlPath,
                     v_tilde: BinaryControlPath, rho: float):
    """Exact gradient of the penalized objective in the discrete variables.

    Returns (grad_u, grad_w) with the shapes of the control value arrays.
    Differentiates the integrator transcription itself, so the result agrees
    with central finite differences on the discrete problem.
    """
    _check_control_shapes(system, grid, u, w)
    pen = _penalty_weights(system, grid, v_tilde, rho)
    _, grad_u, grad_w = _adjoint_values(system, grid, u.values, w.values, pen)
    return grad_u, grad_w


def validate_derivatives(system: SwitchedSystem, rng: np.random.Generator,
                         n_points: int = 5) -> float:
    """Finite-difference consistency check of the supplied Jacobians.

    Samples standard-normal states and controls and random modes, and
    compares rhs_jac_state and rhs_jac_control against central differences
    of rhs with step 1e-6.  Returns the worst relative error; raises
    AssertionError beyond 1e-5.
    """
    worst = 0.0
    for _ in range(n_points):
        t = float(rng.uniform(0.0, 1.0))
        y = rng.standard_normal(system.state_dim)
        u = rng.standard_normal(system.control_dim)
        mode = system.modes.values[rng.integers(system.modes.n_modes)]
        scale, gap = 1.0, 0.0
        for jac, f, x in (
            (system.rhs_jac_state(t, y, u, mode), lambda z: system.rhs(t, z, u, mode), y),
            (system.rhs_jac_control(t, y, u, mode), lambda z: system.rhs(t, y, z, mode), u),
        ):
            jac = np.asarray(jac, dtype=np.float64)
            if jac.size:
                scale = max(scale, float(np.abs(jac).max()))
                gap = max(gap, float(np.abs(jac - _central_differences(f, x, jac.shape)).max()))
        worst = max(worst, gap / scale)
    if worst > 1e-5:
        raise AssertionError(f"jacobian check failed: relative error {worst:.3e}")
    return worst


def _central_differences(f: Callable, x: np.ndarray, shape: tuple) -> np.ndarray:
    """Central differences of the vector function f at x with step 1e-6,
    column j along x[j]."""
    step = 1e-6
    fd = np.zeros(shape)
    for j in range(x.size):
        dx = np.zeros(x.size)
        dx[j] = step
        fd[:, j] = (np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2 * step)
    return fd
