"""Relaxed convexified control subproblem solved by projected gradient.

With the projected binary iterate held fixed, the penalized problem over the
continuous controls and the relaxed mode multipliers has simple geometry:
a box per control channel and a probability simplex per multiplier row.
Projected gradient with a Barzilai-Borwein trial step and Armijo
backtracking keeps every iterate feasible and the value sequence monotone.
The loop runs in a forward-sweep memo scope (``simulate._sweep_memo``), so
the gradient at an accepted iterate replays the accepted trial's sweep and
every accepted iterate costs one forward sweep, not two.

One loop, ``_minimize``, serves both solves: the relaxed solve over (u, w),
and the oracle's continuous best response over u with w held fixed (an
all-zero penalty table).  Both minimize ``simulate._penalized_value``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryControlPath,
    ContinuousControlPath,
    RelaxedControlPath,
    TimeGrid,
    _is_int,
)
from .errors import DimensionError, DivergenceError
from .simulate import (SwitchedSystem, _adjoint_values, _check_control_shapes,
                       _integrate_values, _penalized_value, _penalty_weights,
                       _sweep_memo)

# Armijo sufficient-decrease fraction and the step shrink per rejected trial.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class RelaxedSolveOptions:
    stationarity_tol: float = 1e-6
    max_iterations: int = 5000

    def __post_init__(self):
        if not (0 < self.stationarity_tol < np.inf
                and _is_int(self.max_iterations) and self.max_iterations > 0):
            raise DimensionError(
                "stationarity_tol must be positive and finite, max_iterations a positive integer"
            )


@dataclass(frozen=True, eq=False)
class RelaxedSolveResult:
    u: ContinuousControlPath
    w: RelaxedControlPath
    value: float
    stationarity: float
    iterations: int
    converged: bool


def project_simplex(row: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex: the
    one-row case of ``project_rows_to_simplex``."""
    x = np.asarray(row, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise DimensionError("cannot project an empty vector")
    if not np.isfinite(x).all():
        raise DimensionError("simplex projection needs finite entries")
    return project_rows_to_simplex(x[None])[0]


def project_rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex.

    Sort-and-threshold rule: entries become max(x - tau, 0) with tau chosen
    so each row sums to one.  Idempotent on simplex points.
    """
    x = np.asarray(mat, dtype=np.float64)
    u = -np.sort(-x, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, x.shape[1] + 1)
    support = u - css / ks > 0
    k = support.shape[1] - 1 - np.argmax(support[:, ::-1], axis=1)
    tau = css[np.arange(x.shape[0]), k] / (k + 1)
    return np.maximum(x - tau[:, None], 0.0)


class _PenalizedProblem:
    """Raw-array value/gradient oracle for one fixed penalty table ``pen``
    (a ``_penalty_weights`` table; all zeros for the plain objective).

    With ``hold_w`` the multipliers are data, not variables: their gradient
    is reported as zero and ``project`` passes them through, so the shared
    loop moves u alone.
    """

    def __init__(self, system: SwitchedSystem, grid: TimeGrid, pen: np.ndarray,
                 hold_w: bool = False):
        self.system = system
        self.grid = grid
        self.pen = pen
        self.hold_w = hold_w

    def value(self, u_values, w_values):
        states, _ = _integrate_values(self.system, self.grid, u_values, w_values)
        return _penalized_value(self.system, states, w_values, self.pen)

    def value_and_gradient(self, u_values, w_values):
        val, grad_u, grad_w = _adjoint_values(
            self.system, self.grid, u_values, w_values, self.pen
        )
        if self.hold_w:
            grad_w = np.zeros_like(w_values)
        return val, grad_u, grad_w

    def project(self, u_values, w_values):
        u_proj = (
            np.clip(u_values, self.system.control_lower, self.system.control_upper)
            if u_values.size
            else u_values
        )
        if self.hold_w:
            return u_proj, w_values
        return u_proj, project_rows_to_simplex(w_values)


def _stationarity(problem, u_values, w_values, grad_u, grad_w) -> float:
    """Norm of the unit-step projected-gradient displacement."""
    pu, pw = problem.project(u_values - grad_u, w_values - grad_w)
    du = pu - u_values
    dw = pw - w_values
    return float(np.sqrt((du * du).sum() + (dw * dw).sum()))


@_sweep_memo()
def _minimize(problem: _PenalizedProblem, u_vals: np.ndarray, w_vals: np.ndarray,
              options: RelaxedSolveOptions):
    """Projected-gradient descent from the feasible arrays (u_vals, w_vals).

    Returns (u, w, value, stationarity, iterations, converged).
    """
    fx, grad_u, grad_w = problem.value_and_gradient(u_vals, w_vals)
    res = _stationarity(problem, u_vals, w_vals, grad_u, grad_w)

    iterations = 0
    step = 1.0
    prev_u = prev_w = prev_gu = prev_gw = None
    converged = res <= options.stationarity_tol

    while not converged and iterations < options.max_iterations:
        # Barzilai-Borwein trial step from the last accepted displacement,
        # safeguarded into a broad positive range.
        if prev_u is not None:
            su = u_vals - prev_u
            sw = w_vals - prev_w
            yu = grad_u - prev_gu
            yw = grad_w - prev_gw
            ss = float((su * su).sum() + (sw * sw).sum())
            sy = float((su * yu).sum() + (sw * yw).sum())
            if sy > 1e-300:
                step = min(max(ss / sy, 1e-12), 1e8)

        accepted = False
        t = step
        while t >= 1e-14:
            u_new, w_new = problem.project(u_vals - t * grad_u, w_vals - t * grad_w)
            du = u_new - u_vals
            dw = w_new - w_vals
            decrease = float((grad_u * du).sum() + (grad_w * dw).sum())
            if decrease >= -1e-300:
                break  # no descent along the projection arc
            try:
                f_new = problem.value(u_new, w_new)
            except DivergenceError:
                f_new = np.inf  # a trial that blows up fails like an Armijo test
            if f_new <= fx + ARMIJO_C * decrease:
                accepted = True
                break
            t *= BACKTRACK_FACTOR
        if not accepted:
            break  # machine-precision stationary; keep the current iterate

        prev_u, prev_w, prev_gu, prev_gw = u_vals, w_vals, grad_u, grad_w
        u_vals, w_vals = u_new, w_new
        step = t
        iterations += 1
        # Replays the accepted trial's forward sweep.
        fx, grad_u, grad_w = problem.value_and_gradient(u_vals, w_vals)
        res = _stationarity(problem, u_vals, w_vals, grad_u, grad_w)
        converged = res <= options.stationarity_tol

    return u_vals, w_vals, fx, res, iterations, converged


def solve_relaxed_poc(system: SwitchedSystem, grid: TimeGrid,
                      v_tilde: BinaryControlPath, rho: float,
                      warm_start, options: RelaxedSolveOptions = RelaxedSolveOptions()
                      ) -> RelaxedSolveResult:
    """Minimize the penalized objective over box controls and simplex rows.

    ``warm_start`` is a feasible (u, w) pair; the returned value never
    exceeds the warm start's value.  Convergence is certified by the
    projected-gradient residual at unit step falling below the tolerance.
    For instances whose reduced objective is convex this residual bound
    implies global optimality of the subproblem up to the matching accuracy;
    for nonconvex instances it is a stationarity surrogate only.
    """
    u0, w0 = warm_start
    _check_control_shapes(system, grid, u0, w0)
    problem = _PenalizedProblem(system, grid, _penalty_weights(system, grid, v_tilde, rho))
    u_vals, w_vals, fx, res, iterations, converged = _minimize(
        problem, u0.values.copy(), w0.values.copy(), options
    )
    u_path = ContinuousControlPath(grid, u_vals, system.control_lower, system.control_upper)
    w_path = RelaxedControlPath(grid, w_vals)
    return RelaxedSolveResult(
        u=u_path, w=w_path, value=fx, stationarity=res,
        iterations=iterations, converged=converged,
    )


def best_response_continuous(system: SwitchedSystem, grid: TimeGrid,
                             w_values: np.ndarray,
                             options: RelaxedSolveOptions = RelaxedSolveOptions()):
    """Minimize the objective over box-bounded continuous controls only.

    The loop of ``solve_relaxed_poc`` with the mode multipliers held fixed,
    started from the box midpoint; it stops on the same unit-step residual.
    Returns (u values, objective value).  Used by the oracle at enumeration
    leaves.
    """
    shape = (grid.n_intervals, system.modes.n_modes)
    if np.shape(w_values) != shape:
        raise DimensionError(f"multipliers have shape {np.shape(w_values)}, expected {shape}")
    u0 = ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper)
    problem = _PenalizedProblem(system, grid, np.zeros_like(w_values), hold_w=True)
    u_vals, _, fx, _, _, _ = _minimize(problem, u0.values.copy(), w_values, options)
    return u_vals, fx
