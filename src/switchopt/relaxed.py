"""Relaxed convexified control subproblem solved by projected gradient.

With the projected binary iterate held fixed, the penalized problem over the
continuous controls and the relaxed mode multipliers has simple geometry:
a box per control channel and a probability simplex per multiplier row.
Projected gradient with a Barzilai-Borwein trial step and Armijo
backtracking keeps every iterate feasible and the value sequence monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryControlPath,
    ContinuousControlPath,
    RelaxedControlPath,
    TimeGrid,
    mode_deviation_costs,
)
from .errors import DimensionError, DivergenceError
from .simulate import SwitchedSystem, _adjoint_values, _integrate_values


@dataclass(frozen=True)
class RelaxedSolveOptions:
    stationarity_tol: float = 1e-6
    max_iterations: int = 5000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0

    def __post_init__(self):
        if self.stationarity_tol <= 0 or self.max_iterations <= 0 or self.initial_step <= 0:
            raise DimensionError("solver tolerances and limits must be positive")
        if not 0 < self.armijo_c < 1 or not 0 < self.backtrack_factor < 1:
            raise DimensionError("armijo_c and backtrack_factor must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class RelaxedSolveResult:
    u: ContinuousControlPath
    w: RelaxedControlPath
    value: float
    stationarity: float
    iterations: int
    converged: bool


def project_simplex(row: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-and-threshold rule: entries become max(x - tau, 0) with tau chosen
    so the result sums to one.  Idempotent on simplex points.
    """
    x = np.asarray(row, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise DimensionError("cannot project an empty vector")
    if not np.isfinite(x).all():
        raise DimensionError("simplex projection needs finite entries")
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, x.size + 1)
    support = u - css / ks > 0
    k = int(np.max(ks[support]))
    tau = css[k - 1] / k
    return np.maximum(x - tau, 0.0)


def project_rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection, vectorized over all rows."""
    x = np.asarray(mat, dtype=np.float64)
    u = -np.sort(-x, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, x.shape[1] + 1)
    support = u - css / ks > 0
    k = support.shape[1] - 1 - np.argmax(support[:, ::-1], axis=1)
    tau = css[np.arange(x.shape[0]), k] / (k + 1)
    return np.maximum(x - tau[:, None], 0.0)


class _PenalizedProblem:
    """Raw-array value/gradient oracle for one fixed (v_tilde, rho) pair."""

    def __init__(self, system: SwitchedSystem, grid: TimeGrid,
                 v_tilde: BinaryControlPath, rho: float):
        self.system = system
        self.grid = grid
        self.rho = rho
        if rho > 0:
            self.penalty_grad_w = rho * grid.step * mode_deviation_costs(
                system.modes, v_tilde
            )
        else:
            self.penalty_grad_w = None
        self.lower = system.control_lower
        self.upper = system.control_upper

    def value(self, u_values, w_values) -> float:
        states = _integrate_values(self.system, self.grid, u_values, w_values)
        val = float(self.system.terminal_cost(states[-1]))
        if self.penalty_grad_w is not None:
            val += float((w_values * self.penalty_grad_w).sum())
        return val

    def value_and_gradient(self, u_values, w_values):
        return _adjoint_values(
            self.system, self.grid, u_values, w_values, self.penalty_grad_w
        )

    def project(self, u_values, w_values):
        u_proj = (
            np.clip(u_values, self.lower, self.upper)
            if u_values.size
            else u_values
        )
        return u_proj, project_rows_to_simplex(w_values)


def _stationarity(problem, u_values, w_values, grad_u, grad_w) -> float:
    """Norm of the unit-step projected-gradient displacement."""
    pu, pw = problem.project(u_values - grad_u, w_values - grad_w)
    du = pu - u_values
    dw = pw - w_values
    return float(np.sqrt((du * du).sum() + (dw * dw).sum()))


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
    if rho < 0:
        raise DimensionError(f"penalty parameter must be >= 0, got {rho}")
    u0, w0 = warm_start
    if u0.grid != grid or w0.grid != grid:
        raise DimensionError("warm start lives on a different grid")
    problem = _PenalizedProblem(system, grid, v_tilde, rho)

    u_vals = u0.values.copy()
    w_vals = w0.values.copy()
    fx, grad_u, grad_w = problem.value_and_gradient(u_vals, w_vals)
    res = _stationarity(problem, u_vals, w_vals, grad_u, grad_w)

    iterations = 0
    step = options.initial_step
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
            if f_new <= fx + options.armijo_c * decrease:
                accepted = True
                break
            t *= options.backtrack_factor
        if not accepted:
            break  # machine-precision stationary; keep the current iterate

        prev_u, prev_w, prev_gu, prev_gw = u_vals, w_vals, grad_u, grad_w
        u_vals, w_vals = u_new, w_new
        step = t
        iterations += 1
        fx, grad_u, grad_w = problem.value_and_gradient(u_vals, w_vals)
        res = _stationarity(problem, u_vals, w_vals, grad_u, grad_w)
        converged = res <= options.stationarity_tol

    u_path = ContinuousControlPath(grid, u_vals, system.control_lower, system.control_upper)
    w_path = RelaxedControlPath(grid, w_vals)
    return RelaxedSolveResult(
        u=u_path, w=w_path, value=fx, stationarity=res,
        iterations=iterations, converged=converged,
    )
