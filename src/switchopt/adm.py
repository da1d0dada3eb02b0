"""Penalty alternating-direction driver and the standalone heuristics.

The driver lifts the feasibility coupling v = v_tilde into a 1-norm penalty
with weight rho and alternates two directional solves at fixed rho: the
relaxed control solve over (u, w) with the projected iterate fixed, and the
exact dwell projection with (u, w) fixed.  An outer loop increases rho until
the penalty value drops below tolerance.  Each directional solve records the
two break inequalities it checked so terminated runs carry an auditable
partial-optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    MODEWISE,
    BinaryControlPath,
    CombinatorialSpec,
    ContinuousControlPath,
    RelaxedControlPath,
    TimeGrid,
    _is_int,
    check_feasible,
    onehot_to_binary,
)
from .errors import DimensionError
from .relaxed import RelaxedSolveOptions, solve_relaxed_poc
from .rounding import (
    _ciap_admissible,
    constrained_ciap,
    dwell_project_weighted,
    sum_up_rounding,
)
from .simulate import (
    SwitchedSystem,
    _sweep_memo,
    integrate,
    objective,
    weighted_penalty_value,
)

#: The two ADM variants, named by their CLI methods.
ADM_SUR = "adm-sur"
ADM_PLAIN = "adm"

#: Most rungs a penalty ladder may have; the default ladder has 11.
MAX_LADDER_RUNGS = 1000


@dataclass(frozen=True)
class PenaltySchedule:
    """Multiplicative penalty ladder; the first sweep always runs at rho = 0."""

    rho_initial: float = 1e-3
    increment_factor: float = 10.0
    rho_max: float = 1e6

    def __post_init__(self):
        # An infinite rho_max would never end the ladder.
        if not np.isfinite([self.rho_initial, self.increment_factor, self.rho_max]).all():
            raise DimensionError("penalty ladder values must be finite")
        if not 0 < self.rho_initial <= self.rho_max:
            raise DimensionError("need 0 < rho_initial <= rho_max")
        if not self.increment_factor > 1:
            raise DimensionError("increment_factor must exceed 1")
        # A difference of logs: the ratio of two finite values can overflow.
        span = np.log(self.rho_max) - np.log(self.rho_initial)
        if span / np.log(self.increment_factor) > MAX_LADDER_RUNGS:
            raise DimensionError(f"penalty ladder exceeds {MAX_LADDER_RUNGS} rungs")

    def ladder(self) -> tuple:
        rhos = [0.0]
        rho = self.rho_initial
        while rho <= self.rho_max * (1 + 1e-12):
            rhos.append(rho)
            rho *= self.increment_factor
        return tuple(rhos)


@dataclass(frozen=True)
class AdmOptions:
    epsilon: float = 1e-3
    penalty_stop_tol: float = 1e-4
    max_inner_iterations: int = 50
    variant: str = ADM_SUR
    relaxed_options: Optional[RelaxedSolveOptions] = None

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf and 0 < self.penalty_stop_tol < np.inf):
            raise DimensionError("epsilon and penalty_stop_tol must be positive and finite")
        if not (_is_int(self.max_inner_iterations) and self.max_inner_iterations >= 1):
            raise DimensionError("max_inner_iterations must be an integer >= 1")
        if self.variant not in (ADM_SUR, ADM_PLAIN):
            raise DimensionError(f"unknown variant {self.variant!r}")

    def solver_options(self) -> RelaxedSolveOptions:
        """Relaxed-solver options with the accuracy tied to epsilon.

        The stationarity target scales with the alternation accuracy; a
        fixed tighter floor buys value changes far below epsilon at a large
        iteration cost on chattering instances.
        """
        if self.relaxed_options is not None:
            return self.relaxed_options
        return RelaxedSolveOptions(stationarity_tol=self.epsilon / 10.0)


@dataclass(frozen=True)
class InnerStepRecord:
    """One alternation step: the two directional solves and their tests."""

    outer_index: int
    inner_index: int
    rho: float
    relaxed_value: float
    relaxed_converged: bool
    objective_value: float
    penalty_before: float
    psi_previous: float
    psi_after_poc: float
    penalty_after: Optional[float]
    psi_after_mip: Optional[float]
    break_fired: Optional[str]
    discarded_candidate_psi: Optional[float] = None
    relaxed_iterations: int = 0
    relaxed_stationarity: float = float("nan")


@dataclass(frozen=True)
class PEpsCertificate:
    """Recorded slack of the two directional optimality inequalities."""

    rho: float
    epsilon: float
    penalty_current: float
    penalty_projected: float
    mip_slack: float
    psi_current: float
    psi_resolved: float
    poc_slack: float

    @property
    def mip_exact(self) -> bool:
        return self.mip_slack == 0.0

    @property
    def poc_within_epsilon(self) -> bool:
        return self.poc_slack < self.epsilon


@dataclass(frozen=True, eq=False)
class AdmResult:
    """Result of every pipeline method: the two ADM variants, SUR, CIAP, and
    the CLI's relaxation (``poc``) and oracle runs.

    ``v_final`` and ``v_tilde_final`` are None only for the CLI's ``poc``
    result, whose control is the relaxed path ``relaxed_w_final``.
    """

    u_final: ContinuousControlPath
    v_final: Optional[BinaryControlPath]
    v_tilde_final: Optional[BinaryControlPath]
    objective: float
    penalty_value: float
    rho_final: float
    feasible: bool
    p_eps_certificate: Optional[PEpsCertificate]
    trace: tuple
    method: str
    converged: bool = True
    relaxed_w_final: Optional[RelaxedControlPath] = None


def _integer_result(system, grid, spec, u: ContinuousControlPath,
                    w_onehot: RelaxedControlPath, v_tilde=None, **fields) -> AdmResult:
    """Result whose control is the one-hot path ``w_onehot``.

    The path is re-simulated with ``u`` and its binary form is checked
    exactly against the constraint set.  ``v_tilde`` defaults to that binary
    path; ``fields`` are the remaining ``AdmResult`` fields, where penalty,
    rho, certificate and trace default to empty.
    """
    v = onehot_to_binary(w_onehot, system.modes)
    fields = {"penalty_value": 0.0, "rho_final": 0.0, "p_eps_certificate": None,
              "trace": (), **fields}
    return AdmResult(
        u_final=u, v_final=v, v_tilde_final=v if v_tilde is None else v_tilde,
        objective=objective(system, integrate(system, grid, u, w_onehot)),
        feasible=check_feasible(v, spec, grid).feasible, **fields,
    )


class _Point(NamedTuple):
    """One lifted iterate: continuous controls, multipliers, projected path."""

    u: ContinuousControlPath
    w: RelaxedControlPath
    v_tilde: BinaryControlPath


def _psi_parts(system, grid, point: _Point, rho: float):
    obj = objective(system, integrate(system, grid, point.u, point.w))
    pen = weighted_penalty_value(system, grid, point.w, point.v_tilde)
    return obj, pen, obj + rho * pen


def default_initial_guess(system: SwitchedSystem, grid: TimeGrid) -> _Point:
    """Constant first-mode projection, uniform multipliers, box-midpoint u."""
    u0 = ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper)
    w0 = RelaxedControlPath.uniform(grid, system.modes.n_modes)
    v0 = BinaryControlPath.constant(grid, system.modes.values[0])
    return _Point(u0, w0, v0)


def _control_step(system, grid, v_tilde, rho, options: AdmOptions, warm):
    """The control direction: relaxed solve, the variant's step, then psi.

    Returns (solve result, stepped multipliers, objective, penalty, psi).
    The SUR variant rounds the relaxed multipliers and re-simulates; the
    plain variant keeps them and reads the objective off the solve's value.
    """
    sol = solve_relaxed_poc(system, grid, v_tilde, rho, warm, options.solver_options())
    w_new = sum_up_rounding(sol.w, grid) if options.variant == ADM_SUR else sol.w
    pen_new = weighted_penalty_value(system, grid, w_new, v_tilde)
    obj_new = (
        objective(system, integrate(system, grid, sol.u, w_new))
        if options.variant == ADM_SUR else sol.value - rho * pen_new
    )
    return sol, w_new, obj_new, pen_new, obj_new + rho * pen_new


def inner_alternation(system: SwitchedSystem, grid: TimeGrid,
                      spec: CombinatorialSpec, rho: float, options: AdmOptions,
                      start_point, outer_index: int = 1,
                      solver_warm=None):
    """Alternate the two directional solves at fixed rho until a break fires.

    ``start_point`` is an (u, w, v_tilde) triple.  Returns
    (point, break_reason, records, certified, solver_warm) where ``certified``
    is False only when the iteration budget ran out.  The relaxed-solver warm
    start is threaded separately from the iterate so that later sweeps reuse
    the best available relaxed solution.
    """
    eps_half = options.epsilon / 2.0
    point = _Point(*start_point)
    u_it, w_it, v_tilde = point.u, point.w, point.v_tilde
    if solver_warm is None:
        solver_warm = (u_it, w_it)

    _, _, psi_cur = _psi_parts(system, grid, point, rho)
    records = []
    for l in range(options.max_inner_iterations):
        sol, w_new, obj_new, pen_new, psi_new = _control_step(
            system, grid, v_tilde, rho, options, solver_warm
        )
        solver_warm = (sol.u, sol.w)
        pen_after = psi_after = discarded = None
        if psi_new >= psi_cur - eps_half:
            fired = "poc_stall"
        else:
            v_tilde_new = dwell_project_weighted(w_new, system.modes, spec, grid)
            pen_after = weighted_penalty_value(system, grid, w_new, v_tilde_new)
            psi_after = obj_new + rho * pen_after
            # When the projection step cannot improve by eps/2, the previous
            # projection is eps/2-optimal for the fresh control pair and the
            # pair (u^{l+1}, v^{l+1}, vtilde^l) carries the certificate in
            # both directions.  The value of the index-l candidate is logged
            # alongside for audit.
            fired = "mip_stall" if psi_after >= psi_new - eps_half else None
            if fired is not None:
                discarded = psi_cur
        records.append(InnerStepRecord(
            outer_index, l, rho, sol.value, sol.converged, obj_new,
            pen_new, psi_cur, psi_new, pen_after, psi_after, fired,
            discarded_candidate_psi=discarded, relaxed_iterations=sol.iterations,
            relaxed_stationarity=sol.stationarity,
        ))
        if fired is not None:
            return _Point(sol.u, w_new, v_tilde), fired, records, True, solver_warm
        u_it, w_it, v_tilde = sol.u, w_new, v_tilde_new
        psi_cur = psi_after
    return _Point(u_it, w_it, v_tilde), "max_inner", records, False, solver_warm


def _certificate(system, grid, spec, rho, options, point: _Point) -> PEpsCertificate:
    """Slack of both directional inequalities at a terminated point.

    The projection direction is exact, so its slack is the achievable
    penalty-term improvement (zero at a fixed point).  The control direction
    re-runs the variant's own solve step from the final point and measures
    the achieved improvement of the penalized value.
    """
    _, pen_cur, psi_cur = _psi_parts(system, grid, point, rho)
    v_proj = dwell_project_weighted(point.w, system.modes, spec, grid)
    pen_best = weighted_penalty_value(system, grid, point.w, v_proj)
    mip_slack = max(0.0, pen_cur - pen_best)

    *_, psi_re = _control_step(
        system, grid, point.v_tilde, rho, options, (point.u, point.w)
    )
    poc_slack = max(0.0, psi_cur - psi_re)
    return PEpsCertificate(
        rho=rho, epsilon=options.epsilon,
        penalty_current=pen_cur, penalty_projected=pen_best, mip_slack=mip_slack,
        psi_current=psi_cur, psi_resolved=psi_re, poc_slack=poc_slack,
    )


@_sweep_memo()
def adm_penalty(system: SwitchedSystem, grid: TimeGrid, spec: CombinatorialSpec,
                schedule: PenaltySchedule = PenaltySchedule(),
                options: AdmOptions = AdmOptions()) -> AdmResult:
    """Run the full penalty alternation until the coupling gap closes.

    The alternation starts from ``default_initial_guess``: its projected path
    is the constant first mode, which has no switch and so meets every dwell
    and budget rule.  The outer loop sweeps the penalty ladder (first sweep
    at rho = 0), warm-starting each sweep from the previous one's result, and
    stops once the integrated multiplier/projection gap of the sweep result
    drops below ``penalty_stop_tol`` or the ladder is exhausted.  The
    reported control is the sum-up rounding of the final multipliers, which
    is the final iterate itself when that is one-hot (rows within 1e-9 of a
    vertex round to that vertex); ``feasible`` re-checks it exactly.  The
    run sweeps each control point once (``simulate._sweep_memo``).
    """
    point = default_initial_guess(system, grid)
    trace = []
    solver_warm = None
    converged = False
    rho_final = 0.0
    certified = True
    for k, rho in enumerate(schedule.ladder(), start=1):
        point, reason, records, cert_ok, solver_warm = inner_alternation(
            system, grid, spec, rho, options, point, k, solver_warm
        )
        trace.extend(records)
        certified = cert_ok
        rho_final = rho
        penalty = weighted_penalty_value(system, grid, point.w, point.v_tilde)
        if penalty < options.penalty_stop_tol:
            converged = True
            break

    certificate = (
        _certificate(system, grid, spec, rho_final, options, point)
        if certified else None
    )
    return _integer_result(
        system, grid, spec, point.u, sum_up_rounding(point.w, grid), point.v_tilde,
        penalty_value=penalty, rho_final=rho_final, p_eps_certificate=certificate,
        trace=tuple(trace), method=options.variant,
        converged=converged, relaxed_w_final=point.w,
    )


# ---------------------------------------------------------------------------
# Standalone comparison heuristics
# ---------------------------------------------------------------------------


def _poc_solution(system: SwitchedSystem, grid: TimeGrid,
                  options: Optional[RelaxedSolveOptions] = None):
    """Relaxed convexified solve with the constraint set dropped and rho 0."""
    guess = default_initial_guess(system, grid)
    return solve_relaxed_poc(
        system, grid, guess.v_tilde, 0.0, (guess.u, guess.w),
        options or RelaxedSolveOptions(),
    )


def poc_lower_bound(system: SwitchedSystem, grid: TimeGrid,
                    options: Optional[RelaxedSolveOptions] = None) -> float:
    """Value of the relaxation; a lower bound for every binary feasible path
    once the relaxed solve is tight (exact for convex instances)."""
    return _poc_solution(system, grid, options).value


def lift_to_modewise(spec: CombinatorialSpec) -> CombinatorialSpec:
    """Conservative mode-level spec whose feasibility implies the original.

    A mode-sequence dwell of max(min_dwell) intervals forces every component
    to dwell at least that long, and a mode-switch budget of min(max_switches)
    caps every component's switches.  Max-dwell rules do not transfer.
    """
    if spec.representation == MODEWISE:
        return spec
    if spec.max_dwell is not None:
        raise DimensionError("max-dwell rules cannot be lifted to mode level")
    return CombinatorialSpec(
        min_dwell=(max(spec.min_dwell),),
        max_switches=None if spec.max_switches is None else (min(spec.max_switches),),
        representation=MODEWISE,
    )


def ciap_heuristic(system: SwitchedSystem, grid: TimeGrid, spec: CombinatorialSpec,
                   options: Optional[RelaxedSolveOptions] = None) -> AdmResult:
    """Relaxed solve followed by the dwell-constrained integral approximation.

    Multi-component specs are lifted to a conservative mode-level dwell, so
    the result is always feasible for the original spec (at possibly larger
    deviation).
    """
    sol = _poc_solution(system, grid, options)
    spec_bnb = (
        spec if _ciap_admissible(spec, system.modes.n_modes) else lift_to_modewise(spec)
    )
    res = constrained_ciap(sol.w, spec_bnb, grid)
    return _integer_result(system, grid, spec, sol.u, res.control, method="ciap",
                           converged=res.proven_optimal, relaxed_w_final=sol.w)


def sur_heuristic(system: SwitchedSystem, grid: TimeGrid, spec: CombinatorialSpec,
                  options: Optional[RelaxedSolveOptions] = None) -> AdmResult:
    """Relaxed solve followed by plain integral-gap rounding.

    The rounding ignores the constraint set, so the feasibility flag simply
    reports the exact check on the rounded path (typically false for tight
    dwell times).
    """
    sol = _poc_solution(system, grid, options)
    return _integer_result(system, grid, spec, sol.u, sum_up_rounding(sol.w, grid),
                           method="sur", converged=sol.converged, relaxed_w_final=sol.w)
