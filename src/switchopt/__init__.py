"""Solvers for switched-system optimal control with dwell-time constraints.

The pipeline: relax the switching decisions into simplex multipliers, solve
the relaxed control problem, round or project back onto the dwell-feasible
binary set, and couple the two sides through an increasing 1-norm penalty
driven by an alternating-direction loop.  Exact combinatorial building
blocks (dwell projection by dynamic programming, constrained integral
approximation by branch and bound, a brute-force oracle) double as
independent baselines.
"""

from .adm import (
    ADM_PLAIN,
    ADM_SUR,
    AdmOptions,
    AdmResult,
    InnerStepRecord,
    PenaltySchedule,
    PEpsCertificate,
    adm_penalty,
    ciap_heuristic,
    default_initial_guess,
    inner_alternation,
    lift_to_modewise,
    poc_lower_bound,
    sur_heuristic,
)
from .benchmarks import (
    FullerConfig,
    TransLine,
    TranslinesConfig,
    build_fuller,
    build_translines,
    translines_subgrid_config,
)
from .core import (
    COMPONENTWISE,
    MODEWISE,
    BinaryControlPath,
    CombinatorialSpec,
    ContinuousControlPath,
    FeasibilityReport,
    ModeTable,
    RelaxedControlPath,
    TimeGrid,
    Violation,
    binary_to_onehot,
    check_feasible,
    cia_deviation,
    dwell_intervals,
    enumerate_modes,
    mode_deviation_costs,
    onehot_to_binary,
    penalty_term,
    switch_count,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    InfeasibleError,
    RepresentationError,
    SwitchOptError,
)
from .relaxed import (
    RelaxedSolveOptions,
    RelaxedSolveResult,
    best_response_continuous,
    project_simplex,
    solve_relaxed_poc,
)
from .rounding import (
    CiapResult,
    OracleResult,
    constrained_ciap,
    dwell_project,
    dwell_project_weighted,
    global_oracle,
    sum_up_rounding,
)
from .simulate import (
    EULER,
    RK4,
    SwitchedSystem,
    Trajectory,
    adjoint_gradient,
    integrate,
    objective,
    penalized_objective,
    validate_derivatives,
    weighted_penalty_value,
)

__version__ = "0.1.0"
