"""Analysis toolkit for reputation-based service protocols in online communities.

Core pieces: protocol primitives (norms), expected payoffs against a census
(payoff), the single-user best-response solver (bestresponse), the designer's
feasibility analysis (design), exact census-chain analysis for small
communities (chain), and a Monte Carlo engine for large ones (sim).
"""

from .beliefs import updated_row
from .bestresponse import (
    BestResponseSolution,
    ClosedFormSolution,
    best_response,
    closed_form_bimodal,
    solve_policy_batch,
    subset_serve,
)
from .chain import (
    AbsorbingClassification,
    ConfigSpace,
    LimitingResult,
    StationaryDist,
    TransitionMatrix,
    build_transition_matrix,
    classify_absorbing,
    enumerate_configs,
    limiting_distribution,
    stationary_distribution,
    stationary_linear,
)
from .design import (
    AbsorbingBounds,
    absorbing_bounds,
    feasibility_test,
    feasible_region_grid,
    solve_H,
    write_region_csv,
)
from .norms import (
    CommunityParams,
    ConfigError,
    SocialNorm,
    load_norm,
    norm_from_dict,
)
from .payoff import model_arrays, opponent_of
from .sim import (
    ExperimentSpec,
    PeriodMetrics,
    SimState,
    bridge_occupancy,
    initial_state,
    run_evolution,
    run_experiment,
    run_period,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbingBounds",
    "AbsorbingClassification",
    "BestResponseSolution",
    "ClosedFormSolution",
    "CommunityParams",
    "ConfigError",
    "ConfigSpace",
    "ExperimentSpec",
    "LimitingResult",
    "PeriodMetrics",
    "SimState",
    "SocialNorm",
    "StationaryDist",
    "TransitionMatrix",
    "absorbing_bounds",
    "best_response",
    "bridge_occupancy",
    "build_transition_matrix",
    "classify_absorbing",
    "closed_form_bimodal",
    "enumerate_configs",
    "feasibility_test",
    "feasible_region_grid",
    "initial_state",
    "limiting_distribution",
    "load_norm",
    "model_arrays",
    "norm_from_dict",
    "opponent_of",
    "run_evolution",
    "run_experiment",
    "run_period",
    "solve_H",
    "solve_policy_batch",
    "stationary_distribution",
    "stationary_linear",
    "subset_serve",
    "updated_row",
    "write_region_csv",
]
