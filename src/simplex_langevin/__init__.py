"""Langevin-perturbed multiplicative weights optimization on probability
simplices: Shahshahani-metric geometry, noisy and deterministic
multiplicative-weights updates, a projected-Langevin baseline, benchmark
objectives, and a rolling-window portfolio evaluation protocol.
"""
from .geometry import (
    DegeneratePointError,
    RetractionFailureError,
    TangentVector,
    barycenter,
    christoffel_drift,
    distance_sq_barycenter,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
    log_map,
    sample_noise,
    shahshahani_gradient,
    simplex_point,
)
from .objectives import (
    Objective,
    PortfolioLoss,
    TEST_FUNCTION_IDS,
    finite_difference_gradient,
    portfolio_moments,
    portfolio_objective,
    test_function,
)
from .optimizers import (
    LmwuConfig,
    Method,
    StepFailureError,
    StepSizeError,
    TheoryBudget,
    Trajectory,
    lmwu_step,
    mwu_exponential_step,
    mwu_linear_step,
    projected_langevin_step,
    run_chains,
    run_optimizer,
    theoretical_iteration_budget,
    theoretical_step_bound,
)
from .portfolio import (
    DEFAULT_FIT_CONFIG,
    DEFAULT_WINDOW,
    RISK_PRESETS,
    EvaluationReport,
    ReturnPanel,
    ReturnsParseError,
    RiskPreset,
    ScoreTable,
    compare_methods,
    load_returns,
    rolling_window_evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "DegeneratePointError",
    "RetractionFailureError",
    "TangentVector",
    "barycenter",
    "christoffel_drift",
    "distance_sq_barycenter",
    "euclidean_simplex_projection",
    "exp_map",
    "lift_to_interior",
    "log_map",
    "sample_noise",
    "shahshahani_gradient",
    "simplex_point",
    # objectives
    "Objective",
    "PortfolioLoss",
    "TEST_FUNCTION_IDS",
    "finite_difference_gradient",
    "portfolio_moments",
    "portfolio_objective",
    "test_function",
    # optimizers
    "LmwuConfig",
    "Method",
    "StepFailureError",
    "StepSizeError",
    "TheoryBudget",
    "Trajectory",
    "lmwu_step",
    "mwu_exponential_step",
    "mwu_linear_step",
    "projected_langevin_step",
    "run_chains",
    "run_optimizer",
    "theoretical_iteration_budget",
    "theoretical_step_bound",
    # portfolio
    "DEFAULT_FIT_CONFIG",
    "DEFAULT_WINDOW",
    "RISK_PRESETS",
    "EvaluationReport",
    "ReturnPanel",
    "ReturnsParseError",
    "RiskPreset",
    "ScoreTable",
    "compare_methods",
    "load_returns",
    "rolling_window_evaluate",
]
