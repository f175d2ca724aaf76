"""Static, recursive and Markov-modulated market risk measures.

The package evaluates value-at-risk and conditional value-at-risk in three
progressively richer settings: one-period (static) measures with closed
forms for Gaussian and Weibull returns, a backward recursion that rolls a
static measure through a sequence of period returns, and a regime-switching
variant where a Markov chain selects the return parameters and tomorrow's
risk is predicted through the chain's transition kernel.  Calibration,
axiom verification on finite probability spaces, and a seeded experiment
runner with fixed-schema CSV/JSON output sit on top.
"""

from .distributions import (
    EmpiricalSample,
    GaussianParams,
    ModelFamily,
    ReturnModel,
    WeibullParams,
    expected_positive_part,
    model_from_params,
    model_params_dict,
    sample,
)
from .dynamic_risk import (
    CvarMode,
    modulated_cvar_trajectory,
    modulated_var_trajectory,
    recursive_cvar,
    recursive_risk_generic,
    recursive_var_gaussian_closed,
    recursive_var_weibull_closed,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericError,
    RiskEngineError,
)
from .markov import TransitionMatrix, simulate_path
from .scenario import (
    ExperimentConfig,
    ExperimentResult,
    ReferenceStudy,
    SummaryStats,
    build_reference_experiment,
    emit_trajectories,
    fit_gaussian,
    fit_weibull,
    load_returns,
    run_experiment,
)
from .static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    cvar_ru,
    cvar_tail,
    evaluate,
    ru_objective,
    var,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CvarMode",
    "DataError",
    "DomainError",
    "EmpiricalSample",
    "ExperimentConfig",
    "ExperimentResult",
    "GaussianParams",
    "MeasureKind",
    "ModelFamily",
    "NumericError",
    "Orientation",
    "ReferenceStudy",
    "ReturnModel",
    "RiskEngineError",
    "RiskMeasureSpec",
    "SummaryStats",
    "TransitionMatrix",
    "WeibullParams",
    "build_reference_experiment",
    "cvar_ru",
    "cvar_tail",
    "emit_trajectories",
    "evaluate",
    "expected_positive_part",
    "fit_gaussian",
    "fit_weibull",
    "load_returns",
    "model_from_params",
    "model_params_dict",
    "modulated_cvar_trajectory",
    "modulated_var_trajectory",
    "recursive_cvar",
    "recursive_risk_generic",
    "recursive_var_gaussian_closed",
    "recursive_var_weibull_closed",
    "ru_objective",
    "run_experiment",
    "sample",
    "simulate_path",
    "var",
    "__version__",
]
