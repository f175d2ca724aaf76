"""Static, recursive and Markov-modulated market risk measures.

The package evaluates value-at-risk and conditional value-at-risk in three
progressively richer settings: one-period (static) measures with closed
forms for Gaussian and Weibull returns, a backward recursion that rolls a
static measure through a sequence of period returns, and a regime-switching
variant where a Markov chain selects the return parameters and tomorrow's
risk is predicted through the chain's transition kernel.  Calibration,
axiom verification on finite probability spaces, and a seeded experiment
runner with fixed-schema CSV/JSON output sit on top.

Importing the package loads none of its modules.  Each exported name is
looked up in its home module on every access (PEP 562), so the first access
imports that module, and a function replaced there is what the package
returns.
"""

import importlib

__version__ = "0.1.0"

#: The home module of each exported name.
_EXPORTS = {
    **dict.fromkeys(
        ("ConfigError", "DataError", "DomainError", "NumericError", "RiskEngineError"),
        "errors",
    ),
    **dict.fromkeys(
        ("EmpiricalSample", "GaussianParams", "ModelFamily", "ReturnModel", "WeibullParams",
         "expected_positive_part", "model_from_params", "model_params_dict", "sample"),
        "distributions",
    ),
    **dict.fromkeys(
        ("MeasureKind", "Orientation", "RiskMeasureSpec", "cvar_ru", "cvar_tail", "evaluate",
         "ru_objective", "var"),
        "static_risk",
    ),
    **dict.fromkeys(("TransitionMatrix", "simulate_path"), "markov"),
    **dict.fromkeys(
        ("CvarMode", "modulated_cvar_trajectory", "modulated_var_trajectory", "recursive_cvar",
         "recursive_risk_generic", "recursive_var_gaussian_closed",
         "recursive_var_weibull_closed"),
        "dynamic_risk",
    ),
    **dict.fromkeys(
        ("ExperimentConfig", "ExperimentResult", "ReferenceStudy", "SummaryStats",
         "build_reference_experiment", "emit_trajectories", "fit_gaussian", "fit_weibull",
         "load_returns", "run_experiment"),
        "scenario",
    ),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
