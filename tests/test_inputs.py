"""One input rule per kind, checked at every public entry point.

Each row names an entry point, the argument under test, the kind of that
argument and the engine error class the entry point raises.  Every row is
fed a bool, a numeric string, a non-numeric string, ``None``, a ragged
nesting and NaN, which must raise that class with a message naming the
argument; and numpy scalars or 0-d arrays, which must give what the plain
Python value gives.  Counts are also fed fractions, integral floats and
negatives; arrays get the bad values mixed into a list of good ones.
"""

import math

import numpy as np
import pytest

from riskflow.axioms import (
    DynamicAxiom,
    FiniteProcess,
    RecursiveFiniteMeasure,
    StaticAxiom,
    bundled_pair_processes,
    check_dynamic_axiom,
    check_static_axiom,
    filtration_partition,
)
from riskflow.distributions import (
    EmpiricalSample,
    GaussianParams,
    WeibullParams,
    expected_positive_part,
    model_from_params,
    sample,
)
from riskflow.dynamic_risk import (
    modulated_cvar_trajectory,
    recursive_cvar,
    recursive_var_gaussian_closed,
    recursive_var_weibull_closed,
)
from riskflow.errors import ConfigError, DataError, DomainError
from riskflow.markov import TransitionMatrix, one_step_linked_expectation, simulate_path
from riskflow.scenario import ExperimentConfig, fit_gaussian, fit_weibull
from riskflow.static_risk import (
    MeasureKind,
    Orientation,
    RiskMeasureSpec,
    cvar_ru,
    cvar_tail,
    ru_objective,
    var,
)

ROWS = ((0.25, 0.75), (0.35, 0.65))
MATRIX = TransitionMatrix.from_rows(ROWS)
GAUSSIAN = GaussianParams(0.5, 2.0)
WEIBULL = WeibullParams(1.5, 0.8, -1.0)
SAMPLE = EmpiricalSample((1.0, 5.0, 9.0))
VAR_LOWER = RiskMeasureSpec(MeasureKind.VAR, 0.95, Orientation.LOWER_TAIL)
PAIRS = bundled_pair_processes(DynamicAxiom.D3, n_pairs=1, n_atoms=2, T=1)
PAIR_MODELS = [GaussianParams(1.0, 0.5), GaussianParams(-2.0, 2.0)]


def config(**overrides):
    fields = dict(
        family="gaussian",
        params={"mu": (1.0, -1.0), "sigma": (0.5, 0.8)},
        transition_matrix=ROWS,
        orientation="row",
        initial_state=1,
        p=0.95,
        horizon=3,
        n_paths=2,
        seed=11,
        measures=("var", "cvar"),
        cvar_mode="exact",
    )
    return ExperimentConfig(**dict(fields, **overrides))


def gaussian_params(key, value):
    other = {"mu": (1.0, -1.0), "sigma": (0.5, 0.8)}
    return config(params=dict(other, **{key: value}))


#: (id, kind, good value, call with the value, error class, message fragment)
SITES = [
    # Counts: non-negative integers.
    ("sample-gaussian-n", "count", 5, lambda n: sample(GAUSSIAN, n, 3), DomainError, "sample size"),
    ("sample-weibull-n", "count", 5, lambda n: sample(WEIBULL, n, 3), DomainError, "sample size"),
    ("sample-empirical-n", "count", 5, lambda n: sample(SAMPLE, n, 3), DomainError, "sample size"),
    ("sample-seed", "count", 7, lambda s: sample(GAUSSIAN, 4, s), DomainError, "seed"),
    ("sample-shape", "count", 2, lambda n: sample(WEIBULL, (n, 4), 3), DomainError, "sample size"),
    ("simulate_path-horizon", "count", 4, lambda h: simulate_path(MATRIX, 1, h, 7),
     DomainError, "horizon"),
    ("simulate_path-seed", "count", 7, lambda s: simulate_path(MATRIX, 1, 4, s),
     DomainError, "seed"),
    ("simulate_path-initial_state", "count", 2, lambda s: simulate_path(MATRIX, s, 4, 7),
     DomainError, "state ind"),
    ("one_step_linked_expectation-state", "count", 2,
     lambda s: one_step_linked_expectation(MATRIX, [1.0, 2.0], s), DomainError, "state ind"),
    ("check_static_axiom-trials", "count", 5,
     lambda n: check_static_axiom(StaticAxiom.P2, VAR_LOWER, trials=n), DomainError, "trials"),
    ("check_static_axiom-seed", "count", 7,
     lambda s: check_static_axiom(StaticAxiom.P4, VAR_LOWER, trials=5, seed=s),
     DomainError, "seed"),
    ("check_dynamic_axiom-seed", "count", 7,
     lambda s: check_dynamic_axiom(DynamicAxiom.D3, RecursiveFiniteMeasure(VAR_LOWER), PAIRS, s),
     DomainError, "seed"),
    ("filtration_partition-t", "count", 1, lambda t: filtration_partition([PAIRS[0][0]], t),
     DomainError, "time"),
    ("atom_values-t", "count", 1,
     lambda t: RecursiveFiniteMeasure(VAR_LOWER).atom_values(PAIRS[0][0], t, [(0, 1)]),
     DomainError, "time"),
    ("bundled_pair_processes-n_pairs", "count", 2,
     lambda n: bundled_pair_processes(DynamicAxiom.D2, n_pairs=n), DomainError, "n_pairs"),
    ("bundled_pair_processes-n_atoms", "count", 4,
     lambda n: bundled_pair_processes(DynamicAxiom.D2, n_atoms=n), DomainError, "n_atoms"),
    ("bundled_pair_processes-T", "count", 2,
     lambda n: bundled_pair_processes(DynamicAxiom.D2, T=n), DomainError, "T"),
    ("bundled_pair_processes-seed", "count", 7,
     lambda s: bundled_pair_processes(DynamicAxiom.D2, seed=s), DomainError, "seed"),
    ("ExperimentConfig-initial_state", "count", 2, lambda v: config(initial_state=v),
     ConfigError, "initial_state"),
    ("ExperimentConfig-horizon", "count", 3, lambda v: config(horizon=v), ConfigError, "horizon"),
    ("ExperimentConfig-n_paths", "count", 2, lambda v: config(n_paths=v), ConfigError, "n_paths"),
    ("ExperimentConfig-seed", "count", 11, lambda v: config(seed=v), ConfigError, "seed"),
    # Real numbers: finite Python or numpy reals.
    ("var-p", "real", 0.9, lambda p: var(GAUSSIAN, p), DomainError, "confidence level"),
    ("cvar_tail-p", "real", 0.9, lambda p: cvar_tail(WEIBULL, p), DomainError, "confidence level"),
    ("cvar_ru-p", "real", 0.9, lambda p: cvar_ru(GAUSSIAN, p), DomainError, "confidence level"),
    ("ru_objective-p", "real", 0.9, lambda p: ru_objective(GAUSSIAN, p, 1.0), DomainError,
     "confidence level"),
    ("ru_objective-eta", "real", 1.5, lambda e: ru_objective(GAUSSIAN, 0.9, e), DomainError,
     "threshold"),
    ("expected_positive_part-a", "real", 1.5, lambda a: expected_positive_part(WEIBULL, a),
     DomainError, "threshold"),
    ("RiskMeasureSpec-p", "real", 0.9, lambda p: RiskMeasureSpec(MeasureKind.VAR, p),
     DomainError, "confidence level"),
    ("recursive_var_gaussian_closed-p", "real", 0.9,
     lambda p: recursive_var_gaussian_closed([1.0, 2.0], [1.0, 0.5], p), DomainError,
     "confidence level"),
    ("GaussianParams-mu", "real", 0.5, lambda v: GaussianParams(v, 2.0), DomainError, "mu"),
    ("GaussianParams-sigma", "real", 2.0, lambda v: GaussianParams(0.5, v), DomainError, "sigma"),
    ("WeibullParams-lam", "real", 1.5, lambda v: WeibullParams(v, 0.8), DomainError, "scale"),
    ("WeibullParams-alpha", "real", 1.0, lambda v: WeibullParams(1.5, v), DomainError, "shape"),
    ("WeibullParams-theta", "real", -1.0, lambda v: WeibullParams(1.5, 0.8, v), DomainError,
     "location"),
    ("GaussianParams-shift", "real", 0.5, lambda c: GAUSSIAN.shift(c), DomainError, "shift"),
    ("WeibullParams-shift", "real", 0.5, lambda c: WEIBULL.shift(c), DomainError, "shift"),
    ("EmpiricalSample-shift", "real", 0.5, lambda c: SAMPLE.shift(c), DomainError, "shift"),
    ("model_from_params-mu", "real", 0.5,
     lambda v: model_from_params("gaussian", {"mu": v, "sigma": 1.0}), DataError, "param 'mu'"),
    ("ExperimentConfig-p", "real", 0.95, lambda p: config(p=p), ConfigError, "p must"),
    # Arrays of real numbers.
    ("TransitionMatrix", "reals", [[0.25, 0.35], [0.75, 0.65]], TransitionMatrix, ConfigError,
     "transition matrix"),
    ("TransitionMatrix.from_rows", "reals", [[0.25, 0.75], [0.35, 0.65]],
     TransitionMatrix.from_rows, ConfigError, "transition matrix"),
    ("TransitionMatrix.from_columns", "reals", [[0.25, 0.35], [0.75, 0.65]],
     TransitionMatrix.from_columns, ConfigError, "transition matrix"),
    ("one_step_linked_expectation-values", "reals", [1.0, 2.0],
     lambda v: one_step_linked_expectation(MATRIX, v, 1), DomainError, "per-state values"),
    ("recursive_var_gaussian_closed-mus", "reals", [1.0, 2.0],
     lambda v: recursive_var_gaussian_closed(v, [1.0, 0.5], 0.9), DomainError, "mus"),
    ("recursive_var_gaussian_closed-sigmas", "reals", [1.0, 0.5],
     lambda v: recursive_var_gaussian_closed([1.0, 2.0], v, 0.9), DomainError, "sigmas"),
    ("recursive_var_weibull_closed-lambdas", "reals", [1.0, 2.0],
     lambda v: recursive_var_weibull_closed(v, [1.0, 0.5], [0.0, 1.0], 0.9), DomainError,
     "lambdas"),
    ("recursive_var_weibull_closed-thetas", "reals", [0.0, 1.0],
     lambda v: recursive_var_weibull_closed([1.0, 2.0], [1.0, 0.5], v, 0.9), DomainError,
     "thetas"),
    ("recursive_cvar-realized_path", "reals", [0.5, -1.0],
     lambda v: recursive_cvar([GAUSSIAN, WEIBULL], 0.9, "piecewise", v), DomainError,
     "realized_path"),
    ("modulated_cvar_trajectory-realized_returns", "reals", [0.5, -1.0],
     lambda v: modulated_cvar_trajectory(PAIR_MODELS, MATRIX, [1, 2, 2], v, 0.9), DomainError,
     "realized_returns"),
    ("EmpiricalSample", "reals", [5.0, 1.0, 9.0], EmpiricalSample, DataError, "empirical sample"),
    ("fit_gaussian", "reals", [1.0, 2.0, 4.0, 7.0], fit_gaussian, DataError, "observations"),
    ("fit_weibull", "reals", [1.0, 2.0, 4.0, 7.0], fit_weibull, DataError, "observations"),
    ("FiniteProcess-probs", "reals", [0.25, 0.75],
     lambda v: FiniteProcess(v, ((1.0, 2.0), (3.0, 4.0))), DataError, "atom probabilities"),
    ("FiniteProcess-payoffs", "reals", [[1.0, 2.0], [3.0, 4.0]],
     lambda v: FiniteProcess((0.25, 0.75), v), DataError, "payoffs"),
    ("model_from_params-values", "reals", [5.0, 1.0, 9.0],
     lambda v: model_from_params("empirical", {"values": v}), DataError, "empirical"),
    ("ExperimentConfig-transition_matrix", "reals", [[0.25, 0.75], [0.35, 0.65]],
     lambda v: config(transition_matrix=v), ConfigError, "transition matrix"),
    ("ExperimentConfig-params", "reals", [1.0, -1.0], lambda v: gaussian_params("mu", v),
     ConfigError, "param 'mu'"),
    # Enum members, or their values.
    ("RiskMeasureSpec-kind", "member", MeasureKind.CVAR, lambda k: RiskMeasureSpec(k, 0.9),
     DomainError, "MeasureKind"),
    ("RiskMeasureSpec-orientation", "member", Orientation.LOWER_TAIL,
     lambda o: RiskMeasureSpec(MeasureKind.VAR, 0.9, o), DomainError, "Orientation"),
    ("ExperimentConfig-family", "member", "weibull",
     lambda f: config(family=f, params={"lambda": (1.0, 2.0), "alpha": (1.0, 1.0),
                                        "theta": (0.0, 0.0)}), ConfigError, "ModelFamily"),
    ("ExperimentConfig-cvar_mode", "member", "piecewise", lambda m: config(cvar_mode=m),
     ConfigError, "CvarMode"),
]

_EVERY_KIND = {"bool": True, "numeric-string": "1", "string": "x", "none": None, "nan": math.nan}
BAD = {
    "count": dict(
        _EVERY_KIND, ragged=[[1], [2, 3]], fraction=1.5, integral_float=3.0,
        numpy_float=np.float64(3.0), negative=-1, numpy_bool=np.bool_(True),
        array_negative=np.array(-1), array_float=np.array(3.0),
    ),
    "real": dict(_EVERY_KIND, ragged=[[1.0], [2.0, 3.0]], inf=math.inf, numpy_bool=np.bool_(True),
                 array_1d=np.array([0.5])),
    "member": dict(_EVERY_KIND, ragged=[["var"], ["cvar", "var"]]),
}


def _spoil(good, bad):
    """``good`` with its first number replaced by ``bad``."""
    if isinstance(good, list):
        return [_spoil(good[0], bad)] + good[1:]
    return bad


def _bad_inputs(kind, good):
    if kind != "reals":
        return BAD[kind].items()
    spoilers = dict(_EVERY_KIND, ragged=[1.0, 2.0], numpy_bool=np.True_)
    return [(name, _spoil(good, bad)) for name, bad in spoilers.items()]


def _numpy_forms(kind, good):
    """Numpy spellings of ``good``: scalars, 0-d arrays, arrays, numpy strings."""
    if kind == "count":
        return [np.int64(good), np.uint8(good), np.array(good), np.array(good, dtype=np.int32)]
    if kind == "real":
        forms = [np.float64(good), np.array(good)]
        return forms + ([np.int64(good)] if float(good).is_integer() else [])
    if kind == "reals":
        return [np.array(good), _spoil(good, np.float64(_first(good)))]
    return [np.str_(good.value if hasattr(good, "value") else good)]


def _first(good):
    return _first(good[0]) if isinstance(good, list) else good


def _canonical(result):
    """A comparable form of a result: arrays by dtype, shape and bytes, the
    rest by ``repr``, which tells ``1.0`` from ``np.float64(1.0)``."""
    if isinstance(result, np.ndarray):
        return ("ndarray", result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, (list, tuple)):
        return [_canonical(r) for r in result]
    return repr(result)


def _plain(kind, good):
    """The plain Python value a numpy form is compared against."""
    if kind == "member":
        return good.value if hasattr(good, "value") else good
    return good


def _message(kind, fragment):
    """What a refusal's message must contain: a count's names the rule too,
    except a state's, since a list of states is checked as an index array."""
    if kind == "count" and not fragment.startswith("state"):
        return f"{fragment} must be a non-negative integer"
    return fragment


REJECTIONS = [
    pytest.param(call, bad, error, _message(kind, fragment), id=f"{site}-{name}")
    for site, kind, good, call, error, fragment in SITES
    for name, bad in _bad_inputs(kind, good)
]
NUMPY_FORMS = [
    pytest.param(call, form, _plain(kind, good), id=f"{site}-{type(form).__name__}{i}")
    for site, kind, good, call, _, _ in SITES
    for i, form in enumerate(_numpy_forms(kind, good))
]


@pytest.mark.parametrize("call, bad, error, fragment", REJECTIONS)
def test_bad_input_raises_the_sites_error(call, bad, error, fragment):
    with pytest.raises(error, match=fragment):
        call(bad)


@pytest.mark.parametrize("call, form, plain", NUMPY_FORMS)
def test_numpy_forms_equal_the_plain_python_call(call, form, plain):
    assert _canonical(call(form)) == _canonical(call(plain))


def test_every_site_has_a_good_value():
    for _, _, good, call, _, _ in SITES:
        call(good)
