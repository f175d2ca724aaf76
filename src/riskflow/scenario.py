"""Calibration, experiment configuration, and simulation runs.

An :class:`ExperimentConfig` fully describes a regime-switching risk study:
a return family with one parameter set per chain state, a transition matrix
(row- or column-stochastic, kept in the orientation it was given), an
initial state, confidence level, horizon, number of seeded paths, and which
measures to evaluate.  :func:`run_experiment` walks every path's chain in
one stacked step per period, draws every path's returns in one batch,
evaluates the static, recursive, and modulated trajectories for all paths
at once on ``(n_paths, T + 1)`` arrays, and returns them as one
:class:`ExperimentResult` (per-path views are built only on request) with
its summary statistics; :func:`emit_trajectories` writes the fixed-schema
CSV/JSON tables straight from those arrays, from one table of distinct texts
per column, separators attached, and one gather and join per chunk of rows.
The CSV's bytes equal the ``csv`` module's, the JSON's ``json.dump(...,
indent=2)``'s, and reruns of the same config are byte-identical.

The two bundled reference configurations (:func:`build_reference_experiment`)
are one table of each :class:`ReferenceStudy`'s family and per-state
parameters, and the settings they share: a two-state chain, p = 0.99, a
10-day horizon and one path.  A Gaussian index-level study (annual index
mean/standard deviation) and a Weibull daily-increment study (scale and
shape fitted to daily increments) split their base values into a calm and a
stressed state at +/-5%; the Weibull shape is held constant across states.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields
from datetime import date
from enum import Enum
from importlib.resources import files as _resource_files
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .distributions import (
    FAMILIES,
    STANDARD_MODELS,
    GaussianParams,
    ModelFamily,
    ReturnModel,
    WeibullParams,
    model_from_params,
    sample,
)
from .dynamic_risk import (
    GAUSSIAN_MODULATED_CVAR_NOTE,
    CvarMode,
    modulated_cvar_trajectory,
    modulated_var_trajectory,
    recursive_cvar,
    recursive_var_gaussian_closed,
    recursive_var_weibull_closed,
)
from .errors import ConfigError, DataError, DomainError, NumericError
from .errors import _require_count, _require_member, _require_real, _require_reals
from .markov import TransitionMatrix, simulate_path
from .static_risk import cvar_tail, var

__all__ = [
    "ReferenceStudy",
    "ExperimentConfig",
    "ExperimentResult",
    "RiskColumns",
    "PathTrajectories",
    "SummaryStats",
    "fit_gaussian",
    "fit_weibull",
    "load_returns",
    "bundled_returns_path",
    "build_reference_experiment",
    "run_experiment",
    "emit_trajectories",
    "config_to_json",
    "config_from_json",
]

_MEASURE_NAMES = ("var", "cvar")
_SERIES = ("static", "recursive", "modulated")
_CSV_COLUMNS = tuple(f"{series}_{kind}" for kind in _MEASURE_NAMES for series in _SERIES)


class ReferenceStudy(str, Enum):
    """The two bundled reference experiments."""

    GAUSSIAN_MSCI = "gaussian_msci"
    WEIBULL_BBGEX = "weibull_bbgex"


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully specified regime-switching risk experiment."""

    family: ModelFamily
    params: Mapping[str, tuple[float, ...]]
    transition_matrix: tuple[tuple[float, ...], ...]
    orientation: str
    initial_state: int
    p: float
    horizon: int
    n_paths: int
    seed: int
    measures: tuple[str, ...]
    cvar_mode: CvarMode = CvarMode.PIECEWISE
    output: str | None = None

    def __post_init__(self) -> None:
        family = _require_member(ModelFamily, self.family, ConfigError)
        object.__setattr__(self, "family", family)
        if self.orientation not in ("row", "column"):
            raise ConfigError(
                f'orientation must be "row" or "column", got {self.orientation!r}'
            )
        for name in ("initial_state", "horizon", "n_paths", "seed"):
            object.__setattr__(self, name, _require_count(getattr(self, name), name, ConfigError))
        object.__setattr__(self, "p", _require_real(self.p, "p", ConfigError))
        chain = self.chain()  # a square stochastic matrix of reals, or a ConfigError
        entries = chain.entries.T if self.orientation == "row" else chain.entries
        object.__setattr__(self, "transition_matrix", tuple(map(tuple, entries.tolist())))
        n = chain.n_states
        try:
            chain.require_state(self.initial_state)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"p must lie in (0, 1), got {self.p!r}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon!r}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigError(f"output must be a path or null, got {self.output!r}")
        if not isinstance(self.measures, (list, tuple)):
            raise ConfigError(f"measures must be a list of names, got {self.measures!r}")
        measures = tuple(str(m) for m in self.measures)
        if not measures or len(set(measures)) != len(measures):
            raise ConfigError(f"measures must be a non-empty set, got {measures!r}")
        for m in measures:
            if m not in _MEASURE_NAMES:
                raise ConfigError(f"unknown measure {m!r}; choose from {_MEASURE_NAMES}")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "cvar_mode", _require_member(CvarMode, self.cvar_mode, ConfigError))
        # Every key is required here (the Weibull theta too): the closed
        # forms read each parameter sequence.
        expected_keys = tuple(FAMILIES[family.value].keys.values())
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params must map names to values, got {self.params!r}")
        given = dict(self.params)
        if set(given) != set(expected_keys):
            raise ConfigError(
                f"{family.value} params need keys {sorted(expected_keys)}, "
                f"got {sorted(given)}"
            )
        params = {}
        for key in expected_keys:
            vec = _require_reals(given[key], f"param {key!r}", ConfigError)
            if vec.shape != (n,):
                raise ConfigError(f"param {key!r} has shape {vec.shape} for {n} chain states")
            params[key] = tuple(vec.tolist())
        object.__setattr__(self, "params", params)
        try:
            for state in range(1, n + 1):
                self.state_model(state)
        except (DataError, DomainError) as exc:
            raise ConfigError(f"state {state} params: {exc}") from exc

    def chain(self) -> TransitionMatrix:
        if self.orientation == "row":
            return TransitionMatrix.from_rows(self.transition_matrix)
        return TransitionMatrix.from_columns(self.transition_matrix)

    @property
    def n_states(self) -> int:
        return len(self.transition_matrix)

    def state_model(self, state: int) -> ReturnModel:
        """The return model realized in the given 1-based chain state."""
        i = int(state) - 1
        return model_from_params(self.family, {k: vec[i] for k, vec in self.params.items()})

    def to_json_dict(self) -> dict[str, object]:
        return {
            "family": self.family.value,
            "params": {k: list(v) for k, v in self.params.items()},
            "transition_matrix": [list(row) for row in self.transition_matrix],
            "orientation": self.orientation,
            "initial_state": self.initial_state,
            "p": self.p,
            "horizon": self.horizon,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "measures": list(self.measures),
            "cvar_mode": self.cvar_mode.value,
            "output": self.output,
        }


def config_to_json(config: ExperimentConfig) -> str:
    """Canonical JSON text for a config (stable across reruns)."""
    return json.dumps(config.to_json_dict(), sort_keys=True, indent=2) + "\n"


def config_from_json(text: str) -> ExperimentConfig:
    """Parse and validate a config from its JSON representation.

    The keys are the :class:`ExperimentConfig` field names; those with a
    default may be left out.  Values go to the constructor as parsed.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object")
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(data)
    if unknown or missing:
        raise ConfigError(
            f"config keys: missing {sorted(missing)}, unknown {sorted(unknown)}"
        )
    return ExperimentConfig(**data)


# --------------------------------------------------------------------------
# Calibration
# --------------------------------------------------------------------------


def _observations(returns: Sequence[float], fit: str) -> np.ndarray:
    """``returns`` as a 1-D float array of two or more finite values; other
    input, booleans and numeric strings included, raises :class:`DataError`."""
    xs = _require_reals(returns, f"{fit} fit: observations", DataError)
    if xs.ndim != 1:
        raise DataError(f"{fit} fit: observations must be one-dimensional, got shape {xs.shape}")
    if xs.size < 2:
        raise DataError(f"{fit} fit needs at least 2 observations, got {xs.size}")
    if not np.isfinite(xs).all():
        raise DataError(f"{fit} fit: observations must be finite")
    return xs


def fit_gaussian(returns: Sequence[float]) -> GaussianParams:
    """Sample mean and sample standard deviation (denominator ``n - 1``)."""
    xs = _observations(returns, "gaussian")
    n = xs.size
    try:
        mean = math.fsum(xs.tolist()) / n
        with np.errstate(over="ignore"):  # an infinite square fails below
            d = xs - mean
            ss = math.fsum((d * d).tolist())
    except OverflowError:
        ss = math.inf
    if not math.isfinite(ss):
        raise NumericError(
            f"gaussian fit: the sample variance of {n} observations overflows a float"
        )
    if ss == 0.0:
        raise DataError("gaussian fit: zero sample variance (all observations equal)")
    return GaussianParams(mean, math.sqrt(ss / (n - 1)))


def _weibull_profile(alpha: float, lx: np.ndarray) -> tuple[float, float]:
    """Value and derivative of the shape profile-likelihood equation.

    ``g(alpha) = S1/S0 - 1/alpha - mean(ln x)`` with
    ``S_j = sum(x**alpha * (ln x)**j)``; ``g`` is increasing with a unique
    root.  Computed on shifted exponentials for overflow safety.
    """
    w = alpha * lx
    w_max = float(np.max(w))
    e = np.exp(w - w_max)
    s0 = float(np.sum(e))
    s1 = float(np.sum(e * lx))
    s2 = float(np.sum(e * lx * lx))
    mean_lx = float(np.mean(lx))
    g = s1 / s0 - 1.0 / alpha - mean_lx
    dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (alpha * alpha)
    return g, dg


def fit_weibull(returns: Sequence[float]) -> WeibullParams:
    """Two-parameter maximum-likelihood Weibull fit (location fixed at 0).

    Solves the shape profile equation by safeguarded Newton iteration —
    bracketed, falling back to bisection whenever a Newton step leaves the
    bracket — to 1e-10, then plugs the shape into the closed-form scale.
    """
    xs = _observations(returns, "weibull")
    if np.any(xs <= 0.0):
        raise DataError("weibull fit: observations must be positive")
    lx = np.log(xs)
    std_lx = float(np.std(lx))
    if std_lx < 1e-12:
        raise NumericError(
            "weibull fit: degenerate likelihood (observations nearly identical)"
        )
    alpha = math.pi / (math.sqrt(6.0) * std_lx)
    g, dg = _weibull_profile(alpha, lx)

    def bracket(side: str, factor: float) -> float:
        """First ``alpha * factor**k``, k < 80, where the profile is < 0 (below)
        or > 0 (above); the profile at ``alpha`` itself is ``g``."""
        x, gx, sign = alpha, g, -1.0 if side == "below" else 1.0
        for k in range(80):
            if k:
                x *= factor
                gx = _weibull_profile(x, lx)[0]
            if sign * gx > 0.0:
                return x
        raise NumericError(f"weibull fit: could not bracket the shape from {side}")

    lo, hi = bracket("below", 0.5), bracket("above", 2.0)

    # ``g, dg`` is the profile at ``alpha`` throughout, the starting shape's
    # on the first pass, so no shape is evaluated twice.
    for i in range(200):
        if i:
            g, dg = _weibull_profile(alpha, lx)
        if abs(g) <= 1e-10:
            break
        if g > 0.0:
            hi = alpha
        else:
            lo = alpha
        step = alpha - g / dg if dg > 0.0 else math.nan
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * (1.0 + alpha):
            break
        alpha = step
    else:
        raise NumericError("weibull fit: shape iteration did not converge")
    if abs(g) > 1e-8:
        raise NumericError(f"weibull fit: profile equation residual {g!r} too large")

    # lam = (S0/n)**(1/alpha), computed in log space.
    w = alpha * lx
    w_max = float(np.max(w))
    log_s0 = w_max + math.log(float(np.sum(np.exp(w - w_max))))
    lam = math.exp((log_s0 - math.log(xs.size)) / alpha)
    return WeibullParams(lam, alpha, 0.0)


# --------------------------------------------------------------------------
# Returns data
# --------------------------------------------------------------------------


def load_returns(path: str | Path, mode: str = "diff") -> list[float]:
    """Read a ``date,value`` CSV and turn the level series into returns.

    Dates must be ISO-8601 and strictly ascending.  ``diff`` takes
    successive differences; ``ratio`` successive ratios.
    """
    if mode not in ("diff", "ratio"):
        raise DataError(f'returns mode must be "diff" or "ratio", got {mode!r}')
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["date", "value"]:
                raise DataError(
                    f'{path}: header must be exactly "date,value", got {header!r}'
                )
            dates: list[date] = []
            values: list[float] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    d = date.fromisoformat(row[0])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad ISO date {row[0]!r}") from exc
                try:
                    v = float(row[1])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad value {row[1]!r}") from exc
                if not math.isfinite(v):
                    raise DataError(f"{path}:{lineno}: non-finite value")
                if dates and d <= dates[-1]:
                    raise DataError(
                        f"{path}:{lineno}: dates must be strictly ascending"
                    )
                dates.append(d)
                values.append(v)
    except OSError as exc:
        raise DataError(f"cannot read returns file {path}: {exc}") from exc
    if len(values) < 2:
        raise DataError(f"{path}: need at least two rows to form returns")
    if mode == "diff":
        return [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if any(v == 0.0 for v in values[:-1]):
        raise DataError(f"{path}: ratio returns need non-zero values")
    return [values[i + 1] / values[i] for i in range(len(values) - 1)]


def bundled_returns_path() -> Path:
    """Path of the packaged synthetic daily-level series."""
    return Path(str(_resource_files("riskflow").joinpath("data", "bbgex_synthetic.csv")))


# --------------------------------------------------------------------------
# Reference experiments
# --------------------------------------------------------------------------

#: Family and per-state parameters by study: the base values times 1.05 and
#: 0.95, at full float precision, except the shared Weibull shape.
_REFERENCE_STUDIES = {
    ReferenceStudy.GAUSSIAN_MSCI: (
        ModelFamily.GAUSSIAN,
        {"mu": (1113.3425 * 1.05, 1113.3425 * 0.95), "sigma": (186.29 * 1.05, 186.29 * 0.95)},
    ),
    ReferenceStudy.WEIBULL_BBGEX: (
        ModelFamily.WEIBULL,
        {"lambda": (6.7679 * 1.05, 6.7679 * 0.95), "alpha": (0.8016, 0.8016), "theta": (0.0, 0.0)},
    ),
}


def build_reference_experiment(study: ReferenceStudy | str) -> ExperimentConfig:
    """The bundled two-state config of ``study`` (see module docstring)."""
    family, params = _REFERENCE_STUDIES[_require_member(ReferenceStudy, study)]
    return ExperimentConfig(
        family=family,
        params=params,
        transition_matrix=((0.25, 0.75), (0.35, 0.65)),
        orientation="row",
        initial_state=1,
        p=0.99,
        horizon=10,
        n_paths=1,
        seed=1729,
        measures=("var", "cvar"),
    )


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiskColumns:
    """The static, recursive and modulated values of one measure.

    In an :class:`ExperimentResult` each is an ``(n_paths, T + 1)`` array;
    in the view of one path, that path's row.
    """

    static: np.ndarray
    recursive: np.ndarray
    modulated: np.ndarray


@dataclass(frozen=True, eq=False)
class PathTrajectories:
    """Row ``path_id`` of an :class:`ExperimentResult`: one simulated path."""

    path_id: int
    states: np.ndarray
    returns: np.ndarray
    var: RiskColumns | None
    cvar: RiskColumns | None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Every path of one run, path ``i`` in row ``i`` of each array.

    ``chain_seed`` and ``returns_seed`` seed the run's two streams: path
    ``i``'s chain uniforms are the ``T`` draws of
    ``np.random.PCG64(chain_seed).advance(i * T)``, and its return uniforms
    the ``T + 1`` draws of ``np.random.PCG64(returns_seed).advance(i * (T + 1))``.
    ``states`` ``(n_paths, T + 2)`` holds the 1-based chain paths,
    ``returns`` ``(n_paths, T + 1)`` the realized returns, and ``var`` and
    ``cvar`` the measure columns (``None`` when not requested).
    ``result[i]`` and iteration give per-path views, built on request, whose
    rows share these arrays; :func:`run_experiment` makes them read-only.
    """

    chain_seed: int
    returns_seed: int
    states: np.ndarray
    returns: np.ndarray
    var: RiskColumns | None
    cvar: RiskColumns | None

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> PathTrajectories:
        i = range(len(self))[i]
        measures = [
            None if m is None else RiskColumns(m.static[i], m.recursive[i], m.modulated[i])
            for m in (self.var, self.cvar)
        ]
        return PathTrajectories(i, self.states[i], self.returns[i], *measures)

    def __iter__(self) -> Iterator[PathTrajectories]:
        return map(self.__getitem__, range(len(self)))

    def columns(self) -> dict[str, np.ndarray]:
        """The columns present, by table name (``static_var`` ...), in table order."""
        return {
            f"{series}_{kind}": getattr(m, series)
            for kind, m in zip(_MEASURE_NAMES, (self.var, self.cvar))
            if m is not None
            for series in _SERIES
        }


@dataclass(frozen=True)
class SummaryStats:
    """Aggregates over all paths of one experiment run.

    ``fraction_dynamic_le_static`` counts, over every time step of every
    path, how often each dynamic column sits at or below its static column.
    ``recursive_var_alternation`` is true when the recursive value-at-risk is
    exactly zero at every odd step of every path (the constant-parameter
    signature).
    """

    n_paths: int
    horizon: int
    fraction_dynamic_le_static: Mapping[str, float]
    columns: Mapping[str, Mapping[str, float]]
    recursive_var_alternation: bool | None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for key, frac in dict(self.fraction_dynamic_le_static).items():
            if not 0.0 <= frac <= 1.0:
                raise DomainError(f"fraction {key!r} outside [0, 1]: {frac!r}")

    def to_json_dict(self) -> dict[str, object]:
        return {
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "fraction_dynamic_le_static": dict(self.fraction_dynamic_le_static),
            "columns": {k: dict(v) for k, v in self.columns.items()},
            "recursive_var_alternation": self.recursive_var_alternation,
            "notes": list(self.notes),
        }


def _summarize(config: ExperimentConfig, columns: Mapping[str, np.ndarray]) -> SummaryStats:
    fractions = {
        f"{dyn}_{kind}": float(np.mean(columns[f"{dyn}_{kind}"] <= columns[f"static_{kind}"]))
        for kind in _MEASURE_NAMES
        if f"static_{kind}" in columns
        for dyn in ("recursive", "modulated")
    }
    stats = {
        name: {
            "min": float(np.min(vals)),
            "max": float(np.max(vals)),
            "mean": float(np.mean(vals.ravel())),
        }
        for name, vals in columns.items()
    }
    alternation: bool | None = None
    if "recursive_var" in columns:
        alternation = bool(np.all(columns["recursive_var"][:, 1::2] == 0.0))
    notes: tuple[str, ...] = ()
    if "cvar" in config.measures and config.family is ModelFamily.GAUSSIAN:
        notes = (GAUSSIAN_MODULATED_CVAR_NOTE,)
    return SummaryStats(
        n_paths=config.n_paths,
        horizon=config.horizon,
        fraction_dynamic_le_static=fractions,
        columns=stats,
        recursive_var_alternation=alternation,
        notes=notes,
    )


def run_experiment(config: ExperimentConfig) -> tuple[ExperimentResult, SummaryStats]:
    """Simulate all paths and aggregate; deterministic for a fixed seed.

    ``config.seed`` gives two seeds, the first two words of
    ``np.random.SeedSequence(config.seed).generate_state(2, np.uint64)``:
    one :func:`simulate_path` call walks every chain on the uniforms
    ``default_rng(chain_seed).random((n_paths, T))``, and one :func:`sample`
    call draws every standard return from
    ``default_rng(returns_seed).random((n_paths, T + 1))``.  Both are
    row-major, so path ``i`` reads each stream advanced by ``i`` rows (see
    :class:`ExperimentResult`) and is the same in a run of any size.
    Everything after that runs on ``(n_paths, T + 1)`` arrays, with the
    static measures, means and one-step predictions evaluated once per chain
    state.  A non-finite value in any column (the piecewise CVaR recursions
    overflow on long horizons) raises :class:`NumericError` naming the
    earliest such cell.  The returned arrays are read-only.
    """
    matrix = config.chain()
    T, p, family = config.horizon, config.p, config.family
    seeds = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    chain_seed, returns_seed = seeds.tolist()
    states = simulate_path(matrix, config.initial_state, T, chain_seed, n_paths=config.n_paths)
    # Period t is priced with the model of the state reached at t + 1.
    period = states[:, 1:] - 1
    models = [config.state_model(s) for s in range(1, config.n_states + 1)]
    standard = sample(STANDARD_MODELS[family], (config.n_paths, T + 1), returns_seed)
    realized = np.empty(standard.shape)
    for s, model in enumerate(models):
        in_state = period == s
        realized[in_state] = model.scale(standard[in_state])

    params = {k: np.array(v)[period] for k, v in config.params.items()}
    measures: dict[str, RiskColumns | None] = dict.fromkeys(_MEASURE_NAMES)
    try:
        with np.errstate(all="ignore"):  # non-finite values are reported below
            if "var" in config.measures:
                measures["var"] = RiskColumns(
                    static=np.array([var(m, p) for m in models])[period],
                    recursive=(
                        recursive_var_gaussian_closed(params["mu"], params["sigma"], p)
                        if family is ModelFamily.GAUSSIAN
                        else recursive_var_weibull_closed(
                            params["lambda"], params["alpha"], params["theta"], p
                        )
                    ),
                    modulated=modulated_var_trajectory(models, matrix, states, p),
                )
            if "cvar" in config.measures:
                measures["cvar"] = RiskColumns(
                    static=np.array([cvar_tail(m, p) for m in models])[period],
                    recursive=recursive_cvar(models, p, config.cvar_mode, realized, states=period),
                    modulated=modulated_cvar_trajectory(models, matrix, states, realized, p),
                )
    except NumericError as exc:
        raise NumericError(f"[seed {config.seed}] {exc}") from exc
    result = ExperimentResult(chain_seed, returns_seed, states, realized, **measures)
    columns = result.columns()
    if not all(np.isfinite(column).all() for column in columns.values()):
        stacked = np.stack(list(columns.values()))
        # Ordered by t, then path, then column: the first bad cell is the earliest.
        t, i, k = np.argwhere(~np.isfinite(stacked).transpose(2, 1, 0))[0].tolist()
        raise NumericError(
            f"[seed {config.seed}] {list(columns)[k]} is {float(stacked[k, i, t])!r} "
            f"at path {i}, t={t}"
        )
    for array in (states, realized, *columns.values()):
        array.flags.writeable = False
    return result, _summarize(config, columns)


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


#: Rows per chunk of :func:`_chunks`: one chunk's texts are held at a time.
_CHUNK_ROWS = 1024


def _chunks(
    result: ExperimentResult, number: Callable[[float], str], template: str
) -> Iterator[str]:
    """The table's rows, ``template % row`` each, as one string per chunk.

    Each column of a row (``[path,] t`` and the columns present) has its own
    table of distinct texts, each ending in the template literal after its
    slot; the first column's also start with the row's leading literal.  Ids
    are formatted once each.  Floats are keyed on their bits, so ``-0.0``
    keeps its sign: a sort finds each column's distinct keys, ``number``
    formats each once, and a binary search finds each cell's.  One ``(rows,
    columns)`` index points into all the texts, so a chunk of ``_CHUNK_ROWS``
    rows is one gather and one ``str.join``.
    """
    n_paths, width = result.returns.shape
    columns = list(result.columns().values())
    bits = np.array(columns, dtype=np.float64).reshape(len(columns), -1).view(np.uint64)
    ordered = np.sort(bits)
    first = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    keys, ends = ordered[first], np.cumsum(first.sum(axis=1)).tolist()
    distinct = [keys[start:end] for start, end in zip([0, *ends], ends)]
    ids = slice(n_paths <= 1, None)  # (path, t), or (t,) for one path
    cells = list(np.divmod(np.arange(bits.shape[1]), width)[ids])
    cells += [column_keys.searchsorted(column) for column_keys, column in zip(distinct, bits)]
    tables = [map(str, range(n)) for n in (n_paths, width)][ids]
    tables += [map(number, column_keys.view(np.float64).tolist()) for column_keys in distinct]
    lead, *tails = template.split("%s")
    texts: list[str] = []
    index = np.empty((bits.shape[1], len(cells)), dtype=np.intp)
    for j, (table, head, tail) in enumerate(zip(tables, [lead, *[""] * len(tails)], tails)):
        np.add(cells[j], len(texts), out=index[:, j])
        texts.extend([head + text + tail for text in table])
    pool = np.array(texts, dtype=object)
    for start in range(0, len(index), _CHUNK_ROWS):
        yield "".join(pool[index[start : start + _CHUNK_ROWS]].ravel().tolist())


def emit_trajectories(result: ExperimentResult, fmt: str, path: str | Path) -> None:
    """Write the per-time trajectory table with a fixed schema.

    CSV header is exactly
    ``t,static_var,recursive_var,modulated_var,static_cvar,recursive_cvar,modulated_cvar``
    (a ``path`` column is prepended when several paths are present); absent
    measures leave their fields empty.  JSON mirrors the same records with
    ``null`` for absent values.  Rows are written one chunk of
    :func:`_chunks` at a time.
    """
    if fmt not in ("csv", "json"):
        raise DomainError(f'format must be "csv" or "json", got {fmt!r}')
    header = (("path",) if len(result) > 1 else ()) + ("t",) + _CSV_COLUMNS
    present = result.columns().keys() | {"path", "t"}
    null = "" if fmt == "csv" else "null"
    slots = ["%s" if name in present else null for name in header]
    try:
        if fmt == "csv":
            # No cell needs quoting, so this is what ``csv.writer`` writes.
            with open(path, "w", newline="", encoding="utf-8") as handle:
                handle.write(",".join(header) + "\n")
                handle.writelines(_chunks(result, repr, ",".join(slots) + "\n"))
        else:
            # The layout of ``json.dump(records, indent=2)``: each record
            # follows its separator, which the first drops.
            fields = ",".join(f"\n    {json.dumps(k)}: {s}" for k, s in zip(header, slots))
            chunks = _chunks(result, json.dumps, ",\n  {" + fields + "\n  }")
            with open(path, "w", encoding="utf-8") as handle:
                first = next(chunks, ",")  # a lone separator: no records, "[]"
                handle.write("[" + first[1:])
                handle.writelines(chunks)
                handle.write("]\n" if first == "," else "\n]\n")
    except OSError as exc:
        raise DataError(f"cannot write trajectories to {path}: {exc}") from exc
