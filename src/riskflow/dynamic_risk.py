"""Multi-period risk: the backward recursion and its closed forms.

The core object is the one-step recursion

    R_0 = R(X_0),        R_t = R(X_t shifted by R_{t-1}),

where ``R`` is any translation-invariant static measure.  Under upper-tail
orientation the shift is ``-R_{t-1}`` (so ``R_t = R(X_t) - R_{t-1}``); under
lower-tail orientation the measure itself is monetary and the literal form
``R(X_t + R_{t-1})`` yields the same difference.  Iterating gives the
alternating sum ``R_t = sum_k (-1)**(t-k) * R(X_k)``, which the engine
evaluates directly (the ``*_closed`` value-at-risk forms and ``exact``
recursive CVaR); :func:`recursive_risk_generic` steps the recursion itself,
as the independent check of those sums.

Markov modulation gives each chain state one return model (the modulated
functions take them as a sequence, state ``j`` at index ``j - 1``) and
replaces realized parameters by their one-step conditional expectations
along a chain path: at time ``t`` the engine stands in state ``Z_t`` and
prices the coming return (whose model is that of ``Z_{t+1}``) by averaging
per-state parameters or static values over the outgoing distribution.  Time
0 is the exception everywhere: the value is the plain static measure of
``X_0`` with its realized parameters.

The conditional value-at-risk recursion ships in two modes.  ``exact`` is
the telescoped form, the alternating sum of the static CVaR of each period.
``piecewise`` follows the branch form: against a realized return path, each
step picks between a shifted-quantile expression and a tail-average
expression depending on whether the realized return stays below a
threshold.  The modulated branch forms differ by family on purpose:
Gaussian branches carry no dependence on the previous step (they are
memoryless), while Weibull branches keep the previous value with alternating
sign.  That asymmetry is surfaced as output metadata rather than papered
over.

Every trajectory function takes one path or a stack of paths: parameter
sequences and realized returns of shape ``(T + 1,)`` or ``(n_paths, T + 1)``,
and one :class:`ChainPath` or an ``(n_paths, T + 2)`` array of chain states.
The horizon ``T`` is read off these shapes, never passed; inputs that
disagree on the ``(n_paths, T + 1)`` shape raise :class:`DomainError`.  One
path gives a ``list[float]``; a stack gives an ``(n_paths, T + 1)`` array.
The recursions step through time for all paths at once, and the static
values, means and one-step predictions they need are evaluated once per
chain state (or per listed model), not once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .distributions import (
    STANDARD_MODELS,
    ModelFamily,
    ReturnModel,
    _require_member,
    _require_probability,
)
from .errors import DomainError
from .markov import ChainPath, TransitionMatrix, one_step_linked_expectation
from .static_risk import (
    Orientation,
    RiskMeasureSpec,
    cvar_tail,
    evaluate,
    var,
)

__all__ = [
    "CvarMode",
    "VectorialMeasure",
    "GAUSSIAN_MODULATED_CVAR_NOTE",
    "recursive_risk_generic",
    "recursive_var_gaussian_closed",
    "recursive_var_weibull_closed",
    "recursive_cvar",
    "modulated_var_trajectory",
    "modulated_cvar_trajectory",
]

#: Attached to run metadata whenever the Gaussian modulated cvar branches are
#: used: unlike the Weibull form, they carry no dependence on the previous
#: step's value, so the trajectory is memoryless past t = 0.
GAUSSIAN_MODULATED_CVAR_NOTE = (
    "gaussian modulated cvar branches are memoryless: "
    "no dependence on the previous step's value"
)


class CvarMode(str, Enum):
    """Recursive CVaR mode: ``EXACT`` telescopes static values, ``PIECEWISE`` branches."""

    EXACT = "exact"
    PIECEWISE = "piecewise"


# Kept only because perfbench/inproc.py builds it; ROADMAP item 6 deletes it.
@dataclass(frozen=True)
class VectorialMeasure:
    """One static measure per chain state.

    Components share kind, level and orientation (only the numbers they
    produce differ, through the per-state models), so the measure has
    one orientation, that of its first component.
    """

    specs: tuple[RiskMeasureSpec, ...]

    def __post_init__(self) -> None:
        if len(self.specs) == 0:
            raise DomainError("a vectorial measure needs at least one component")
        first = self.specs[0]
        for s in self.specs[1:]:
            if (s.kind, s.p, s.orientation) != (first.kind, first.p, first.orientation):
                raise DomainError(
                    "vectorial measure components differ in kind, level or orientation"
                )

    @property
    def n_states(self) -> int:
        return len(self.specs)


MeasureLike = Union[RiskMeasureSpec, Callable[[ReturnModel], float]]


def _shift_sign(orientation: Orientation | str) -> float:
    # Upper tail: R(X + c) = R(X) + c, so realizing R(X_t) - R_prev needs a
    # -R_prev shift.  Lower tail: the measure is monetary, R(X + c) = R(X) - c,
    # and the literal +R_prev shift produces the same difference.
    return -1.0 if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL else 1.0


def recursive_risk_generic(
    models: Sequence[ReturnModel],
    measure: MeasureLike,
    *,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> list[float]:
    """Run the backward recursion step by step and return ``R_0 .. R_T``.

    ``models`` are the period models ``X_0 .. X_T``, at least one.
    ``measure`` is either a :class:`RiskMeasureSpec` (its orientation is then
    used) or a plain ``model -> value`` callable, in which case
    ``orientation`` must state the translation convention the callable obeys.
    """
    if len(models) == 0:
        raise DomainError("need at least one period model")
    if isinstance(measure, RiskMeasureSpec):
        orientation = measure.orientation
        fn: Callable[[ReturnModel], float] = lambda m: evaluate(m, measure)
    else:
        fn = measure
    sign = _shift_sign(orientation)
    out = [fn(models[0])]
    for model in models[1:]:
        out.append(fn(model.shift(sign * out[-1])))
    return out


def _as_given(out: np.ndarray, batched: bool) -> list[float] | np.ndarray:
    """A stack of paths as the array, one path as its list of floats."""
    return out if batched else out[0].tolist()


def _alternating_sum(values: np.ndarray) -> np.ndarray:
    # R_t = sum_{k<=t} (-1)**(t-k) v_k along each path, for all t in one
    # pass: with s_k = (-1)**k, R = s * cumsum(s * v).
    signs = np.where(np.arange(values.shape[-1]) % 2 == 0, 1.0, -1.0)
    return signs * np.cumsum(signs * values, axis=-1)


def _path_array(
    name: str, values: Sequence[float] | np.ndarray, *, positive: bool = False
) -> np.ndarray:
    """Per-period values of one path ``(T + 1,)`` or of several ``(n, T + 1)``, as 2-D."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty path or stack of paths, got {arr.shape}")
    if not np.all(np.isfinite(arr)) or (positive and np.any(arr <= 0.0)):
        kind = "positive and finite" if positive else "finite"
        raise DomainError(f"{name} entries must be {kind}")
    return np.atleast_2d(arr)


def _require_same_shape(named: dict[str, np.ndarray]) -> None:
    """All inputs cover the same ``(n_paths, T + 1)`` grid of paths and periods."""
    (first, shape), *rest = ((name, arr.shape) for name, arr in named.items())
    for name, other in rest:
        if other != shape:
            raise DomainError(f"{first} {shape} and {name} {other} differ in shape")


def recursive_var_gaussian_closed(
    mus: Sequence[float] | np.ndarray, sigmas: Sequence[float] | np.ndarray, p: float
) -> list[float] | np.ndarray:
    """Closed-form recursive value-at-risk for Gaussian period returns.

    Evaluates ``R_t = sum_k (-1)**(t-k) (mu_k + sigma_k * q_p)`` directly
    from the parameter sequences (length ``T + 1``, or ``(n_paths, T + 1)``).
    """
    p = _require_probability(p)
    mu = _path_array("mus", mus)
    sigma = _path_array("sigmas", sigmas, positive=True)
    _require_same_shape({"mus": mu, "sigmas": sigma})
    q = STANDARD_MODELS[ModelFamily.GAUSSIAN].quantile(p)
    return _as_given(_alternating_sum(mu + sigma * q), np.ndim(mus) == 2)


def recursive_var_weibull_closed(
    lambdas: Sequence[float] | np.ndarray,
    alphas: Sequence[float] | np.ndarray,
    thetas: Sequence[float] | np.ndarray,
    p: float,
) -> list[float] | np.ndarray:
    """Closed-form recursive value-at-risk for Weibull period returns.

    Evaluates ``R_t = sum_k (-1)**(t-k) (theta_k + lam_k * (-ln(1-p))**(1/alpha_k))``
    from sequences of length ``T + 1`` or arrays of shape ``(n_paths, T + 1)``.
    """
    p = _require_probability(p)
    lam = _path_array("lambdas", lambdas, positive=True)
    alpha = _path_array("alphas", alphas, positive=True)
    theta = _path_array("thetas", thetas)
    _require_same_shape({"lambdas": lam, "alphas": alpha, "thetas": theta})
    c = (-math.log1p(-p)) ** (1.0 / alpha)
    return _as_given(_alternating_sum(theta + lam * c), np.ndim(lambdas) == 2)


def recursive_cvar(
    models: Sequence[ReturnModel],
    p: float,
    mode: CvarMode = CvarMode.EXACT,
    realized_path: Sequence[float] | np.ndarray | None = None,
    *,
    states: np.ndarray | None = None,
) -> list[float] | np.ndarray:
    """Recursive conditional value-at-risk ``C_0 .. C_T`` (upper tail).

    ``exact`` mode is ``C_t = cvar(X_t shifted by -C_{t-1})``, evaluated in
    its telescoped form ``sum_k (-1)**(t-k) cvar(X_k)`` (translation
    invariance; within a few ulp of :func:`recursive_risk_generic`).

    ``piecewise`` mode follows the branch form against a realized return
    path, one return per period: when the realized ``X_t`` stays at or below
    ``var_t - 2*C_{t-1}`` the step value is ``var_t - C_{t-1}``; otherwise it
    is ``var_t - C_{t-1} + (mean_t - var_t + 2*C_{t-1})/(1-p)`` (the
    tail-average expression, equivalent to the per-family spelled-out
    forms).

    ``models`` are the period models ``X_0 .. X_T`` of one path.  For
    several paths, pass ``states``, an ``(n_paths, T + 1)`` array of 0-based
    indices into ``models``: path ``i`` prices period ``t`` with
    ``models[states[i, t]]``, ``realized_path`` has the shape of ``states``
    and the result is an ``(n_paths, T + 1)`` array.  The static values and
    means are evaluated once per entry of ``models``.
    """
    p = _require_probability(p)
    mode = _require_member(CvarMode, mode)
    batched = states is not None
    states = np.asarray(states) if batched else np.arange(len(models))[np.newaxis, :]
    if states.ndim != 2 or states.size == 0:
        raise DomainError(f"need a non-empty (n_paths, T + 1) grid of periods, got {states.shape}")
    if not 0 <= states.min() <= states.max() < len(models):
        raise DomainError(f"states must index the {len(models)} models")
    if mode is CvarMode.PIECEWISE and realized_path is None:
        raise DomainError("piecewise mode needs a realized return path")
    if realized_path is not None:
        realized = _path_array("realized_path", realized_path)
        _require_same_shape({"states" if batched else "models": states, "realized_path": realized})

    cvar_table = np.array([cvar_tail(m, p) for m in models])
    if mode is CvarMode.EXACT:
        return _as_given(_alternating_sum(cvar_table[states]), batched)
    var_table = np.array([var(m, p) for m in models])
    mean_table = np.array([m.mean() for m in models])
    out = np.empty(states.shape)
    out[:, 0] = cvar_table[states[:, 0]]
    for t in range(1, states.shape[1]):
        prev = out[:, t - 1]
        v_t = var_table[states[:, t]]
        mean_t = mean_table[states[:, t]]
        out[:, t] = np.where(
            realized[:, t] <= v_t - 2.0 * prev,
            v_t - prev,
            v_t - prev + (mean_t - v_t + 2.0 * prev) / (1.0 - p),
        )
    return _as_given(out, batched)


# --------------------------------------------------------------------------
# Markov modulation
# --------------------------------------------------------------------------


def _path_states(chain_path: ChainPath | np.ndarray, matrix: TransitionMatrix) -> np.ndarray:
    """One chain path, or an ``(n_paths, T + 2)`` stack of them, as a 2-D array."""
    states = np.atleast_2d(
        chain_path.states if isinstance(chain_path, ChainPath) else chain_path
    )
    if states.ndim != 2 or states.shape[1] < 2 or states.shape[0] == 0:
        raise DomainError(f"chain paths must have shape (n_paths, T + 2), got {states.shape}")
    if states.dtype.kind not in "iu" or not 1 <= states.min() <= states.max() <= matrix.n_states:
        raise DomainError(f"state indices must be integers in [1, {matrix.n_states}]")
    if not np.array_equal(states[:, -1], states[:, -2]):
        raise DomainError("the last two states of each chain path must be equal")
    return states


def _state_family(models: Sequence[ReturnModel], matrix: TransitionMatrix) -> ModelFamily:
    """The family of ``models``: one per chain state, all Gaussian or all Weibull."""
    names = [f.value for f in ModelFamily]
    families = {str(getattr(m, "family", None)) for m in models}
    if len(models) != matrix.n_states or len(families) != 1 or not families <= set(names):
        raise DomainError(
            f"need {matrix.n_states} state models of one family in {names}, "
            f"got {len(models)} of {sorted(families)}"
        )
    return ModelFamily(families.pop())


def _weibull_quantiles(
    models: Sequence[ReturnModel], matrix: TransitionMatrix, priced: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-state quantiles ``theta + lam * c``, and ``thetabar + lambdabar * cbar``
    predicted from each entry of ``priced`` (``c`` predicted as its own vector)."""
    lam = np.array([m.lam for m in models])
    alpha = np.array([m.alpha for m in models])
    theta = np.array([m.theta for m in models])
    c = (-math.log1p(-p)) ** (1.0 / alpha)
    predicted = one_step_linked_expectation(matrix, theta, priced) + (
        one_step_linked_expectation(matrix, lam, priced)
        * one_step_linked_expectation(matrix, c, priced)
    )
    return theta + lam * c, predicted


def modulated_var_trajectory(
    models: Sequence[ReturnModel],
    matrix: TransitionMatrix,
    chain_path: ChainPath | np.ndarray,
    p: float,
) -> list[float] | np.ndarray:
    """Value-at-risk recursion along a realized chain path.

    ``models`` holds the return model of each chain state, all Gaussian or
    all Weibull.  Time 0 uses the realized parameters of ``X_0`` (the model
    of the state at ``Z_1``); every later term replaces parameters by their
    one-step predictions from the state occupied when the step is priced:

        R_t = (-1)**t (mu_0 + sigma_0 q) + sum_{k=1..t} (-1)**(t-k) (mubar_k + sigbar_k q)

    and the Weibull analogue with ``thetabar_k + lambdabar_k * cbar_k``,
    where ``c_i = (-ln(1-p))**(1/alpha_i)`` is predicted as its own
    per-state vector.
    """
    p = _require_probability(p)
    family = _state_family(models, matrix)
    states = _path_states(chain_path, matrix)
    priced = states[:, 1:-1]
    if family is ModelFamily.GAUSSIAN:
        per_state = np.array([var(m, p) for m in models])
        predicted = one_step_linked_expectation(matrix, per_state, priced)
    else:
        per_state, predicted = _weibull_quantiles(models, matrix, priced, p)
    terms = np.concatenate([per_state[states[:, 1:2] - 1], predicted], axis=1)
    return _as_given(_alternating_sum(terms), not isinstance(chain_path, ChainPath))


def modulated_cvar_trajectory(
    models: Sequence[ReturnModel],
    matrix: TransitionMatrix,
    chain_path: ChainPath | np.ndarray,
    realized_returns: Sequence[float] | np.ndarray,
    p: float,
) -> list[float] | np.ndarray:
    """Conditional value-at-risk branch recursion along a realized chain path.

    ``models`` are the per-state models of :func:`modulated_var_trajectory`.
    Time 0 is the realized static value.  For ``t >= 1`` the realized return
    is compared against the family's branch threshold; barred quantities are
    one-step predictions from the state occupied at ``t``:

    * Gaussian (memoryless; see :data:`GAUSSIAN_MODULATED_CVAR_NOTE`) —
      threshold is the realized-parameter quantile of ``X_t``; branches
      ``mubar_t + sigbar_t q`` and ``mubar_t + (p/(1-p)) sigbar_t q``.
    * Weibull — threshold ``(thetabar_t + lambdabar_t cbar_t) + 2*C_{t-1}``;
      branches ``thetabar_t + lambdabar_t cbar_t - C_{t-1}`` and
      ``meanbar_t/(1-p) - (p/(1-p))(thetabar_t + lambdabar_t cbar_t)
      + ((1+p)/(1-p)) C_{t-1}``.
    """
    p = _require_probability(p)
    family = _state_family(models, matrix)
    states = _path_states(chain_path, matrix)
    realized = _path_array("realized_returns", realized_returns)
    _require_same_shape({"chain_path periods": states[:, 1:], "realized_returns": realized})
    priced = states[:, 1:-1]
    out = np.empty(realized.shape)
    out[:, 0] = np.array([cvar_tail(m, p) for m in models])[states[:, 1] - 1]
    if family is ModelFamily.GAUSSIAN:
        q = STANDARD_MODELS[ModelFamily.GAUSSIAN].quantile(p)
        mubar = one_step_linked_expectation(matrix, [m.mu for m in models], priced)
        sigbar = one_step_linked_expectation(matrix, [m.sigma for m in models], priced)
        threshold = np.array([var(m, p) for m in models])[states[:, 2:] - 1]
        out[:, 1:] = np.where(
            realized[:, 1:] <= threshold,
            mubar + sigbar * q,
            mubar + (p / (1.0 - p)) * sigbar * q,
        )
    else:
        _, varbar = _weibull_quantiles(models, matrix, priced, p)
        meanbar = one_step_linked_expectation(matrix, [m.mean() for m in models], priced)
        for t in range(1, out.shape[1]):
            prev = out[:, t - 1]
            v_t = varbar[:, t - 1]
            out[:, t] = np.where(
                realized[:, t] <= v_t + 2.0 * prev,
                v_t - prev,
                meanbar[:, t - 1] / (1.0 - p)
                - (p / (1.0 - p)) * v_t
                + ((1.0 + p) / (1.0 - p)) * prev,
            )
    return _as_given(out, not isinstance(chain_path, ChainPath))
