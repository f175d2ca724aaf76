"""Single-period risk measures: value-at-risk and conditional value-at-risk.

Two orientations are supported throughout:

* ``upper_tail`` — the raw return ``X`` is the exposure and risk sits in the
  upper tail: ``var`` is the lower ``p``-quantile of ``X`` and ``cvar`` the
  mean beyond it.  This is the orientation the closed-form trajectory
  formulas are written in.
* ``lower_tail`` — ``X`` is a profit-and-loss variable and risk sits in the
  lower tail; every measure is evaluated as its upper-tail counterpart on
  ``-X``.  Under this orientation the measures are monetary: cash added to
  the position reduces the measure one-for-one.

``cvar`` comes in two independently computed flavours used to cross-check
each other: :func:`cvar_tail` evaluates the tail-mean formula directly, and
:func:`cvar_ru` minimizes the variational objective
``F_p(X, eta) = eta + E[(X - eta)+]/(1 - p)`` by golden-section search.  For
continuous families the two agree; for equal-weight samples both return the
tail average beyond the sample quantile (the discrete tail-average
convention), and :func:`argmin_contains_var` still verifies against the true
minimum of the objective that the quantile is a minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .distributions import (
    STANDARD_MODELS,
    EmpiricalSample,
    GaussianParams,
    ModelFamily,
    ReturnModel,
    WeibullParams,
    _normal_pdf,
    _require_member,
    _require_probability,
    expected_positive_part,
)
from .errors import DomainError, NumericError

__all__ = [
    "MeasureKind",
    "Orientation",
    "RiskMeasureSpec",
    "var",
    "cvar_tail",
    "ru_objective",
    "cvar_ru",
    "argmin_contains_var",
    "evaluate",
]


class MeasureKind(str, Enum):
    VAR = "var"
    CVAR = "cvar"


class Orientation(str, Enum):
    UPPER_TAIL = "upper_tail"
    LOWER_TAIL = "lower_tail"


@dataclass(frozen=True)
class RiskMeasureSpec:
    """A fully specified single-period measure: kind, level and orientation."""

    kind: MeasureKind
    p: float
    orientation: Orientation = Orientation.UPPER_TAIL

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MeasureKind):
            raise DomainError(f"kind must be a MeasureKind, got {self.kind!r}")
        if not isinstance(self.orientation, Orientation):
            raise DomainError(f"orientation must be an Orientation, got {self.orientation!r}")
        _require_probability(self.p)


def var(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Value-at-risk at level ``p``.

    Upper tail: ``inf {eta : P(X <= eta) >= p}``.  Lower tail: the same
    quantile of ``-X`` (for the Weibull family via the reflection identity
    ``q_p(-X) = -q_{1-p}(X)``, exact on its continuous support).
    """
    p = _require_probability(p)
    if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL:
        return model.quantile(p)
    if isinstance(model, WeibullParams):
        return -model.quantile(1.0 - p)
    return model.negated().quantile(p)


def cvar_tail(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Conditional value-at-risk as a direct tail expectation.

    Continuous families use ``var + E[(X - var)+]/(1 - p)`` (Gaussian in
    closed form).  Equal-weight samples use the mean of all values ``>= var``
    (weak inequality), matching the sample quantile convention.
    """
    p = _require_probability(p)
    if _require_member(Orientation, orientation) is Orientation.LOWER_TAIL:
        if isinstance(model, WeibullParams):
            # E[-X | -X >= q_p(-X)] spelled through upper-tail primitives:
            # with q = q_{1-p}(X), the lower tail mean of X below q is
            # (mean - E[(X-q)+] - q*p) / (1-p).
            q = model.quantile(1.0 - p)
            lower_mean = (
                model.mean() - expected_positive_part(model, q) - q * p
            ) / (1.0 - p)
            return -lower_mean
        return cvar_tail(model.negated(), p, Orientation.UPPER_TAIL)
    if isinstance(model, GaussianParams):
        z = STANDARD_MODELS[ModelFamily.GAUSSIAN].quantile(p)
        return model.mu + model.sigma * _normal_pdf(z) / (1.0 - p)
    v = model.quantile(p)
    if isinstance(model, EmpiricalSample):
        tail = [x for x in model.values if x >= v]
        return math.fsum(tail) / len(tail)
    return v + expected_positive_part(model, v) / (1.0 - p)


def ru_objective(
    model: ReturnModel,
    p: float,
    eta: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """The variational objective ``eta + E[(X - eta)+]/(1 - p)``.

    Convex in ``eta``; its minimum value is the conditional value-at-risk and
    the value-at-risk is a minimizer.  Lower tail replaces ``X`` by ``-X``,
    using ``E[(-X - eta)+] = E[(X + eta)+] - mean - eta`` so the Weibull
    family needs no negated law.
    """
    p = _require_probability(p)
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"threshold must be finite, got {eta!r}")
    if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL:
        excess = expected_positive_part(model, eta)
    else:
        excess = expected_positive_part(model, -eta) - model.mean() - eta
    return eta + excess / (1.0 - p)


#: Golden-section stopping rule: the bracket width relative to the scale of
#: its ends, and the iteration budget.
_GOLDEN_REL_WIDTH = 1e-10
_GOLDEN_MAX_ITER = 200


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of a convex function on ``[lo, hi]``.

    Returns ``(x_best, f_best)`` over all evaluated points.  Convexity makes
    the non-strict bracket update sound even across flat stretches.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise NumericError(f"invalid minimization bracket [{lo!r}, {hi!r}]")
    if hi - lo <= _GOLDEN_REL_WIDTH * (1.0 + abs(lo) + abs(hi)):
        x = 0.5 * (lo + hi)
        return x, f(x)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(_GOLDEN_MAX_ITER):
        if hi - lo <= _GOLDEN_REL_WIDTH * (1.0 + abs(best_x)):
            return best_x, best_f
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
            if f1 < best_f:
                best_x, best_f = x1, f1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
            if f2 < best_f:
                best_x, best_f = x2, f2
    raise NumericError(
        f"golden-section search did not converge on [{lo!r}, {hi!r}] "
        f"after {_GOLDEN_MAX_ITER} iterations"
    )


def _objective_bracket(
    model: ReturnModel, p: float, orientation: Orientation
) -> tuple[float, float]:
    # The minimizer is the oriented p-quantile; quantiles at a looser and a
    # tighter level bracket it for every family.
    return (
        var(model, p / 2.0, orientation),
        var(model, 1.0 - (1.0 - p) / 4.0, orientation),
    )


def cvar_ru(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Conditional value-at-risk via minimization of :func:`ru_objective`.

    Continuous families run a golden-section search over a quantile bracket.
    Equal-weight samples return the discrete tail average (the convention
    shared with :func:`cvar_tail`), keeping the two routes comparable across
    all families.
    """
    p = _require_probability(p)
    if isinstance(model, EmpiricalSample):
        return cvar_tail(model, p, orientation)
    lo, hi = _objective_bracket(model, p, orientation)
    _, best = _golden_min(lambda eta: ru_objective(model, p, eta, orientation), lo, hi)
    return best


def argmin_contains_var(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> bool:
    """Whether the value-at-risk minimizes the variational objective.

    Compares the objective evaluated at ``var`` against the bracket minimum
    found independently by golden-section search, within a small relative
    slack.  True for every supported family, including equal-weight samples
    (where the minimizing set is a flat segment starting at the quantile).
    """
    p = _require_probability(p)
    v = var(model, p, orientation)
    f_at_var = ru_objective(model, p, v, orientation)
    lo, hi = _objective_bracket(model, p, orientation)
    _, minimum = _golden_min(lambda eta: ru_objective(model, p, eta, orientation), lo, hi)
    return f_at_var <= minimum + 1e-9 * (1.0 + abs(minimum))


def evaluate(model: ReturnModel, spec: RiskMeasureSpec) -> float:
    """Evaluate the measure described by ``spec`` on a return model.

    ``cvar`` uses the direct tail formula (:func:`cvar_tail`); the
    variational route exists separately as an independent cross-check.
    """
    if spec.kind is MeasureKind.VAR:
        return var(model, spec.p, spec.orientation)
    return cvar_tail(model, spec.p, spec.orientation)
