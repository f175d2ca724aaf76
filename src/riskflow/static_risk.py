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

The per-family formulas live on the model classes: ``var`` is
``model.quantile(p)`` in the upper tail and ``model.negated_quantile(p)`` in
the lower, ``cvar`` is ``model.tail_mean(p)`` and
``model.negated_tail_mean(p)``.  This module dispatches on measure kind and
orientation; the only family branches left are the Gaussian lower-tail
``cvar``, taken as the upper-tail measure of ``negated()``, and the sample
shortcut of :func:`cvar_ru`.

``cvar`` comes in two independently computed flavours used to cross-check
each other: :func:`cvar_tail` evaluates the tail-mean formula directly, and
:func:`cvar_ru` minimizes the variational objective
``F_p(X, eta) = eta + E[(X - eta)+]/(1 - p)`` (Rockafellar & Uryasev,
2002) by a golden-section search over a quantile bracket.  For continuous
families the two agree; for equal-weight samples both return the tail
average beyond the sample quantile (the discrete tail-average convention),
and :func:`argmin_contains_var` checks, against the minimum that same
search finds, that the quantile is a minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .distributions import (
    EmpiricalSample,
    GaussianParams,
    ReturnModel,
    _require_probability,
    expected_positive_part,
)
from .errors import NumericError, _require_member, _require_real

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
    """A fully specified single-period measure: kind, level and orientation.

    ``kind`` and ``orientation`` are members or their values."""

    kind: MeasureKind
    p: float
    orientation: Orientation = Orientation.UPPER_TAIL

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _require_member(MeasureKind, self.kind))
        object.__setattr__(self, "orientation", _require_member(Orientation, self.orientation))
        object.__setattr__(self, "p", _require_probability(self.p))


def var(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Value-at-risk at level ``p``.

    Upper tail: ``inf {eta : P(X <= eta) >= p}``, the model's
    ``quantile(p)``.  Lower tail: the same quantile of ``-X``, the model's
    ``negated_quantile(p)``.
    """
    p = _require_probability(p)
    if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL:
        return model.quantile(p)
    return model.negated_quantile(p)


def cvar_tail(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Conditional value-at-risk as a direct tail expectation.

    Upper tail: the model's ``tail_mean(p)``, ``E[X | X >= var]``; on
    equal-weight samples the ties at ``var`` enter the tail.  Lower tail: the
    upper-tail measure of ``-X``: the model's ``negated_tail_mean(p)``, and
    for the Gaussian family this function on ``negated()``.
    """
    p = _require_probability(p)
    if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL:
        return model.tail_mean(p)
    if isinstance(model, GaussianParams):
        # perfbench's tracer test counts this recursion; ROADMAP item 6(a) replaces that test.
        return cvar_tail(model.negated(), p, Orientation.UPPER_TAIL)
    return model.negated_tail_mean(p)


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
    eta = _require_real(eta, "threshold")
    if _require_member(Orientation, orientation) is Orientation.UPPER_TAIL:
        excess = expected_positive_part(model, eta)
    else:
        excess = expected_positive_part(model, -eta) - model.mean() - eta
    return eta + excess / (1.0 - p)


#: Golden-section stopping rule: the bracket width relative to the scale of
#: its ends, and the iteration budget.
_GOLDEN_REL_WIDTH = 1e-10
_GOLDEN_MAX_ITER = 200


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimum of a convex function on ``[lo, hi]``.

    Returns the least value over all evaluated points.  Convexity makes the
    non-strict bracket update sound even across flat stretches.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise NumericError(f"invalid minimization bracket [{lo!r}, {hi!r}]")
    if hi - lo <= _GOLDEN_REL_WIDTH * (1.0 + abs(lo) + abs(hi)):
        return f(0.5 * (lo + hi))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(_GOLDEN_MAX_ITER):
        if hi - lo <= _GOLDEN_REL_WIDTH * (1.0 + abs(best_x)):
            return best_f
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


def _ru_minimum(model: ReturnModel, p: float, orientation: Orientation) -> float:
    # The minimizer is the oriented p-quantile; quantiles at a looser and a
    # tighter level bracket it for every family.
    lo = var(model, p / 2.0, orientation)
    hi = var(model, 1.0 - (1.0 - p) / 4.0, orientation)
    return _golden_min(lambda eta: ru_objective(model, p, eta, orientation), lo, hi)


def cvar_ru(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> float:
    """Conditional value-at-risk via minimization of :func:`ru_objective`.

    Continuous families take the minimum of the shared quantile-bracket
    search.  Equal-weight samples return the discrete tail average (the
    convention shared with :func:`cvar_tail`), keeping the two routes
    comparable across all families.  A minimum that leaves the floats raises
    :class:`NumericError` naming the model; :func:`ru_objective` does not
    check, because a bracket end can overflow where the minimum is finite.
    """
    p = _require_probability(p)
    if isinstance(model, EmpiricalSample):
        return cvar_tail(model, p, orientation)
    minimum = _ru_minimum(model, p, orientation)
    if not math.isfinite(minimum):
        raise NumericError(f"cvar_ru({p!r}) overflows a float for {model!r}")
    return minimum


def argmin_contains_var(
    model: ReturnModel,
    p: float,
    orientation: Orientation = Orientation.UPPER_TAIL,
) -> bool:
    """Whether the value-at-risk minimizes the variational objective.

    Compares the objective at ``var`` with the minimum that the search of
    :func:`cvar_ru` finds, within a small relative slack.  True for every
    supported family, including equal-weight samples (where the minimizing
    set is a flat segment starting at the quantile).
    """
    p = _require_probability(p)
    v = var(model, p, orientation)
    f_at_var = ru_objective(model, p, v, orientation)
    minimum = _ru_minimum(model, p, orientation)
    return f_at_var <= minimum + 1e-9 * (1.0 + abs(minimum))


def evaluate(model: ReturnModel, spec: RiskMeasureSpec) -> float:
    """Evaluate the measure described by ``spec`` on a return model.

    ``cvar`` uses the direct tail formula (:func:`cvar_tail`); the
    variational route exists separately as an independent cross-check.
    """
    if spec.kind is MeasureKind.VAR:
        return var(model, spec.p, spec.orientation)
    return cvar_tail(model, spec.p, spec.orientation)
