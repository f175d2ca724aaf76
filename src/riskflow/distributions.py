"""Return-distribution models and their elementary functionals.

Three model families describe one-period returns:

* :class:`GaussianParams` — normal returns with mean ``mu`` and standard
  deviation ``sigma``;
* :class:`WeibullParams` — three-parameter Weibull with scale ``lam``,
  shape ``alpha`` and location ``theta`` (support ``[theta, inf)``);
* :class:`EmpiricalSample` — an equal-weight sample of observed returns.

Everything downstream (static risk measures, recursions, calibration) is
written against the small functional surface defined here: CDF, quantile,
mean, expected positive part ``E[(X - a)+]`` and seeded sampling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from .errors import DataError, DomainError, NumericError

__all__ = [
    "ModelFamily",
    "GaussianParams",
    "WeibullParams",
    "EmpiricalSample",
    "ReturnModel",
    "gaussian_cdf",
    "gaussian_pdf",
    "gaussian_quantile",
    "weibull_cdf",
    "weibull_pdf",
    "weibull_quantile",
    "model_cdf",
    "model_quantile",
    "model_mean",
    "expected_positive_part",
    "sample",
    "STANDARD_MODELS",
    "scale_standard_draws",
    "shift_model",
    "model_from_params",
    "model_params_dict",
    "family_of",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ModelFamily(str, Enum):
    """Parametric families the calibration and CLI surfaces know by name."""

    GAUSSIAN = "gaussian"
    WEIBULL = "weibull"


def _require_probability(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"confidence level must lie strictly in (0, 1), got {p!r}")
    return p


@dataclass(frozen=True)
class GaussianParams:
    """Normal return model ``N(mu, sigma**2)``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"gaussian mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"gaussian sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class WeibullParams:
    """Three-parameter Weibull return model.

    ``lam`` is the scale (the reserved word ``lambda`` is spelled ``lam``
    in code; JSON surfaces use the key ``"lambda"``), ``alpha`` the shape,
    ``theta`` the location.  CDF: ``1 - exp(-((x - theta)/lam)**alpha)`` for
    ``x >= theta``.
    """

    lam: float
    alpha: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"weibull scale must be positive, got {self.lam!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"weibull shape must be positive, got {self.alpha!r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"weibull location must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class EmpiricalSample:
    """Equal-weight empirical return model over a finite sample.

    Values are stored sorted ascending; quantiles follow the
    smallest-order-statistic convention ``inf {eta : P(X <= eta) >= p}``.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise DataError("empirical sample must contain at least one value")
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) for v in vals):
            raise DataError("empirical sample contains non-finite values")
        object.__setattr__(self, "values", tuple(sorted(vals)))


ReturnModel = Union[GaussianParams, WeibullParams, EmpiricalSample]


# --------------------------------------------------------------------------
# Normal family
# --------------------------------------------------------------------------


def gaussian_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """``P(X <= x)`` for ``X ~ N(mu, sigma**2)``.

    Uses ``erfc`` so the lower tail keeps full relative accuracy.
    """
    z = (float(x) - mu) / sigma
    return 0.5 * math.erfc(-z / _SQRT2)


def gaussian_pdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    z = (float(x) - mu) / sigma
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / sigma


def gaussian_quantile(p: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Quantile of ``N(mu, sigma**2)`` at level ``p`` in (0, 1)."""
    p = _require_probability(p)
    return mu + sigma * float(ndtri(p))


# --------------------------------------------------------------------------
# Weibull family
# --------------------------------------------------------------------------


def weibull_cdf(x: float, lam: float, alpha: float, theta: float = 0.0) -> float:
    """``P(X <= x)`` for the three-parameter Weibull."""
    x = float(x)
    if x <= theta:
        return 0.0
    u = (x - theta) / lam
    return -math.expm1(-(u**alpha))


def weibull_pdf(x: float, lam: float, alpha: float, theta: float = 0.0) -> float:
    x = float(x)
    if x <= theta:
        return 0.0
    u = (x - theta) / lam
    return (alpha / lam) * u ** (alpha - 1.0) * math.exp(-(u**alpha))


def weibull_quantile(p: float, lam: float, alpha: float, theta: float = 0.0) -> float:
    """Quantile ``theta + lam * (-ln(1 - p))**(1/alpha)``.

    ``-log1p(-p)`` keeps accuracy for levels close to 1.
    """
    p = _require_probability(p)
    return theta + lam * (-math.log1p(-p)) ** (1.0 / alpha)


# --------------------------------------------------------------------------
# Model-level dispatch
# --------------------------------------------------------------------------


def model_cdf(model: ReturnModel, x: float) -> float:
    """``P(X <= x)`` under the given return model."""
    if isinstance(model, GaussianParams):
        return gaussian_cdf(x, model.mu, model.sigma)
    if isinstance(model, WeibullParams):
        return weibull_cdf(x, model.lam, model.alpha, model.theta)
    if isinstance(model, EmpiricalSample):
        # values are sorted; count of entries <= x
        return bisect.bisect_right(model.values, float(x)) / len(model.values)
    raise DomainError(f"unsupported model type: {type(model).__name__}")


def model_quantile(model: ReturnModel, p: float) -> float:
    """Lower quantile ``inf {eta : P(X <= eta) >= p}``."""
    p = _require_probability(p)
    if isinstance(model, GaussianParams):
        return gaussian_quantile(p, model.mu, model.sigma)
    if isinstance(model, WeibullParams):
        return weibull_quantile(p, model.lam, model.alpha, model.theta)
    if isinstance(model, EmpiricalSample):
        n = len(model.values)
        # Smallest k with k/n >= p.  The 1e-9 nudge absorbs float noise in
        # n*p (e.g. 0.9 * 10 == 9.000000000000002) so the order-statistic
        # rule matches the exact rational convention for every intended pair.
        k = math.ceil(n * p - 1e-9)
        k = min(max(k, 1), n)
        return model.values[k - 1]
    raise DomainError(f"unsupported model type: {type(model).__name__}")


def model_mean(model: ReturnModel) -> float:
    """``E[X]`` under the given return model."""
    if isinstance(model, GaussianParams):
        return model.mu
    if isinstance(model, WeibullParams):
        return model.theta + model.lam * math.gamma(1.0 + 1.0 / model.alpha)
    if isinstance(model, EmpiricalSample):
        return math.fsum(model.values) / len(model.values)
    raise DomainError(f"unsupported model type: {type(model).__name__}")


def expected_positive_part(model: ReturnModel, a: float) -> float:
    """``E[(X - a)+]`` — the expected exceedance of ``X`` over ``a``.

    Gaussian: closed form ``sigma * phi(d) + (mu - a) * Phi(d)`` with
    ``d = (mu - a) / sigma``.  Weibull: exact ``mean - a`` below the support,
    otherwise adaptive quadrature of the survival function (integrating
    ``S(x) = exp(-((x - theta)/lam)**alpha)`` over ``[a, inf)``, which equals
    the exceedance by parts and has a smooth integrand).  Empirical: sample
    mean of the clipped values.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"threshold must be finite, got {a!r}")
    if isinstance(model, GaussianParams):
        d = (model.mu - a) / model.sigma
        return model.sigma * gaussian_pdf(d) + (model.mu - a) * gaussian_cdf(d)
    if isinstance(model, WeibullParams):
        if a <= model.theta:
            return model_mean(model) - a
        lam, alpha, theta = model.lam, model.alpha, model.theta

        def survival(x: float) -> float:
            return math.exp(-(((x - theta) / lam) ** alpha))

        value, abserr = quad(survival, a, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
        if not math.isfinite(value) or abserr > 1e-6 * max(1.0, abs(value)):
            raise NumericError(
                f"exceedance quadrature failed for weibull{(lam, alpha, theta)!r} at a={a!r}"
            )
        return max(value, 0.0)
    if isinstance(model, EmpiricalSample):
        return math.fsum(max(v - a, 0.0) for v in model.values) / len(model.values)
    raise DomainError(f"unsupported model type: {type(model).__name__}")


def sample(model: ReturnModel, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. returns from the model, deterministically per seed.

    ``seed`` may be an integer or an existing :class:`numpy.random.Generator`
    (used as-is, so callers can thread one stream through several draws).
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    rng = np.random.default_rng(seed)
    if isinstance(model, GaussianParams):
        return scale_standard_draws(model, rng.standard_normal(n))
    if isinstance(model, WeibullParams):
        return scale_standard_draws(model, -np.log1p(-rng.random(n)))
    if isinstance(model, EmpiricalSample):
        vals = np.asarray(model.values)
        return vals[rng.integers(0, len(vals), size=n)]
    raise DomainError(f"unsupported model type: {type(model).__name__}")


#: The standard model of each parametric family: ``sample`` of any model of
#: the family is :func:`scale_standard_draws` applied to ``sample`` of this
#: model from the same stream.  The Weibull one is the unit exponential.
STANDARD_MODELS: Mapping[ModelFamily, ReturnModel] = {
    ModelFamily.GAUSSIAN: GaussianParams(0.0, 1.0),
    ModelFamily.WEIBULL: WeibullParams(1.0, 1.0, 0.0),
}


def scale_standard_draws(model: ReturnModel, draws: np.ndarray) -> np.ndarray:
    """Map draws of the family's standard model (:data:`STANDARD_MODELS`) to draws of ``model``."""
    if isinstance(model, GaussianParams):
        return model.mu + model.sigma * draws
    if isinstance(model, WeibullParams):
        return model.theta + model.lam * draws ** (1.0 / model.alpha)
    raise DomainError(f"{type(model).__name__} has no standard model")


def shift_model(model: ReturnModel, c: float) -> ReturnModel:
    """The law of ``X + c``; every family is closed under translation."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"shift must be finite, got {c!r}")
    if isinstance(model, GaussianParams):
        return GaussianParams(model.mu + c, model.sigma)
    if isinstance(model, WeibullParams):
        return WeibullParams(model.lam, model.alpha, model.theta + c)
    if isinstance(model, EmpiricalSample):
        return EmpiricalSample(tuple(v + c for v in model.values))
    raise DomainError(f"unsupported model type: {type(model).__name__}")


# --------------------------------------------------------------------------
# JSON-facing constructors
# --------------------------------------------------------------------------

_GAUSSIAN_KEYS = {"mu", "sigma"}
_WEIBULL_KEYS = {"lambda", "alpha", "theta"}


def model_from_params(family: str, params: Mapping[str, object]) -> ReturnModel:
    """Build a model from its JSON parameter mapping.

    Accepted shapes: ``gaussian`` with ``{"mu", "sigma"}``; ``weibull`` with
    ``{"lambda", "alpha"}`` and optional ``"theta"`` (default 0);
    ``empirical`` with ``{"values": [...]}``.
    """
    fam = str(family).lower()
    if fam == "gaussian":
        extra = set(params) - _GAUSSIAN_KEYS
        missing = _GAUSSIAN_KEYS - set(params)
        if extra or missing:
            raise DataError(
                f"gaussian params need keys {sorted(_GAUSSIAN_KEYS)}; "
                f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        return GaussianParams(float(params["mu"]), float(params["sigma"]))  # type: ignore[arg-type]
    if fam == "weibull":
        extra = set(params) - _WEIBULL_KEYS
        missing = {"lambda", "alpha"} - set(params)
        if extra or missing:
            raise DataError(
                f"weibull params need keys ['alpha', 'lambda'] (optional 'theta'); "
                f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        theta = float(params.get("theta", 0.0))  # type: ignore[arg-type]
        return WeibullParams(float(params["lambda"]), float(params["alpha"]), theta)  # type: ignore[arg-type]
    if fam == "empirical":
        if set(params) != {"values"} or not isinstance(params["values"], (list, tuple)):
            raise DataError('empirical params need a single key "values" with a list')
        return EmpiricalSample(tuple(float(v) for v in params["values"]))  # type: ignore[arg-type]
    raise DataError(f"unknown model family {family!r}")


def model_params_dict(model: ReturnModel) -> dict[str, object]:
    """Inverse of :func:`model_from_params`, suitable for JSON output."""
    if isinstance(model, GaussianParams):
        return {"mu": model.mu, "sigma": model.sigma}
    if isinstance(model, WeibullParams):
        return {"lambda": model.lam, "alpha": model.alpha, "theta": model.theta}
    if isinstance(model, EmpiricalSample):
        return {"values": list(model.values)}
    raise DomainError(f"unsupported model type: {type(model).__name__}")


def family_of(model: ReturnModel) -> str:
    """Family name string for JSON output."""
    if isinstance(model, GaussianParams):
        return "gaussian"
    if isinstance(model, WeibullParams):
        return "weibull"
    if isinstance(model, EmpiricalSample):
        return "empirical"
    raise DomainError(f"unsupported model type: {type(model).__name__}")
