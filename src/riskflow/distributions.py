"""Return-distribution models and their elementary functionals.

Three model families describe one-period returns:

* :class:`GaussianParams` — normal returns with mean ``mu`` and standard
  deviation ``sigma``;
* :class:`WeibullParams` — three-parameter Weibull with scale ``lam``,
  shape ``alpha`` and location ``theta`` (support ``[theta, inf)``);
* :class:`EmpiricalSample` — an equal-weight sample of observed returns.

Each family is one frozen dataclass that owns its formulas as methods:
``cdf(x)``, ``quantile(p)``, ``mean()``, ``exceedance(a)`` (the expected
positive part ``E[(X - a)+]``), ``draw(rng, n)`` and ``shift(c)`` (the law
of ``X + c``).  The two parametric families also map draws of their
standard model (:data:`STANDARD_MODELS`) to their own with ``scale``, and
the two families closed under negation give the law of ``-X`` with
``negated()``.  Each class names its ``family`` and maps its fields to
their JSON keys in ``keys``; :data:`FAMILIES` maps family names to classes,
so :func:`model_from_params` and :func:`model_params_dict` hold no
per-family code.  The constructors check every parameter's domain.

Everything downstream (static risk measures, recursions, calibration) is
written against this surface.  :func:`expected_positive_part` and
:func:`sample` are the module-level entry points that validate their
arguments before calling the methods.

Importing this module loads no SciPy.  ``scipy.special``, the only SciPy
module the package loads, comes in with the first Gaussian ``quantile`` or
Weibull ``exceedance`` above the location, the only two formulas that use it.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Mapping, TypeVar, Union

import numpy as np

from .errors import DataError, DomainError, NumericError

__all__ = [
    "ModelFamily",
    "GaussianParams",
    "WeibullParams",
    "EmpiricalSample",
    "ReturnModel",
    "FAMILIES",
    "STANDARD_MODELS",
    "expected_positive_part",
    "sample",
    "model_from_params",
    "model_params_dict",
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


def _require_number(value: object, complaint: str) -> float:
    """``value`` as a float.  A bool, a string or any other value that is not
    a real number raises :class:`DataError`, whose message opens with ``complaint``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{complaint}, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise DataError(f"{complaint}: {value!r} is too large for a float") from exc


def _require_non_negative_int(name: str, value: object) -> None:
    """Raise :class:`DomainError` unless ``value`` is a non-negative integer
    that is not a bool (the rule for counts and seeds)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


E = TypeVar("E", bound=Enum)
F = TypeVar("F", bound=Callable[..., float])


def _require_member(kind: type[E], value: object) -> E:
    """``value`` as a member of the enum ``kind``: a member or its value.
    Anything else raises :class:`DomainError` naming the choices."""
    try:
        return kind(value)
    except ValueError as exc:
        choices = [member.value for member in kind]
        raise DomainError(f"unknown {kind.__name__} {value!r}; choose from {choices}") from exc


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _overflow_is_numeric_error(method: F) -> F:
    """Make a Weibull formula whose value overflows a float raise
    :class:`NumericError` naming the model and the argument."""

    @functools.wraps(method)
    def checked(self: WeibullParams, *args: float) -> float:
        try:
            value = method(self, *args)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        at = ", ".join(map(repr, args))
        model = (self.lam, self.alpha, self.theta)
        raise NumericError(f"weibull {method.__name__}({at}) overflows a float for {model!r}")

    return checked  # type: ignore[return-value]


def _normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF; ``erfc`` keeps full relative accuracy in the lower tail."""
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(frozen=True)
class GaussianParams:
    """Normal return model ``N(mu, sigma**2)``."""

    family: ClassVar[str] = "gaussian"
    keys: ClassVar[Mapping[str, str]] = {"mu": "mu", "sigma": "sigma"}

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"gaussian mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"gaussian sigma must be positive, got {self.sigma!r}")

    def cdf(self, x: float) -> float:
        return _normal_cdf((float(x) - self.mu) / self.sigma)

    def quantile(self, p: float) -> float:
        from scipy.special import ndtri  # imported here so start-up loads no SciPy

        return self.mu + self.sigma * float(ndtri(_require_probability(p)))

    def mean(self) -> float:
        return self.mu

    def exceedance(self, a: float) -> float:
        """Closed form ``sigma * phi(d) + (mu - a) * Phi(d)`` with ``d = (mu - a) / sigma``."""
        d = (self.mu - a) / self.sigma
        return self.sigma * _normal_pdf(d) + (self.mu - a) * _normal_cdf(d)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale(rng.standard_normal(n))

    def scale(self, draws: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * draws

    def shift(self, c: float) -> GaussianParams:
        return GaussianParams(self.mu + _require_finite("shift", c), self.sigma)

    def negated(self) -> GaussianParams:
        return GaussianParams(-self.mu, self.sigma)


@dataclass(frozen=True)
class WeibullParams:
    """Three-parameter Weibull return model.

    ``lam`` is the scale (the reserved word ``lambda`` is spelled ``lam``
    in code; JSON surfaces use the key ``"lambda"``), ``alpha`` the shape,
    ``theta`` the location.  CDF: ``1 - exp(-((x - theta)/lam)**alpha)`` for
    ``x >= theta``.
    """

    family: ClassVar[str] = "weibull"
    keys: ClassVar[Mapping[str, str]] = {"lam": "lambda", "alpha": "alpha", "theta": "theta"}

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

    def cdf(self, x: float) -> float:
        x = float(x)
        if x <= self.theta:
            return 0.0
        return -math.expm1(-(((x - self.theta) / self.lam) ** self.alpha))

    @_overflow_is_numeric_error
    def quantile(self, p: float) -> float:
        """``theta + lam * (-ln(1 - p))**(1/alpha)``; ``-log1p(-p)`` keeps accuracy near 1."""
        p = _require_probability(p)
        return self.theta + self.lam * (-math.log1p(-p)) ** (1.0 / self.alpha)

    @_overflow_is_numeric_error
    def mean(self) -> float:
        return self.theta + self.lam * math.gamma(1.0 + 1.0 / self.alpha)

    @_overflow_is_numeric_error
    def exceedance(self, a: float) -> float:
        """Exact ``mean - a`` below the support, otherwise the survival function
        integrated over ``[a, inf)``: ``lam * Gamma(1 + 1/alpha) * Q(1/alpha, z)``
        with ``z = ((a - theta)/lam)**alpha`` and ``Q`` SciPy's ``gammaincc``,
        the regularised upper incomplete gamma function."""
        if a <= self.theta:
            return self.mean() - a
        from scipy.special import gammaincc  # imported here so start-up loads no SciPy

        try:
            z = ((a - self.theta) / self.lam) ** self.alpha
        except OverflowError:  # then alpha > 1, and Q(1/alpha, z) <= exp(-z)
            return 0.0
        s = 1.0 / self.alpha
        return self.lam * math.gamma(1.0 + s) * float(gammaincc(s, z))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale(-np.log1p(-rng.random(n)))

    def scale(self, draws: np.ndarray) -> np.ndarray:
        return self.theta + self.lam * draws ** (1.0 / self.alpha)

    def shift(self, c: float) -> WeibullParams:
        return WeibullParams(self.lam, self.alpha, self.theta + _require_finite("shift", c))


@dataclass(frozen=True)
class EmpiricalSample:
    """Equal-weight empirical return model over a finite sample.

    Values are stored sorted ascending; quantiles follow the
    smallest-order-statistic convention ``inf {eta : P(X <= eta) >= p}``.
    """

    family: ClassVar[str] = "empirical"
    keys: ClassVar[Mapping[str, str]] = {"values": "values"}

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise DataError("empirical sample must contain at least one value")
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) for v in vals):
            raise DataError("empirical sample contains non-finite values")
        object.__setattr__(self, "values", tuple(sorted(vals)))

    def cdf(self, x: float) -> float:
        # values are sorted; count of entries <= x
        return bisect.bisect_right(self.values, float(x)) / len(self.values)

    def quantile(self, p: float) -> float:
        p = _require_probability(p)
        n = len(self.values)
        # Smallest k with k/n >= p.  The 1e-9 nudge absorbs float noise in
        # n*p (e.g. 0.9 * 10 == 9.000000000000002) so the order-statistic
        # rule matches the exact rational convention for every intended pair.
        k = math.ceil(n * p - 1e-9)
        return self.values[min(max(k, 1), n) - 1]

    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)

    def exceedance(self, a: float) -> float:
        return math.fsum(max(v - a, 0.0) for v in self.values) / len(self.values)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        vals = np.asarray(self.values)
        return vals[rng.integers(0, len(vals), size=n)]

    def shift(self, c: float) -> EmpiricalSample:
        c = _require_finite("shift", c)
        return EmpiricalSample(tuple(v + c for v in self.values))

    def negated(self) -> EmpiricalSample:
        return EmpiricalSample(tuple(-v for v in self.values))


ReturnModel = Union[GaussianParams, WeibullParams, EmpiricalSample]

#: Model classes by family name.
FAMILIES: Mapping[str, type] = {
    cls.family: cls for cls in (GaussianParams, WeibullParams, EmpiricalSample)
}

#: The standard model of each parametric family: ``sample`` of any model of
#: the family is its ``scale`` applied to ``sample`` of this model from the
#: same stream.  The Weibull one is the unit exponential.
STANDARD_MODELS: Mapping[ModelFamily, ReturnModel] = {
    ModelFamily.GAUSSIAN: GaussianParams(0.0, 1.0),
    ModelFamily.WEIBULL: WeibullParams(1.0, 1.0, 0.0),
}


def expected_positive_part(model: ReturnModel, a: float) -> float:
    """``E[(X - a)+]`` — the expected exceedance of ``X`` over a finite ``a``."""
    return model.exceedance(_require_finite("threshold", a))


def sample(model: ReturnModel, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. returns from the model, deterministically per seed.

    ``n`` is a positive integer.  ``seed`` may be a non-negative integer or
    an existing :class:`numpy.random.Generator` (used as-is, so callers can
    thread one stream through several draws).
    """
    _require_non_negative_int("sample size", n)
    if n == 0:
        raise DomainError("sample size must be positive, got 0")
    if not isinstance(seed, np.random.Generator):
        _require_non_negative_int("seed", seed)
    return model.draw(np.random.default_rng(seed), n)


# --------------------------------------------------------------------------
# JSON-facing constructors
# --------------------------------------------------------------------------


def model_from_params(family: str | ModelFamily, params: Mapping[str, object]) -> ReturnModel:
    """Build a model from its JSON parameter mapping.

    ``family`` names a class in :data:`FAMILIES` (a :class:`ModelFamily`
    member names its value) and ``params`` maps that class's JSON keys to
    numbers (``empirical`` takes a list under ``"values"``).  Keys of fields
    with a default may be left out: the Weibull ``"theta"`` defaults to 0.
    Unknown families, wrong keys and values that are not real numbers
    (booleans and numeric strings included) raise :class:`DataError`.
    """
    family_name = family.value if isinstance(family, ModelFamily) else str(family)
    cls = FAMILIES.get(family_name.lower())
    if cls is None:
        raise DataError(f"unknown model family {family!r}")
    optional = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    required = {key for name, key in cls.keys.items() if name not in optional}
    missing = required - set(params)
    extra = set(params) - set(cls.keys.values())
    if missing or extra:
        raise DataError(
            f"{cls.family} params take keys {sorted(cls.keys.values())} "
            f"({sorted(required)} required); "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )

    complaint = f"{cls.family} params must be numbers"
    given = {name: params[key] for name, key in cls.keys.items() if key in params}
    try:
        return cls(**{
            name: tuple(_require_number(v, complaint) for v in value)
            if isinstance(value, (list, tuple))
            else _require_number(value, complaint)
            for name, value in given.items()
        })
    except TypeError as exc:
        raise DataError(f"{complaint}: {exc}") from exc


def model_params_dict(model: ReturnModel) -> dict[str, object]:
    """Inverse of :func:`model_from_params`, suitable for JSON output."""
    return {key: getattr(model, name) for name, key in model.keys.items()}
