"""Return-distribution models and their elementary functionals.

Three model families describe one-period returns:

* :class:`GaussianParams` — normal returns with mean ``mu`` and standard
  deviation ``sigma``;
* :class:`WeibullParams` — three-parameter Weibull with scale ``lam``,
  shape ``alpha`` and location ``theta`` (support ``[theta, inf)``);
* :class:`EmpiricalSample` — an equal-weight sample of observed returns,
  held as one sorted, read-only float64 array.

Each family is one frozen dataclass that owns its formulas as methods:
``cdf(x)``, ``quantile(p)``, ``mean()``, ``exceedance(a)`` (the expected
positive part ``E[(X - a)+]``), ``tail_mean(p)`` (the upper-tail mean
``E[X | X >= quantile(p)]``, the tail CVaR), ``draw(rng, n)`` and
``shift(c)`` (the law of ``X + c``).  The two parametric families also map
draws of their standard model (:data:`STANDARD_MODELS`) to their own with
``scale``, and the two families closed under negation give the law of
``-X`` with ``negated()``.  Each class also owns its lower tail, the same
functionals of ``-X``: ``negated_quantile(p)`` everywhere, and
``negated_tail_mean(p)`` for the Weibull family (read from its upper tail by
the reflection ``q_p(-X) = -q_{1-p}(X)``, as it has no ``negated()``) and
for samples (read in place from the low end of the sorted values); the
Gaussian lower-tail mean is ``negated().tail_mean(p)``.  Each class names
its ``family`` and maps its fields to their JSON keys in ``keys``;
:data:`FAMILIES` maps family names to classes, so :func:`model_from_params`
and :func:`model_params_dict` hold no per-family code.  The constructors
check every parameter's domain.  A quantile, mean or tail mean of either
tail, or a Weibull exceedance, whose value leaves the floats raises
:class:`~riskflow.errors.NumericError` naming the model and the argument,
and so does a sample's sum whose partial sums leave them.

Everything downstream (static risk measures, recursions, calibration) is
written against this surface.  :func:`expected_positive_part` and
:func:`sample` are the module-level entry points that validate their
arguments before calling the methods.  ``draw`` takes a numpy ``Generator``
and a size in numpy's convention (a count or a shape).  The two parametric
families draw one uniform per return and map it through their standard
model's quantile, so ``n`` draws take exactly ``n`` steps of the stream.

The package uses no SciPy.  The two special functions its formulas need
are written here, each next to the formula that uses it: the normal quantile
(Wichura's AS241) for the Gaussian ``quantile`` and ``draw``, and the
regularised upper incomplete gamma function for the Weibull ``exceedance``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Mapping, TypeVar, Union

import numpy as np

from .errors import DataError, DomainError, NumericError
from .errors import _require_count, _require_real, _require_reals

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
    """``p`` as a float strictly inside (0, 1): a real number by
    :func:`~riskflow.errors._require_real`, else :class:`DomainError`."""
    if p.__class__ is not float:
        p = _require_real(p, "confidence level")
    if not 0.0 < p < 1.0:
        raise DomainError(f"confidence level must lie strictly in (0, 1), got {p!r}")
    return p


F = TypeVar("F", bound=Callable[..., float])


def _overflow_is_numeric_error(method: F) -> F:
    """Make a parametric formula whose value overflows a float raise
    :class:`NumericError` naming the model's family, its fields and the argument."""

    @functools.wraps(method)
    def checked(self: GaussianParams | WeibullParams, *args: float) -> float:
        try:
            value = method(self, *args)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        at = ", ".join(map(repr, args))
        model = tuple(getattr(self, name) for name in self.keys)
        raise NumericError(f"{self.family} {method.__name__}({at}) overflows a float for {model!r}")

    return checked  # type: ignore[return-value]


def _normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF; ``erfc`` keeps full relative accuracy in the lower tail."""
    return 0.5 * math.erfc(-z / _SQRT2)


#: Wichura's AS241 (PPND16; "The percentage points of the normal
#: distribution", Applied Statistics 37, 1988): numerator and denominator
#: coefficients, constant term first, of three rational approximations.
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR_TAIL = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(
    coefficients: tuple[tuple[float, ...], tuple[float, ...]], r: float | np.ndarray
) -> float | np.ndarray:
    """Horner's rule for both polynomials of ``coefficients`` at ``r``, in place on an array."""
    numerator, denominator = 0.0 * r, 0.0 * r
    for n, d in zip(reversed(coefficients[0]), reversed(coefficients[1])):
        numerator *= r
        numerator += n
        denominator *= r
        denominator += d
    numerator /= denominator
    return numerator


def _normal_quantile(p: float) -> float:
    """Standard normal quantile for ``0 < p < 1`` by AS241: a rational function
    of ``(p - 1/2)**2`` for ``|p - 1/2| <= 0.425``, and beyond it of
    ``r = sqrt(-log(min(p, 1 - p)))``, with one function for ``r <= 5`` and one
    for the far tail.  Within a few ulp of the true quantile; ``1 - p`` is only
    formed for ``p > 1/2``, so the lower tail keeps its relative accuracy."""
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    r = math.sqrt(-math.log(p if q < 0.0 else 1.0 - p))
    if r <= 5.0:
        z = _rational(_AS241_NEAR_TAIL, r - 1.6)
    else:
        z = _rational(_AS241_FAR_TAIL, r - 5.0)
    return -z if q < 0.0 else z


def _normal_quantiles(p: np.ndarray) -> np.ndarray:
    """:func:`_normal_quantile` of every element of an array of ``p`` in
    ``(0, 1)``, with the same operations: equal to it up to ``np.log`` against
    ``math.log`` in the tails.  The central function runs on every element
    (masking out the tails costs more than it saves), each tail one on its own."""
    q = p - 0.5
    z = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.abs(q) > 0.425
    p, lower = p[tail], q[tail] < 0.0
    r = np.sqrt(-np.log(np.where(lower, p, 1.0 - p)))
    z_tail = _rational(_AS241_NEAR_TAIL, r - 1.6)
    far = r > 5.0
    z_tail[far] = _rational(_AS241_FAR_TAIL, r[far] - 5.0)
    np.negative(z_tail, out=z_tail, where=lower)
    z[tail] = z_tail
    return z


#: ``Generator.random`` returns multiples of ``2**-53`` in ``[0, 1)``.  A
#: Gaussian draw reads a uniform of exactly 0 (probability ``2**-53``) as
#: ``2**-53``, the smallest positive one, so the standard draws are finite
#: and symmetric: they lie in ``[-z, z]`` with ``z = Phi^-1(1 - 2**-53)``,
#: about 8.21.
_SMALLEST_UNIFORM = 2.0**-53


@dataclass(frozen=True)
class GaussianParams:
    """Normal return model ``N(mu, sigma**2)``."""

    family: ClassVar[str] = "gaussian"
    keys: ClassVar[Mapping[str, str]] = {"mu": "mu", "sigma": "sigma"}

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        mu = _require_real(self.mu, "gaussian mu")
        sigma = _require_real(self.sigma, "gaussian sigma")
        if not sigma > 0.0:
            raise DomainError(f"gaussian sigma must be positive, got {sigma!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    def cdf(self, x: float) -> float:
        return _normal_cdf((float(x) - self.mu) / self.sigma)

    @_overflow_is_numeric_error
    def quantile(self, p: float) -> float:
        return self.mu + self.sigma * _normal_quantile(_require_probability(p))

    def negated_quantile(self, p: float) -> float:
        """The quantile of ``-X``: ``negated().quantile(p)``."""
        return self.negated().quantile(p)

    def mean(self) -> float:
        return self.mu

    def exceedance(self, a: float) -> float:
        """Closed form ``sigma * phi(d) + (mu - a) * Phi(d)`` with ``d = (mu - a) / sigma``."""
        d = (self.mu - a) / self.sigma
        return self.sigma * _normal_pdf(d) + (self.mu - a) * _normal_cdf(d)

    @_overflow_is_numeric_error
    def tail_mean(self, p: float) -> float:
        """Closed form ``mu + sigma * phi(z_p) / (1 - p)``."""
        p = _require_probability(p)
        return self.mu + self.sigma * _normal_pdf(_normal_quantile(p)) / (1.0 - p)

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """``mu + sigma * Phi^-1(u)`` of ``rng.random(size)``, AS241 on the
        array; ``u = 0`` is read as :data:`_SMALLEST_UNIFORM`."""
        return self.scale(_normal_quantiles(np.maximum(rng.random(size), _SMALLEST_UNIFORM)))

    def scale(self, draws: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * draws

    def shift(self, c: float) -> GaussianParams:
        return GaussianParams(self.mu + _require_real(c, "shift"), self.sigma)

    def negated(self) -> GaussianParams:
        return GaussianParams(-self.mu, self.sigma)


#: Half the spacing of the floats at 1: the relative rounding error.
_EPS = sys.float_info.epsilon / 2.0
#: Smallest positive normal float.
_TINY = sys.float_info.min
#: Cap on the terms of one series or continued fraction in ``_upper_gamma_q``.
#: For ``a`` up to 171, beyond which ``Gamma(1 + a)`` overflows, and ``x`` from
#: 1e-6 to 1e5, at most 178 are needed.
_GAMMA_MAX_TERMS = 1000


def _gamma_power(a: float, x: float) -> float:
    """``x**a * exp(-x) / Gamma(a)`` for ``a, x > 0``.

    Each factor is rounded on its own, so the product is within a few ulp;
    a sum ``a*log(x) - x - lgamma(a)`` under one ``exp`` would carry the
    rounding of terms of size ``a*log(x)`` instead.  Where ``x**a`` or
    ``exp(-x)`` leaves the normal floats, the square of ``x**(a/2) *
    exp(-x/2)`` is used, and only beyond that the exponentiated sum.
    """
    try:
        gamma = math.gamma(a)
    except OverflowError:
        gamma = math.inf
    for n in (1.0, 2.0):
        try:
            power = x ** (a / n)
        except OverflowError:
            continue
        decay = math.exp(-x / n)
        f = power * decay
        if gamma < math.inf and power >= _TINY and decay >= _TINY and f >= _TINY:
            return f / gamma if n == 1.0 else f * (f / gamma)
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularised upper incomplete gamma function ``Q(a, x)`` for ``a > 0``,
    ``x >= 0``, after DiDonato & Morris (ACM TOMS 12, 1986), without their
    uniform expansion near ``a = x``.

    For ``x < a`` it is ``1 - P(a, x)``, with ``P`` the power series
    ``x**a e**-x / Gamma(a + 1) * sum_n x**n / ((a+1)...(a+n))``; there ``P``
    is below about one half, so the difference loses little.  Otherwise it is
    Legendre's continued fraction ``x**a e**-x / Gamma(a) / (x + 1 - a -
    1(1 - a)/(x + 3 - a - 2(2 - a)/(x + 5 - a - ...)))``, summed term by term
    by Steed's method: a sum of shrinking terms carries less rounding than
    Lentz's product of factors near 1.  Below ``x = 1/2`` the fraction would
    take hundreds of terms, so the series is used there too.  The series
    stops once a bound on its remaining tail is below ``2**-55`` of the sum,
    the fraction once its last term is.  A loop that reaches
    :data:`_GAMMA_MAX_TERMS` raises :class:`NumericError` naming ``(a, x)``.
    """
    if x < a or x < 0.5:
        if x == 0.0:
            return 1.0
        term = total = 1.0
        n = a + 1.0
        for _ in range(_GAMMA_MAX_TERMS):
            term *= x / n
            total += term
            n += 1.0
            # The remaining terms shrink at least by x/n each: their sum is
            # below term * x / (n - x), and n > x here.
            if term * x <= 0.25 * _EPS * total * (n - x):
                # Gamma(a + 1) as a * Gamma(a): a + 1 itself would be rounded.
                return 1.0 - _gamma_power(a, x) / a * total
    else:
        # Steed's method: d is the ratio of successive denominators and dh
        # the change of the convergent h; c = i(i - a) and b = x + 2i + 1 - a.
        tol = 0.25 * _EPS
        b = x + 1.0 - a
        d = h = dh = 1.0 / b
        c, step = 0.0, 1.0 - a
        for _ in range(_GAMMA_MAX_TERMS):
            c += step
            step += 2.0
            b += 2.0
            e = c * d
            d = 1.0 / (b - e)
            dh *= e * d
            h += dh
            if abs(dh) <= tol * h:
                return _gamma_power(a, x) * h
    raise NumericError(
        f"incomplete gamma Q{(a, x)!r} did not converge in {_GAMMA_MAX_TERMS} terms"
    )


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
        for name, what in (("lam", "weibull scale"), ("alpha", "weibull shape")):
            value = _require_real(getattr(self, name), what)
            if not value > 0.0:
                raise DomainError(f"{what} must be positive, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "theta", _require_real(self.theta, "weibull location"))

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
        with ``z = ((a - theta)/lam)**alpha`` and ``Q`` the regularised upper
        incomplete gamma function (:func:`_upper_gamma_q`)."""
        if a <= self.theta:
            return self.mean() - a
        try:
            z = ((a - self.theta) / self.lam) ** self.alpha
        except OverflowError:  # then alpha > 1, and Q(1/alpha, z) <= exp(-z)
            return 0.0
        s = 1.0 / self.alpha
        return self.lam * math.gamma(1.0 + s) * _upper_gamma_q(s, z)

    @_overflow_is_numeric_error
    def tail_mean(self, p: float) -> float:
        """``v + E[(X - v)+] / (1 - p)`` at the quantile ``v``."""
        p = _require_probability(p)
        v = self.quantile(p)
        return v + expected_positive_part(self, v) / (1.0 - p)

    def negated_quantile(self, p: float) -> float:
        """The quantile of ``-X`` by the reflection ``-quantile(1 - p)``, exact
        on the continuous support; ``quantile`` raises where it overflows."""
        return -self.quantile(1.0 - _require_probability(p))

    @_overflow_is_numeric_error
    def negated_tail_mean(self, p: float) -> float:
        """The upper-tail mean of ``-X``, ``E[-X | -X >= negated_quantile(p)]``,
        spelled through upper-tail primitives: with ``q = quantile(1 - p)``,
        the mean of ``X`` below ``q`` is ``(mean - E[(X - q)+] - q*p) / (1 - p)``."""
        p = _require_probability(p)
        q = self.quantile(1.0 - p)
        lower_mean = (self.mean() - expected_positive_part(self, q) - q * p) / (1.0 - p)
        return -lower_mean

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return self.scale(-np.log1p(-rng.random(size)))

    def scale(self, draws: np.ndarray) -> np.ndarray:
        return self.theta + self.lam * draws ** (1.0 / self.alpha)

    def shift(self, c: float) -> WeibullParams:
        return WeibullParams(self.lam, self.alpha, self.theta + _require_real(c, "shift"))


@dataclass(frozen=True)
class EmpiricalSample:
    """Equal-weight empirical return model over a finite sample.

    ``values`` is a sorted, read-only 1-D float64 array; quantiles follow the
    smallest-order-statistic convention ``inf {eta : P(X <= eta) >= p}``.
    Two samples are equal, and hash alike, when their sorted values are.
    """

    family: ClassVar[str] = "empirical"
    keys: ClassVar[Mapping[str, str]] = {"values": "values"}

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(_require_reals(self.values, "empirical sample", DataError))  # a copy
        if values.ndim != 1:
            raise DataError(f"empirical sample must be one-dimensional, got shape {values.shape}")
        if values.size == 0:
            raise DataError("empirical sample must contain at least one value")
        # A stable sort keeps ``sorted``'s order of 0.0 and -0.0, and puts NaN and ±inf at the ends.
        values.sort(kind="stable")
        if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
            raise DataError("empirical sample contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))

    def __reduce__(self) -> tuple[type, tuple[np.ndarray]]:
        # Copies and unpickled samples are rebuilt, so their values stay read-only.
        return EmpiricalSample, (self.values,)

    def cdf(self, x: float) -> float:
        return int(np.searchsorted(self.values, float(x), side="right")) / self.values.size

    def _rank(self, p: float) -> int:
        """The smallest ``k`` with ``k/n >= p``, compared as floats, as
        :meth:`cdf` rounds.  ``ceil(n*p)`` is within one of it."""
        n = self.values.size
        k = math.ceil(n * p)
        if (k - 1) / n >= p:
            k -= 1
        elif k / n < p:
            k += 1
        return k

    def quantile(self, p: float) -> float:
        """The smallest ``x_(k)`` with ``k/n >= p``."""
        return float(self.values[self._rank(_require_probability(p)) - 1])

    def _overflow(self, method: str, *args: float) -> NumericError:
        """The error raised in place of the ``OverflowError`` of an ``fsum``
        whose partial sums leave the floats, naming the sample by its size
        and range."""
        at = ", ".join(map(repr, args))
        low, high = float(self.values[0]), float(self.values[-1])
        return NumericError(
            f"empirical {method}({at}) overflows a float summing "
            f"{self.values.size} values in [{low!r}, {high!r}]"
        )

    def mean(self) -> float:
        try:
            return math.fsum(self.values.tolist()) / self.values.size
        except OverflowError:
            raise self._overflow("mean") from None

    def exceedance(self, a: float) -> float:
        try:
            return math.fsum(np.maximum(self.values - a, 0.0).tolist()) / self.values.size
        except OverflowError:
            raise self._overflow("exceedance", a) from None

    def tail_mean(self, p: float) -> float:
        """The average of the values ``>= quantile(p)``: ties at the quantile
        enter the tail."""
        tail = self.values[np.searchsorted(self.values, self.quantile(p)):]
        try:
            return math.fsum(tail.tolist()) / tail.size
        except OverflowError:
            raise self._overflow("tail_mean", p) from None

    # The lower tail is read from the low end of the sorted values, which
    # ``negated()`` reverses.  ``fsum`` is exact, so a sum negates with its
    # terms; only a zero result needs ``negated()``, for the sign it carries.

    def negated_quantile(self, p: float) -> float:
        """``negated().quantile(p)``, without the copy."""
        p = _require_probability(p)
        v = -float(self.values[self.values.size - self._rank(p)])
        return v if v != 0.0 else self.negated().quantile(p)

    def negated_tail_mean(self, p: float) -> float:
        """``negated().tail_mean(p)``: minus the average of the values
        ``<= -negated_quantile(p)``, without the copy."""
        p = _require_probability(p)
        values = self.values
        head = values[: values.searchsorted(values[values.size - self._rank(p)], "right")]
        try:
            mean = -math.fsum(head.tolist()) / head.size
        except OverflowError:
            raise self._overflow("negated_tail_mean", p) from None
        return mean if mean != 0.0 else self.negated().tail_mean(p)

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return self.values[rng.integers(0, self.values.size, size=size)]

    def shift(self, c: float) -> EmpiricalSample:
        return EmpiricalSample(self.values + _require_real(c, "shift"))

    def negated(self) -> EmpiricalSample:
        """The sample of ``-X``."""
        return EmpiricalSample(-self.values)


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
    return model.exceedance(_require_real(a, "threshold"))


def sample(model: ReturnModel, size: int | tuple[int, ...], seed: int) -> np.ndarray:
    """Draw i.i.d. returns from the model, deterministically per seed.

    ``size`` follows numpy's convention: a positive count ``n`` gives ``n``
    draws, a tuple (or list) of positive counts an array of that shape.  The
    draws are ``model.draw(np.random.default_rng(seed), size)``, filled in
    row-major order from the one stream, so ``sample(model, (k, n), seed)``
    is ``sample(model, k * n, seed)`` reshaped.  A parametric model takes
    one step of the PCG64 stream per draw, so row ``i`` of a ``(k, n)`` draw
    is ``n`` draws from the stream advanced by ``i * n`` steps
    (``np.random.PCG64(seed).advance(i * n)``) whatever ``k`` is.
    """
    shape = size if isinstance(size, (tuple, list)) else (size,)
    shape = tuple(_require_count(n, "sample size") for n in shape)
    if not shape or 0 in shape:
        raise DomainError(f"sample size must be positive, got {size!r}")
    return model.draw(np.random.default_rng(_require_count(seed, "seed")), shape)


# --------------------------------------------------------------------------
# JSON-facing constructors
# --------------------------------------------------------------------------


def model_from_params(family: str | ModelFamily, params: Mapping[str, object]) -> ReturnModel:
    """Build a model from its JSON parameter mapping.

    ``family`` names a class in :data:`FAMILIES` (a :class:`ModelFamily`
    member names its value) and ``params`` maps that class's JSON keys to
    numbers (``empirical`` takes a list under ``"values"``).  Keys of fields
    with a default may be left out: the Weibull ``"theta"`` defaults to 0.
    Unknown families, wrong keys and values that are not finite real
    numbers (booleans and numeric strings included) raise :class:`DataError`.
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

    given = {}
    for field in dataclasses.fields(cls):
        key = cls.keys[field.name]
        if key in params:
            # A parametric model's fields are floats, a sample's values an array.
            rule = _require_real if field.type == "float" else _require_reals
            given[field.name] = rule(params[key], f"{cls.family} param {key!r}", DataError)
    return cls(**given)


def model_params_dict(model: ReturnModel) -> dict[str, object]:
    """Inverse of :func:`model_from_params`, suitable for JSON output: an
    array field becomes a list, and every number a Python number."""
    return {key: np.asarray(getattr(model, name)).tolist() for name, key in model.keys.items()}
