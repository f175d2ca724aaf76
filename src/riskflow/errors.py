"""Exception hierarchy shared across the engine, and the input rules.

Every error raised by this package derives from :class:`RiskEngineError`, so
callers (including the CLI) can distinguish engine failures from programming
errors.  The split below mirrors the CLI exit codes: input problems
(:class:`DomainError`, :class:`DataError`, :class:`ConfigError`) map to exit
code 2, numerical failures (:class:`NumericError`) to exit code 3.

The input rules live here too, one per kind, at the bottom of the import
graph: :func:`_require_real`, :func:`_require_count`, :func:`_require_reals`
and :func:`_require_member`.  None takes a bool, a string or ``None``; each
raises the error class its caller names, :class:`DomainError` by default.

numpy is bound on first use: the module's ``np`` global starts as a
:class:`_LazyNumpy`, which imports numpy on the first attribute read and puts
it in its place.  ``riskflow risk`` evaluates closed forms in ``math`` alone,
and importing numpy would be most of what it costs; once numpy is bound, a
call costs what it would with numpy imported at the top.  No value is an
array unless numpy is loaded, so :func:`_scalar` asks ``sys.modules`` rather
than ``np``.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from typing import TypeVar

__all__ = [
    "RiskEngineError",
    "DomainError",
    "DataError",
    "ConfigError",
    "NumericError",
]


class RiskEngineError(Exception):
    """Base class for all errors raised by riskflow."""


class DomainError(RiskEngineError):
    """A numeric argument is outside its mathematical domain.

    Examples: a confidence level not in (0, 1), a non-positive scale
    parameter, a probability vector that does not sum to one.
    """


class DataError(RiskEngineError):
    """Input data is malformed or insufficient.

    Examples: an empty sample, a returns file with a bad header or
    non-monotone dates, a finite process with more atoms than supported.
    """


class ConfigError(RiskEngineError):
    """An experiment configuration or environment setting is invalid."""


class NumericError(RiskEngineError):
    """An iterative numeric routine failed to converge or produced non-finite
    values.  The message records which routine failed and with what inputs."""


class _LazyNumpy:
    """Stands in for numpy in a module's ``np`` global until the first
    attribute read, which imports numpy and binds it in that global."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict[str, object]) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str) -> object:
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())


def _scalar(value: object) -> object:
    """The item of a 0-d array, else ``value`` itself."""
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.ndarray) and value.ndim == 0:
        return value.item()
    return value


def _require_real(value: object, what: str, error: type[RiskEngineError] = DomainError) -> float:
    """``value`` as a finite ``float``: a Python or numpy real number, or a 0-d
    array of one.  A bool, a string, ``None``, any other value and a value that
    is not finite as a float raise ``error`` naming ``what``."""
    number = value
    if number.__class__ is not float:
        number = _scalar(value)
        real = isinstance(number, numbers.Real) and not isinstance(number, bool)
        try:
            number = float(number) if real else math.nan
        except OverflowError:
            number = math.inf
    if not math.isfinite(number):
        raise error(f"{what} must be a finite real number, got {value!r}")
    return number


def _require_count(value: object, what: str, error: type[RiskEngineError] = DomainError) -> int:
    """``value`` as an ``int``: a non-negative Python or numpy integer that is
    not a bool, or a 0-d integer array of one; else ``error`` naming ``what``."""
    number = _scalar(value)
    if isinstance(number, bool) or not isinstance(number, numbers.Integral) or number < 0:
        raise error(f"{what} must be a non-negative integer, got {number!r}")
    return int(number)


_PLAIN_NUMBERS = frozenset((float, int))


def _holds_bool(values: object) -> bool:
    """Whether ``values`` is a bool, a bool array, or a (nested) list or tuple
    holding one.  ``np.asarray([1.0, True])`` is a float array, so a bool
    mixed into numbers shows only before conversion; an ndarray is judged by
    its dtype, never scanned, and a list or tuple of plain floats and ints by
    one pass over its element types."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if isinstance(values, (list, tuple)):
        if set(map(type, values)) <= _PLAIN_NUMBERS:
            return False
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def _numeric_array(
    values: object, complaint: str, kinds: str, error: type[RiskEngineError]
) -> np.ndarray:
    """``np.asarray(values)`` if it holds no bool, is not a ragged nesting and
    has a dtype of one of ``kinds``; else ``error``, its message opening with
    ``complaint``."""
    if _holds_bool(values):
        raise error(f"{complaint}, got a bool")
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise error(f"{complaint}, got a ragged nesting") from exc
    if arr.dtype.kind not in kinds:
        raise error(f"{complaint}, got {arr.dtype} values")
    return arr


def _require_reals(values: object, what: str, error: type[RiskEngineError] = DomainError) -> np.ndarray:
    """``values`` as a float64 array of any shape, ``values`` itself if it is
    one.  A bool anywhere in it, a ragged nesting, strings, ``None`` or other
    non-numbers raise ``error`` naming ``what``; finiteness and shape are the
    caller's to check."""
    if values.__class__ is not np.ndarray or values.dtype.kind not in "fiu":
        values = _numeric_array(values, f"{what} must be real numbers", "fiu", error)
    return values.astype(np.float64, copy=False)


E = TypeVar("E", bound=Enum)


def _require_member(kind: type[E], value: object, error: type[RiskEngineError] = DomainError) -> E:
    """``value`` as a member of the enum ``kind``: a member or its value.
    Anything else raises ``error`` naming the choices."""
    if value.__class__ is kind:
        return value
    try:
        return kind(value)
    except ValueError as exc:
        choices = [member.value for member in kind]
        raise error(f"unknown {kind.__name__} {value!r}; choose from {choices}") from exc
