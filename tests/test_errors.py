"""The shared input rules of ``riskflow.errors`` on the inputs no entry-point
table reaches: integers too large for a float, and bools hidden in nested
rows or tuple subclasses."""

from collections import namedtuple

import numpy as np
import pytest

from riskflow.errors import DataError, DomainError, _holds_bool, _require_real, _require_reals

Point = namedtuple("Point", "x y")


@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_an_integer_beyond_float_range_is_not_finite(value):
    with pytest.raises(DomainError, match="finite real number"):
        _require_real(value, "level")


@pytest.mark.parametrize(
    "values",
    [
        [[1.0, 2.0], [3.0, np.bool_(True)]],
        [[1.0, 2.0], (3.0, np.bool_(False))],
        Point(1.0, True),
        [Point(1.0, 2.0), Point(3.0, np.bool_(True))],
        [1.0, 2, True],
        [np.float64(1.0), np.bool_(False)],
    ],
    ids=["numpy-bool-in-row", "numpy-bool-in-tuple-row", "tuple-subclass",
         "tuple-subclass-rows", "flat", "numpy-scalars"],
)
def test_a_bool_anywhere_is_found_and_refused(values):
    assert _holds_bool(values)
    with pytest.raises(DataError, match="got a bool"):
        _require_reals(values, "sample", DataError)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.0, 2, -3.5],
        [[1.0, 2.0]] * 1000,
        Point(1.0, 2),
        [Point(1.0, 2.0), (3.0, 4)],
        [np.float64(1.0), np.int64(2)],
        np.array([1.0, 2.0]),
    ],
    ids=["empty", "flat", "nested", "tuple-subclass", "tuple-subclass-rows",
         "numpy-scalars", "array"],
)
def test_numbers_without_a_bool_pass(values):
    assert not _holds_bool(values)
    assert _require_reals(values, "sample").tolist() == np.asarray(values, dtype=float).tolist()
