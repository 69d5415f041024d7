"""Validation checks fail on a NaN measurement instead of dropping it."""

import math

from cohom.validation import _worst, check_element_unitarity


def test_worst_keeps_nan_in_any_position():
    assert _worst(1.0, 3.0, 2.0) == 3.0
    assert math.isnan(_worst(math.nan, 1.0))
    assert math.isnan(_worst(1.0, math.nan))
    assert math.isnan(_worst(1.0, math.nan, 2.0))


def test_nan_splitter_error_fails_unitarity():
    result = check_element_unitarity(math.nan)
    assert not result.passed
    assert math.isnan(result.measured)
    assert check_element_unitarity(0.0).passed
