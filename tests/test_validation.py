"""Validation checks fail on a faulty bench or a NaN measurement."""

import math

import cohom.validation
from cohom.optics import bench_detector_fields
from cohom.validation import (
    _worst,
    check_element_unitarity,
    check_intensity_consistency,
)


def test_worst_keeps_nan_in_any_position():
    assert _worst(1.0, 3.0, 2.0) == 3.0
    assert math.isnan(_worst(math.nan, 1.0))
    assert math.isnan(_worst(1.0, math.nan))
    assert math.isnan(_worst(1.0, math.nan, 2.0))


def test_nan_splitter_error_fails_unitarity(break_splitter):
    assert check_element_unitarity().passed
    break_splitter(math.nan)
    result = check_element_unitarity()
    assert not result.passed
    assert math.isnan(result.measured)


def test_swapped_ports_fail_intensity_consistency(monkeypatch):
    assert check_intensity_consistency().passed

    def swapped(delta_f, tau1, tau2):
        fields = bench_detector_fields(delta_f, tau1, tau2)
        fields[1], fields[2] = fields[2], fields[1]
        return fields

    monkeypatch.setattr(cohom.validation, "bench_detector_fields", swapped)
    assert not check_intensity_consistency().passed
