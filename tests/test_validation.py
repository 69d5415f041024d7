"""Validation checks fail on a faulty bench or a NaN measurement, and the
suite runs them under fixed names."""

import math

import cohom.validation
from cohom.optics import bench_detector_fields
from cohom.validation import (
    _worst,
    check_detuning_moments,
    check_element_unitarity,
    check_intensity_consistency,
    check_stage_composition,
    run_validation,
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


def test_nan_splitter_error_fails_stage_composition(break_splitter):
    assert check_stage_composition().passed
    # NaN in the empty arm makes with_path refuse the splitter output
    break_splitter(math.nan)
    result = check_stage_composition()
    assert not result.passed
    assert math.isnan(result.measured)
    assert result.tolerance == 1e-12


def test_swapped_ports_fail_intensity_consistency(monkeypatch):
    assert check_intensity_consistency().passed

    def swapped(delta_f, tau1, tau2):
        fields = bench_detector_fields(delta_f, tau1, tau2)
        fields[1], fields[2] = fields[2], fields[1]
        return fields

    monkeypatch.setattr(cohom.validation, "bench_detector_fields", swapped)
    assert not check_intensity_consistency().passed


def test_wrong_detuning_width_fails_detuning_moments(monkeypatch):
    assert check_detuning_moments().passed
    # the characteristic function of a Gaussian sqrt(2) too wide
    monkeypatch.setattr(cohom.validation, "detuning_cos_mean",
                        lambda a, sigma_f: math.exp(-(a * sigma_f) ** 2))
    assert not check_detuning_moments().passed


def test_progress_labels_are_the_check_names():
    labels = []
    results = run_validation(progress=labels.append)
    # perfbench keys its validation.check.<name>_s metrics on these names
    assert labels == [r.name for r in results] == [
        "analytic-coincidence-zero",
        "amplitude-exact-zero",
        "higher-order-floor",
        "classical-baseline",
        "intensity-consistency",
        "intensity-conservation",
        "amplitude-singles",
        "classical-singles",
        "ensemble-quadrature",
        "detuning-moments",
        "uniform-limit",
        "combination-table",
        "pair-chart",
        "element-unitarity",
        "waveplate-balance",
        "stage-composition",
        "rerun-determinism",
        "filter-monotonicity",
    ]
