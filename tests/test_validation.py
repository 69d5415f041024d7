"""Validation checks fail on a faulty bench or a NaN measurement, and the
suite runs them under fixed names."""

import json
import math
from dataclasses import replace

import numpy as np

import cohom.validation
from cohom.analytic import local_intensity
from cohom.cli import render_report
from cohom.montecarlo import PairSector, click_pattern_table, pair_amplitudes
from cohom.optics import bench_detector_fields
from cohom.validation import (
    _worst,
    check_classical_marginals,
    check_element_unitarity,
    check_intensity_consistency,
    check_outcome_table,
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


def assert_fails_with_null(result):
    """A failed check whose NaN measurement the JSON report writes as null."""
    assert not result.passed
    assert math.isnan(result.measured)
    check, = json.loads(render_report([result], "json"))["checks"]
    assert check["status"] == "fail" and check["measured"] is None


def test_one_nan_grid_point_fails_intensity_consistency(monkeypatch):
    def nan_at_one_point(port, delta_f, tau1, tau2):
        closed = local_intensity(port, delta_f, tau1, tau2)
        if port == 3:
            closed.flat[437] = math.nan
        return closed

    assert check_intensity_consistency().passed
    monkeypatch.setattr(cohom.validation, "local_intensity",
                        nan_at_one_point)
    assert_fails_with_null(check_intensity_consistency())


def test_one_nan_draw_fails_outcome_table(monkeypatch):
    def nan_in_one_draw(delta_f, tau1, tau2, global_phase, sector):
        amps = pair_amplitudes(delta_f, tau1, tau2, global_phase, sector)
        if sector is PairSector.DU:
            amps[(2, 3)] = np.where(np.arange(amps[(2, 3)].size) == 11,
                                    complex(math.nan, 0.0), amps[(2, 3)])
        return amps

    assert check_outcome_table().passed
    monkeypatch.setattr(cohom.validation, "pair_amplitudes", nan_in_one_draw)
    assert_fails_with_null(check_outcome_table())


def test_wrong_detuning_width_fails_classical_marginals(monkeypatch):
    assert check_classical_marginals().passed
    # a pattern table built for a detuning spread 1 % too wide
    monkeypatch.setattr(
        cohom.validation, "click_pattern_table",
        lambda config: click_pattern_table(
            replace(config, sigma_f=1.01 * config.sigma_f)))
    assert not check_classical_marginals().passed


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
        "outcome-table",
        "classical-singles",
        "ensemble-quadrature",
        "classical-marginals",
        "uniform-limit",
        "combination-table",
        "pair-chart",
        "element-unitarity",
        "waveplate-balance",
        "stage-composition",
        "rerun-determinism",
        "filter-monotonicity",
    ]
