"""Validation checks fail on a faulty bench or a NaN measurement, and the
suite runs them under fixed names."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cohom.validation
from cohom.analytic import ensemble_intensity, local_intensity
from cohom.cli import render_report
from cohom.montecarlo import OUTCOMES, click_pattern_table
from cohom.optics import PathTag, bench_detector_fields, nmzi_transfer
from cohom.validation import (
    CHECKS,
    _gaussian_mean_cos,
    _worst,
    check_analytic_coincidence_zero,
    check_classical_marginals,
    check_element_unitarity,
    check_ensemble_quadrature,
    check_intensity_consistency,
    check_outcome_table,
    check_stage_composition,
    pair_amplitudes,
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


def test_port_phase_error_fails_stage_composition(monkeypatch):
    # a phase between the two output ports is a fault of the transfer;
    # aligning each port's phase on its own would hide it
    assert check_stage_composition().passed

    def rotated(source, delta_f, tau1):
        port_a, port_b = nmzi_transfer(source, delta_f, tau1)
        return port_a, 1j * port_b

    monkeypatch.setattr(cohom.validation, "nmzi_transfer", rotated)
    result = check_stage_composition()
    assert not result.passed
    assert result.measured > 0.1


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
    def nan_in_one_draw(delta_f, tau1, tau2, global_phase, paths):
        amps = pair_amplitudes(delta_f, tau1, tau2, global_phase, paths)
        if paths == (PathTag.D, PathTag.U):
            amps[OUTCOMES.index((2, 3)), 11] = complex(math.nan, 0.0)
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


def test_trapezoid_reference_matches_gauss_hermite():
    # oracle: a 96-node Gauss-Hermite rule for E[cos(a z)], z ~ N(0, 1),
    # on the check's 31 spreads
    a = 2.0 * np.linspace(0.0, 3.0, 31)
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    oracle = np.cos(np.outer(math.sqrt(2.0) * a, nodes)) @ weights / math.sqrt(
        math.pi)
    assert np.max(np.abs(_gaussian_mean_cos(a) - oracle)) <= 1e-15


def test_wider_spread_fails_ensemble_quadrature(monkeypatch):
    assert check_ensemble_quadrature().passed
    monkeypatch.setattr(
        cohom.validation, "ensemble_intensity",
        lambda port, sigma_f, tau1, tau2: ensemble_intensity(
            port, 1.001 * sigma_f, tau1, tau2))
    assert not check_ensemble_quadrature().passed


def spike_at(corner):
    """A coincidence rate that reads 1.0 at one (detuning, tau1, tau2)
    point and 0.0 everywhere else, for any argument shapes."""
    def rate(delta_f, tau1, tau2):
        d, t1, t2 = np.broadcast_arrays(delta_f, tau1, tau2)
        return ((d == corner[0]) & (t1 == corner[1])
                & (t2 == corner[2])).astype(float)
    return rate


@pytest.mark.parametrize("corner", [(-5e6, 0.0, 0.0), (5e6, 5e-6, 5e-6)],
                         ids=["first", "last"])
@pytest.mark.parametrize("rate", ["coincidence_r13", "coincidence_r24"])
def test_grid_corner_spike_fails_coincidence_zero(monkeypatch, corner, rate):
    # the check walks the grid one detuning slab at a time; a rate that
    # is nonzero only in the first or the last slab must still show
    assert check_analytic_coincidence_zero().passed
    monkeypatch.setattr(cohom.validation, rate, spike_at(corner))
    result = check_analytic_coincidence_zero()
    assert not result.passed
    assert result.measured == 1.0


def test_validation_working_set_stays_small():
    # numpy reports its buffers to tracemalloc, so the traced peak is the
    # suite's largest live working set; no check may hold the 50^3
    # coincidence grid at once
    run_validation()
    tracemalloc.start()
    try:
        run_validation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_progress_labels_are_the_check_names(monkeypatch):
    # every module-level check_* is in the suite and runs exactly once,
    # called through the module global, so perfbench's timing wrappers
    # measure it
    module = vars(cohom.validation)
    functions = sorted(name for name, value in module.items()
                       if name.startswith("check_") and callable(value))
    assert functions == sorted(f"check_{name.replace('-', '_')}"
                               for name in CHECKS)
    calls = []

    def counted(name, check):
        def wrapper():
            calls.append(name)
            return check()
        return wrapper

    for name in functions:
        monkeypatch.setattr(cohom.validation, name,
                            counted(name, module[name]))
    labels = []
    results = run_validation(progress=labels.append)
    assert sorted(calls) == functions
    # perfbench keys its validation.check.<name>_s metrics on these names
    assert labels == [r.name for r in results] == list(CHECKS) == [
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
