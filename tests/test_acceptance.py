"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package at its full stated
tolerance and prints a single PASS/FAIL line (written past pytest's capture
so the gate is visible in plain test logs).
"""

import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from cohom.analytic import (
    coincidence_r13,
    coincidence_r24,
    ensemble_intensity,
    local_intensity,
)
from cohom.montecarlo import RunConfig, g2_estimate, scan_tau21, simulate_run
from cohom.optics import (
    ComboClass,
    PathTag,
    Polarization,
    bench_detector_fields,
    bs_transform,
    detune_phase,
    enumerate_combinations,
    from_jones,
    hwp_transform,
    intensity,
    nmzi_transfer,
    pair_chart,
    pbs_route,
    total_norm,
    vacuum,
    with_path,
)

ANTICORRELATED_PAIRS = ((1, 2), (1, 3), (2, 4), (3, 4))


@pytest.fixture
def report(capfd):
    """One visible PASS/FAIL line per gate, written past pytest's capture."""

    def emit(label: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def flat_fringe_config(**overrides) -> RunConfig:
    # sigma_f*(tau1+tau2) = 3, deep in the uniform-intensity regime
    params = dict(sigma_f=1.5e6, tau1=1e-6, tau2=1e-6,
                  mean_photon_number=0.1, n_pairs=1_000_000,
                  higher_order_ratio=0.0, seed=424242)
    params.update(overrides)
    return RunConfig(**params)


@pytest.fixture(scope="module")
def amplitude_run():
    started = time.perf_counter()
    counts = simulate_run(flat_fringe_config())
    return counts, time.perf_counter() - started


@pytest.fixture(scope="module")
def classical_run():
    config = flat_fringe_config(mode="classical", mean_photon_number=1.0)
    return simulate_run(config), config


def test_anticorrelated_channels_vanish(amplitude_run, report):
    d, t1, t2 = np.meshgrid(
        np.linspace(-5e6, 5e6, 50),
        np.linspace(0.0, 5e-6, 50),
        np.linspace(0.0, 5e-6, 50),
        indexing="ij",
    )
    worst_analytic = max(
        float(np.max(np.abs(coincidence_r13(d, t1, t2)))),
        float(np.max(np.abs(coincidence_r24(d, t1, t2)))),
    )

    counts, first_elapsed = amplitude_run
    leaked = sum(counts.coincidences[p] for p in ANTICORRELATED_PAIRS)

    started = time.perf_counter()
    noisy = simulate_run(flat_fringe_config(higher_order_ratio=0.01))
    elapsed = first_elapsed + (time.perf_counter() - started)
    floor = max(noisy.coincidences[(1, 3)],
                noisy.coincidences[(2, 4)]) / noisy.n_generated

    ok = (worst_analytic <= 1e-12 and leaked == 0 and floor < 0.02
          and elapsed < 30.0)
    report(
        "anticorrelated-channels", ok,
        f"analytic max {worst_analytic:.2e} (tol 1e-12), exact-zero leak "
        f"{leaked} of 1e6 pairs, accidental floor {floor:.4f} (tol 0.02), "
        f"runtime {elapsed:.1f}s (tol 30s)",
    )


def test_classical_contrast_baseline(classical_run, report):
    counts, _ = classical_run
    estimate = g2_estimate(counts, (1, 3))
    z = abs(estimate.value - 0.5) / estimate.stderr
    report(
        "classical-contrast", z <= 3.0,
        f"g2_13 = {estimate.value:.4f} +- {estimate.stderr:.4f}, "
        f"{z:.2f} standard errors from 0.5 (tol 3)",
    )


def test_local_intensities_consistent(amplitude_run, classical_run, report):
    d, t1, t2 = np.meshgrid(np.linspace(-3e6, 3e6, 10),
                            np.linspace(0.0, 3e-6, 10),
                            np.linspace(0.0, 3e-6, 10), indexing="ij")
    ports = bench_detector_fields(d, t1, t2)
    worst_rel = 0.0
    for k in (1, 2, 3, 4):
        closed = local_intensity(k, d, t1, t2)
        # the single-photon pipeline carries half of I0 = 1
        field = 2.0 * intensity(ports[k])
        worst_rel = max(worst_rel, float(np.max(
            np.abs(closed - field) / np.maximum(np.abs(closed), 1e-3))))

    d, t1, t2 = np.meshgrid(np.linspace(-5e6, 5e6, 25),
                            np.linspace(0.0, 5e-6, 25),
                            np.linspace(0.0, 5e-6, 25), indexing="ij")
    sums_exact = bool(
        np.all(local_intensity(1, d, t1, t2)
               + local_intensity(3, d, t1, t2) == 1.0)
        and np.all(local_intensity(2, d, t1, t2)
                   + local_intensity(4, d, t1, t2) == 1.0))

    counts, _ = amplitude_run
    n = counts.n_generated
    se = math.sqrt(n * 7.0 / 16.0)
    z_amp = max(abs(counts.singles[k] - n / 2.0) / se for k in (1, 2, 3, 4))

    classical_counts, config = classical_run
    n_cls = classical_counts.n_generated
    z_cls = 0.0
    for k in (1, 2, 3, 4):
        p = config.mean_photon_number * ensemble_intensity(
            k, config.sigma_f, config.tau1, config.tau2)
        se_k = math.sqrt(n_cls * p * (1.0 - p))
        z_cls = max(z_cls,
                    abs(classical_counts.singles[k] - n_cls * p) / se_k)

    ok = worst_rel <= 1e-12 and sums_exact and z_amp <= 5.0 and z_cls <= 5.0
    report(
        "local-intensities", ok,
        f"closed-form vs pipeline rel {worst_rel:.2e} (tol 1e-12), "
        f"port-pair sums exact {sums_exact}, singles within "
        f"{z_amp:.2f}/{z_cls:.2f} SE (tol 5)",
    )


def test_uniform_intensity_limit(report):
    tau1 = tau2 = 1e-6
    xs = np.linspace(1.52, 6.0, 64)
    worst_dev = max(
        float(np.max(np.abs(
            2.0 * ensemble_intensity(k, xs / (tau1 + tau2), tau1, tau2)
            - 1.0)))
        for k in (1, 2, 3, 4))

    nodes, weights = np.polynomial.hermite.hermgauss(96)
    worst_quad = 0.0
    for x in np.linspace(0.0, 3.0, 31):
        sigma = x / (tau1 + tau2)
        mean_cos = float(np.sum(
            weights * np.cos(2.0 * math.sqrt(2.0) * sigma * (tau1 + tau2)
                             * nodes)) / math.sqrt(math.pi))
        for k, sign in ((1, 1.0), (2, -1.0), (3, -1.0), (4, 1.0)):
            worst_quad = max(worst_quad, abs(
                ensemble_intensity(k, sigma, tau1, tau2)
                - 0.5 * (1.0 + sign * mean_cos)))

    ok = worst_dev < 0.01 and worst_quad <= 1e-6
    report(
        "uniform-intensity-limit", ok,
        f"deviation from I0/2 {worst_dev:.4f} (tol 0.01) past the 1.52 "
        f"threshold, quadrature mismatch {worst_quad:.2e} (tol 1e-6)",
    )


EXPECTED_CHART = (
    ("1", "1", "", "1d"),
    ("1", "", "1d", ""),
    ("", "1d", "1", "1"),
    ("1d", "", "1", ""),
)


def test_combination_tables(report):
    rows = enumerate_combinations()

    def port(pol, path):
        return "A" if (pol, path) in ((Polarization.H, PathTag.D),
                                      (Polarization.V, PathTag.U)) else "B"

    mismatches = 0 if len(rows) == 16 else 1
    for row in rows:
        if row.path_1 is row.path_2:
            expected = ComboClass.SAME_PATH_EXCLUDED
        elif port(row.pol_1, row.path_1) == port(row.pol_2, row.path_2):
            expected = ComboClass.SINGLE_PORT_EXCLUDED
        else:
            expected = ComboClass.CROSS_PATH_KEPT
        mismatches += row.classification is not expected
    kept = {(r.path_1.value, r.path_2.value, r.pol_1.value, r.pol_2.value)
            for r in rows
            if r.classification is ComboClass.CROSS_PATH_KEPT}
    if kept != {("U", "D", "H", "H"), ("U", "D", "V", "V"),
                ("D", "U", "H", "H"), ("D", "U", "V", "V")}:
        mismatches += 1

    chart = pair_chart()
    chart_mismatches = sum(
        chart.cells[i][j].value != EXPECTED_CHART[i][j]
        for i in range(4) for j in range(4))

    ok = mismatches == 0 and chart_mismatches == 0
    report(
        "combination-tables", ok,
        f"{16 - mismatches}/16 allocation rows and "
        f"{16 - chart_mismatches}/16 chart cells match the references",
    )


def test_element_algebra(report):
    rng = np.random.default_rng(777)

    # the samples are drawn one at a time, in the order of a per-sample
    # loop, and then pass through each element in one array call
    def random_field():
        re, im = rng.standard_normal(4), rng.standard_normal(4)
        return re + 1j * im

    draws = [(random_field(), random_field(), rng.uniform(0, math.pi),
              rng.uniform(-1e7, 1e7), rng.uniform(0, 1e-5))
             for _ in range(1000)]
    a_modes, b_modes, theta, delta_f, tau = (np.array(x) for x in zip(*draws))
    a, b = a_modes.T, b_modes.T
    norm_a = total_norm(a)
    total = norm_a + total_norm(b)
    o1, o2 = bs_transform(a, b)
    p1, p2 = pbs_route(a, b)
    worst_norm = float(np.max(np.abs([
        (total_norm(o1) + total_norm(o2)) / total - 1.0,
        (total_norm(p1) + total_norm(p2)) / total - 1.0,
        total_norm(hwp_transform(a, theta)) / norm_a - 1.0,
        total_norm(detune_phase(a, delta_f, tau)) / norm_a - 1.0])))

    balanced = hwp_transform(from_jones(1.0, 0.0), math.pi / 8)
    target = 1.0 / math.sqrt(2.0)
    worst_hwp = max(abs(balanced[0] - target), abs(balanced[2] - target))

    def random_source():
        h, v = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        scale = math.sqrt(abs(h) ** 2 + abs(v) ** 2)
        return (h / scale, v / scale, rng.uniform(-5e6, 5e6),
                rng.uniform(0.0, 5e-6))

    h, v, delta_f, tau1 = (np.array(x) for x in zip(
        *(random_source() for _ in range(100))))
    source = from_jones(h, v)
    port_a, port_b = nmzi_transfer(source, delta_f, tau1)
    up, down = bs_transform(source, vacuum())
    up = detune_phase(with_path(up, PathTag.U), delta_f, tau1)
    down = detune_phase(with_path(down, PathTag.D), delta_f, tau1)
    composed_a, composed_b = pbs_route(down, up)
    # amplitude by amplitude: a phase between the ports is an error too
    worst_stage = float(np.max(np.abs([port_a - composed_a,
                                       port_b - composed_b])))

    ok = worst_norm <= 1e-12 and worst_hwp <= 1e-12 and worst_stage <= 1e-12
    report(
        "element-algebra", ok,
        f"unitarity {worst_norm:.2e}, balanced-plate {worst_hwp:.2e}, "
        f"stage composition {worst_stage:.2e} (tol 1e-12 each)",
    )


def test_statistical_machinery(report):
    config = flat_fringe_config(n_pairs=100_000, higher_order_ratio=0.01,
                                seed=2024)
    first = simulate_run(config)
    rerun_identical = simulate_run(config) == first
    values = [-5e-7, 0.0, 5e-7]
    parallel_identical = all(
        [p.counts for p in scan_tau21(scanned, values)]
        == [p.counts for p in scan_tau21(scanned, values, workers=3)]
        for scanned in (config, replace(config, mode="classical",
                                        mean_photon_number=0.5,
                                        n_pairs=5_000)))

    violations = 0
    for seed in range(100):
        seeded = replace(config, n_pairs=20_000, seed=seed)
        kept = simulate_run(seeded)
        loose = simulate_run(replace(seeded, heterodyne_filter=False))
        if kept.n_postselected > loose.n_postselected or any(
                kept.coincidences[p] > loose.coincidences[p]
                for p in kept.coincidences):
            violations += 1

    ok = rerun_identical and parallel_identical and violations == 0
    report(
        "statistical-machinery", ok,
        f"rerun identical {rerun_identical}, parallel identical "
        f"{parallel_identical}, filter monotonicity violations "
        f"{violations}/100 seeds",
    )


def test_validate_command_end_to_end(report):
    executable = shutil.which("cohom")
    command = ([executable] if executable
               else [sys.executable, "-m", "cohom.cli"])
    started = time.perf_counter()
    proc = subprocess.run(command + ["validate", "--quiet"],
                          capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    all_pass = (len(lines) == 20  # header + 19 checks
                and all(",pass," in line for line in lines[1:]))
    ok = proc.returncode == 0 and all_pass and elapsed < 120.0
    report(
        "validate-command", ok,
        f"exit {proc.returncode}, {max(len(lines) - 1, 0)} of 19 checks "
        f"reported, {elapsed:.1f}s (tol 120s)",
    )
