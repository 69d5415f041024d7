"""Self-contained consistency checks behind the ``validate`` CLI command.

Every check re-derives its expected value independently of the engine code
it exercises (closed forms, quadrature, frozen tables, or statistical
bounds with a fixed seed), so a silent regression in any engine module
turns at least one check red.

The sampled checks run each as one array pass over their whole sample
set, through the array forms of the optics elements and the analytic
closed forms: ``intensity-consistency`` on a 10x10x10 grid of detuning
and delays, ``element-unitarity`` on 1000 random inputs per element,
``stage-composition`` on 100 random source photons, ``outcome-table`` on
25 random draws per arm pair, ``ensemble-quadrature`` on 31 detuning
spreads against a 161-node trapezoid rule, and ``classical-marginals``
on a 45-point grid of click-pattern tables.  ``analytic-coincidence-zero``
walks its 50x50x50 grid in slabs of 5 detunings by 50x50 delays, so the
suite never holds the whole grid.  A NaN in any sample makes its
check's ``measured`` NaN, so the check fails.

``outcome-table`` is the engine's independent reference for amplitude
mode.  The engine builds its two outcome tables from the port
coefficients of :mod:`cohom.analytic`; the check's oracle,
:func:`pair_amplitudes` and :func:`outcome_probabilities`, propagates
each photon through the optics element pipeline
(:func:`cohom.optics.detector_path_coefficients`) at random detunings,
delays and phases and forms the pairing sums from what arrives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analytic import (
    classical_baseline_g2,
    coincidence_r13,
    coincidence_r24,
    ensemble_intensity,
    fringe_visibility,
    local_intensity,
)
from .montecarlo import (
    CLICK_PATTERNS,
    OUTCOMES,
    RunConfig,
    click_pattern_table,
    g2_estimate,
    outcome_probability_table,
    sample_detuning,
    scan_tau21,
    simulate_run,
)
from .optics import (
    ComboClass,
    PathAssignmentError,
    PathTag,
    Polarization,
    bench_detector_fields,
    bs_transform,
    detector_path_coefficients,
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

#: fixed seed for every stochastic check; the suite is fully deterministic.
VALIDATION_SEED = 20260825

_ANTICORRELATED = ((1, 2), (1, 3), (2, 4), (3, 4))


class CheckResult(NamedTuple):
    """Outcome of one validation check.

    ``passed`` is ``measured <= tolerance``; ``detail`` says what was
    measured and against what reference.
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _result(name, measured, tolerance, detail=""):
    return CheckResult(name, bool(measured <= tolerance), float(measured),
                       float(tolerance), detail)


def _worst(*values: float) -> float:
    """The largest of ``values``; NaN if any is NaN, which ``max`` drops."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _random_fields(rng, n) -> np.ndarray:
    """``n`` random four-mode fields as one field of shape (4, ``n``)."""
    return rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))


def _max_abs(values) -> float:
    """The largest absolute entry of ``values`` (0.0 if it has none); NaN
    if any entry is NaN."""
    return float(np.max(np.abs(values), initial=0.0))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_analytic_coincidence_zero() -> CheckResult:
    # the 50x50x50 grid in slabs of 5 detunings: each call holds 5x50x50
    # points, never the whole grid
    t1, t2 = np.meshgrid(np.linspace(0.0, 5e-6, 50),
                         np.linspace(0.0, 5e-6, 50), indexing="ij")
    worst = 0.0
    for delta_f in np.linspace(-5e6, 5e6, 50).reshape(10, 5, 1, 1):
        worst = _worst(worst, _max_abs(coincidence_r13(delta_f, t1, t2)),
                       _max_abs(coincidence_r24(delta_f, t1, t2)))
    return _result("analytic-coincidence-zero", worst, 1e-12,
                   "max abs of R13 and R24 over a 50x50x50 parameter grid")


def _exact_zero_config(n_pairs=1_000_000, **overrides) -> RunConfig:
    params = dict(sigma_f=1.5e6, tau1=1e-6, tau2=1e-6,
                  mean_photon_number=0.1, n_pairs=n_pairs,
                  higher_order_ratio=0.0, seed=VALIDATION_SEED)
    params.update(overrides)
    return RunConfig(**params)


def check_amplitude_exact_zero() -> CheckResult:
    counts = simulate_run(_exact_zero_config())
    leaked = sum(counts.coincidences[pair] for pair in _ANTICORRELATED)
    return _result("amplitude-exact-zero", leaked, 0,
                   "anticorrelated coincidences across 1e6 pairs with no higher orders")


def check_higher_order_floor() -> CheckResult:
    counts = simulate_run(_exact_zero_config(higher_order_ratio=0.01))
    worst = max(counts.coincidences[(1, 3)], counts.coincidences[(2, 4)])
    return _result("higher-order-floor", worst / counts.n_generated, 0.02,
                   "normalized accidental coincidence at ratio 0.01")


def check_classical_baseline() -> CheckResult:
    config = _exact_zero_config(mode="classical", mean_photon_number=1.0)
    counts = simulate_run(config)
    estimate = g2_estimate(counts, (1, 3))
    z = abs(estimate.value - classical_baseline_g2()) / estimate.stderr
    return _result("classical-baseline", z, 3.0,
                   f"g2_13 = {estimate.value:.4f}; distance to 0.5 in "
                   "standard errors")


def check_intensity_consistency() -> CheckResult:
    taus = np.linspace(0.0, 3e-6, 10)
    d, t1, t2 = np.meshgrid(np.linspace(-3e6, 3e6, 10), taus, taus,
                            indexing="ij")
    ports = bench_detector_fields(d, t1, t2)
    worst = 0.0
    for k in (1, 2, 3, 4):
        closed = local_intensity(k, d, t1, t2)
        # the single-photon pipeline carries half of I0 = 1
        field = 2.0 * intensity(ports[k])
        worst = _worst(worst, _max_abs(
            (closed - field) / np.maximum(np.abs(closed), 1e-3)))
    return _result("intensity-consistency", worst, 1e-12,
                   "closed-form vs field-pipeline intensity on a 10^3 grid")


def check_intensity_conservation() -> CheckResult:
    d, t1, t2 = np.meshgrid(
        np.linspace(-5e6, 5e6, 25),
        np.linspace(0.0, 5e-6, 25),
        np.linspace(0.0, 5e-6, 25),
        indexing="ij",
    )
    s13 = local_intensity(1, d, t1, t2) + local_intensity(3, d, t1, t2)
    s24 = local_intensity(2, d, t1, t2) + local_intensity(4, d, t1, t2)
    worst = _worst(float(np.max(np.abs(s13 - 1.0))),
                   float(np.max(np.abs(s24 - 1.0))))
    return _result("intensity-conservation", worst, 0.0,
                   "float-exact port-pair sums I1+I3 and I2+I4")


def check_amplitude_singles() -> CheckResult:
    counts = simulate_run(_exact_zero_config())
    n = counts.n_generated
    se = math.sqrt(n * 7.0 / 16.0)  # per-event detector-count variance
    z = _worst(*(abs(counts.singles[k] - n / 2.0) / se for k in (1, 2, 3, 4)))
    return _result("amplitude-singles", z, 5.0,
                   "singles distance to n/2 in standard errors")


#: each outcome's two detectors as indices into the detector axis
_I, _J = np.array(OUTCOMES).T - 1

_SQRT2 = math.sqrt(2.0)


def _complex_product(a, b) -> np.ndarray:
    """a * b for complex arrays, formed from real products as Python forms it.

    numpy's complex multiply loops may fuse one of the two real products
    into the other (a fused multiply-add), so their result can differ in
    the last bit from the plain product, and the two pairing terms of a
    suppressed outcome would no longer cancel exactly.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def pair_amplitudes(delta_f, tau1, tau2, global_phase, paths) -> np.ndarray:
    """Joint two-photon amplitude of each outcome for one pair on given arms.

    The element-pipeline oracle of ``outcome-table``.  ``paths`` is the
    (photon 1, photon 2) pair of :class:`PathTag`s.  Each photon,
    conditioned on its arm, reaches detector k with the coefficient
    :func:`cohom.optics.detector_path_coefficients` gives for that arm
    (renormalized by sqrt(2): one arm holds half the single-photon
    norm).  The unordered outcome (Di, Dj) gets the exchange-symmetrized
    pairing sum; the shared global phase multiplies both photons and
    cancels in every probability.  The parameters are scalars or
    equal-shape arrays, one pair per entry; the result holds the
    outcomes of :data:`cohom.montecarlo.OUTCOMES` on axis 0, then the
    sample shape.
    """
    coeffs = detector_path_coefficients(delta_f, tau1, tau2)
    common = np.exp(1j * global_phase)
    psi_1, psi_2 = (_complex_product(_SQRT2 * coeffs[path], common)
                    for path in paths)
    return (_complex_product(psi_1[_I], psi_2[_J])
            + _complex_product(psi_1[_J], psi_2[_I]))


def outcome_probabilities(joint_amplitudes: np.ndarray) -> np.ndarray:
    """Normalized probability of each unordered detector outcome.

    Takes and returns arrays over :data:`cohom.montecarlo.OUTCOMES` on
    axis 0.  Double occupations carry the bosonic weight |A|^2 / 2 (the
    pairing sum double-counts the identical-mode term); the total over
    all outcomes then normalizes to one, per pair for array amplitudes.
    """
    weights = np.abs(joint_amplitudes) ** 2
    weights[_I == _J] /= 2.0
    # Python's sum adds the outcomes one after another, so a scalar pair
    # and each entry of an array of pairs normalize alike
    return weights / sum(weights)


def check_outcome_table() -> CheckResult:
    rng = np.random.default_rng(VALIDATION_SEED + 4)
    worst = 0.0
    up, down = PathTag.U, PathTag.D
    for paths in ((up, down), (down, up), (up, up), (down, down)):
        table = outcome_probability_table(paths[0] is not paths[1])
        delta_f = sample_detuning(rng, 1.5e6, 25)
        tau1, tau2 = rng.uniform(0.0, 5e-6, (2, 25))
        phase = rng.uniform(0.0, 2.0 * math.pi, 25)
        probs = outcome_probabilities(pair_amplitudes(
            delta_f, tau1, tau2, phase, paths))
        worst = _worst(worst, _max_abs(probs - table[:, None]))
    return _result("outcome-table", worst, 1e-12,
                   "class outcome tables vs pair amplitudes at 25 random "
                   "detunings, delays and phases per sector")


def check_classical_singles() -> CheckResult:
    config = RunConfig(sigma_f=2.5e5, tau1=1e-6, tau2=1e-6,
                       mean_photon_number=0.5, n_pairs=400_000,
                       higher_order_ratio=0.0, mode="classical",
                       seed=VALIDATION_SEED + 1)
    counts = simulate_run(config)
    n, mu = counts.n_generated, config.mean_photon_number
    worst = 0.0
    for k in (1, 2, 3, 4):
        p = mu * ensemble_intensity(k, config.sigma_f, config.tau1,
                                    config.tau2)
        se = math.sqrt(n * p * (1.0 - p))
        worst = _worst(worst, abs(counts.singles[k] - n * p) / se)
    return _result("classical-singles", worst, 5.0,
                   "fringe-resolved singles vs ensemble mean in standard errors")


def _gaussian_mean_cos(a):
    """E[cos(a z)] for z ~ N(0, 1), one value per entry of ``a``.

    The trapezoid rule on 161 equally spaced nodes over [-10, 10]: for
    this entire integrand it converges geometrically.  The Gaussian mass
    beyond |z| = 10 and the end nodes' weights are below 1e-22, so the
    end weights are not halved.
    """
    z = np.linspace(-10.0, 10.0, 161)
    weights = np.exp(-0.5 * z * z) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)
    return np.cos(np.outer(a, z)) @ weights


def check_ensemble_quadrature() -> CheckResult:
    worst = 0.0
    tau1 = tau2 = 1e-6
    sigma = np.linspace(0.0, 3.0, 31) / (tau1 + tau2)
    # E[cos(2 delta (tau1+tau2))] under delta ~ N(0, sigma^2), one
    # quadrature per sigma
    mean_cos = _gaussian_mean_cos(2.0 * sigma * (tau1 + tau2))
    for k, sign in ((1, 1.0), (2, -1.0), (3, -1.0), (4, 1.0)):
        reference = 0.5 * (1.0 + sign * mean_cos)
        worst = _worst(worst, _max_abs(
            ensemble_intensity(k, sigma, tau1, tau2) - reference))
    return _result("ensemble-quadrature", worst, 1e-6,
                   "ensemble intensity vs trapezoid quadrature")


#: 0/1 masks over CLICK_PATTERNS: row k - 1 marks the patterns where
#: detector k fires
_FIRES = np.array([[k in fired for fired in CLICK_PATTERNS]
                   for k in (1, 2, 3, 4)], dtype=float)


def check_classical_marginals() -> CheckResult:
    grid = [(sigma_f, tau1, tau2, mu) for sigma_f, (tau1, tau2), mu
            in itertools.product((0.0, 1e5, 5e5, 1.5e6, 1e7),
                                 ((0.0, 0.0), (1e-6, 1e-6), (0.3e-6, 2e-6)),
                                 (0.1, 0.5, 1.0))]
    tables = np.array([click_pattern_table(RunConfig(
        sigma_f, tau1, tau2, mean_photon_number=mu, mode="classical"))
        for sigma_f, tau1, tau2, mu in grid])
    sigma_f, tau1, tau2, mu = np.array(grid).T
    singles = mu * np.array([ensemble_intensity(k, sigma_f, tau1, tau2)
                             for k in (1, 2, 3, 4)])
    # <I1 I3> = <I2 I4> = (1 - E[cos 2 theta]) / 8
    pair = mu * mu * (1.0 - fringe_visibility(2.0 * sigma_f, tau1, tau2)) / 8.0
    worst = _worst(
        _max_abs(_FIRES @ tables.T - singles),
        _max_abs((_FIRES[[0, 1]] * _FIRES[[2, 3]]) @ tables.T - pair))
    return _result("classical-marginals", worst, 1e-12,
                   "click-pattern marginals vs ensemble intensities and "
                   "pair moments on a 45-point grid")


def check_uniform_limit() -> CheckResult:
    tau1 = tau2 = 1e-6
    xs = np.linspace(1.52, 6.0, 50)
    sigmas = xs / (tau1 + tau2)
    worst = 0.0
    for k in (1, 2, 3, 4):
        dev = np.abs(2.0 * ensemble_intensity(k, sigmas, tau1, tau2) - 1.0)
        worst = _worst(worst, float(np.max(dev)))
    return _result("uniform-limit", worst, 0.01,
                   "relative deviation from I0/2 at sigma*(tau1+tau2) >= 1.52")


def check_combination_table() -> CheckResult:
    rows = enumerate_combinations()
    mismatches = 0 if len(rows) == 16 else 1

    def port(pol, path):
        if (pol, path) in ((Polarization.H, PathTag.D),
                           (Polarization.V, PathTag.U)):
            return "A"
        return "B"

    for row in rows:
        if row.path_1 is row.path_2:
            expected = ComboClass.SAME_PATH_EXCLUDED
        elif port(row.pol_1, row.path_1) == port(row.pol_2, row.path_2):
            expected = ComboClass.SINGLE_PORT_EXCLUDED
        else:
            expected = ComboClass.CROSS_PATH_KEPT
        if row.classification is not expected:
            mismatches += 1
        if expected is ComboClass.CROSS_PATH_KEPT and row.pol_1 is not row.pol_2:
            mismatches += 1
    kept = sum(r.classification is ComboClass.CROSS_PATH_KEPT for r in rows)
    same = sum(r.classification is ComboClass.SAME_PATH_EXCLUDED for r in rows)
    if (kept, same) != (4, 8):
        mismatches += 1
    return _result("combination-table", mismatches, 0,
                   "16-row allocation table vs independent re-derivation")


_EXPECTED_CHART = (
    ("1", "1", "", "1d"),
    ("1", "", "1d", ""),
    ("", "1d", "1", "1"),
    ("1d", "", "1", ""),
)


def check_pair_chart() -> CheckResult:
    chart = pair_chart()
    mismatches = sum(
        chart.cells[i][j].value != _EXPECTED_CHART[i][j]
        for i in range(4)
        for j in range(4)
    )
    return _result("pair-chart", mismatches, 0,
                   "4x4 detector pairing chart vs frozen reference")


def check_element_unitarity() -> CheckResult:
    rng = np.random.default_rng(VALIDATION_SEED + 2)
    n = 1000
    a, b = _random_fields(rng, n), _random_fields(rng, n)
    norm_a = total_norm(a)
    norm_in = norm_a + total_norm(b)
    out1, out2 = bs_transform(a, b)
    p1, p2 = pbs_route(a, b)
    waveplate = hwp_transform(a, rng.uniform(0.0, math.pi, n))
    shifted = detune_phase(a, rng.uniform(-1e7, 1e7, n),
                           rng.uniform(0, 1e-5, n))
    worst = _worst(
        _max_abs((total_norm(out1) + total_norm(out2)) / norm_in - 1.0),
        _max_abs((total_norm(p1) + total_norm(p2)) / norm_in - 1.0),
        _max_abs(total_norm(waveplate) / norm_a - 1.0),
        _max_abs(total_norm(shifted) / norm_a - 1.0))
    return _result("element-unitarity", worst, 1e-12,
                   "norm conservation over 1000 random inputs per element")


def check_waveplate_balance() -> CheckResult:
    out = hwp_transform(from_jones(1.0, 0.0), math.pi / 8)
    target = 1.0 / math.sqrt(2.0)
    worst = _worst(abs(out[0] - target), abs(out[2] - target))
    return _result("waveplate-balance", worst, 1e-12,
                   "22.5 degree plate maps H to an equal superposition")


def check_stage_composition() -> CheckResult:
    rng = np.random.default_rng(VALIDATION_SEED + 3)
    n = 100
    h, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    source = from_jones(h, v)
    source /= np.sqrt(total_norm(source))
    delta_f = rng.uniform(-5e6, 5e6, n)
    tau1 = rng.uniform(0.0, 5e-6, n)

    port_a, port_b = nmzi_transfer(source, delta_f, tau1)

    up, down = bs_transform(source, vacuum())
    worst = 0.0
    try:
        up = detune_phase(with_path(up, PathTag.U), delta_f, tau1)
        down = detune_phase(with_path(down, PathTag.D), delta_f, tau1)
    except PathAssignmentError:
        # a faulty splitter left amplitude on both arms: nothing to compare
        worst = math.nan
    else:
        composed_a, composed_b = pbs_route(down, up)
        samples = np.arange(n)
        for direct, composed in ((port_a, composed_a), (port_b, composed_b)):
            # align the global phase on the largest composed amplitude
            ref = np.argmax(np.abs(composed), axis=0)
            keep = np.abs(composed[ref, samples]) >= 1e-12
            phase = direct[ref, samples][keep] / composed[ref, samples][keep]
            worst = _worst(worst, _max_abs(
                direct[:, keep] - phase * composed[:, keep]))
    return _result("stage-composition", worst, 1e-12,
                   "single-stage transfer vs composed splitter pipeline")


def check_rerun_determinism() -> CheckResult:
    config = _exact_zero_config(n_pairs=100_000,
                                higher_order_ratio=0.01)
    first = simulate_run(config)
    mismatches = int(simulate_run(config) != first)
    classical = replace(config, mode="classical", mean_photon_number=0.5)
    mismatches += int(simulate_run(classical) != simulate_run(classical))
    values = np.linspace(-5e-7, 5e-7, 5)
    for scanned in (config, replace(classical, n_pairs=5_000)):
        serial = [p.counts for p in scan_tau21(scanned, values)]
        threaded = [p.counts for p in scan_tau21(scanned, values, workers=3)]
        mismatches += int(serial != threaded)
    return _result("rerun-determinism", mismatches, 0,
                   "bit-identical reruns both serial and 3-worker")


def check_filter_monotonicity() -> CheckResult:
    violations = 0
    for seed in range(100):
        config = _exact_zero_config(n_pairs=20_000, seed=seed,
                                    higher_order_ratio=0.01)
        kept = simulate_run(config)
        loose = simulate_run(replace(config, heterodyne_filter=False))
        if kept.n_postselected > loose.n_postselected:
            violations += 1
        if any(kept.coincidences[p] > loose.coincidences[p]
               for p in kept.coincidences):
            violations += 1
    return _result("filter-monotonicity", violations, 0,
                   "postselection never grows when the filter turns on "
                   "(100 seeds)")


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


#: the suite in run order; each name runs the module's check_<name>
CHECKS = (
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
)


def run_validation(progress: Optional[Callable[[str], None]] = None) -> list:
    """Run the full check suite and return a list of CheckResult.

    Each check is looked up as a module global when it runs, so a
    replaced ``check_*`` function is the one called.

    Args:
        progress: optional callable invoked with each check name as it
            starts (the CLI points this at stderr).
    """
    results = []
    for name in CHECKS:
        if progress is not None:
            progress(name)
        results.append(globals()["check_" + name.replace("-", "_")]())
    return results
