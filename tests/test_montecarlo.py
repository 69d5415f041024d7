"""Statistical and structural checks of the event simulator.

The amplitude-mode outcome table has closed-form values (derived from the
port coefficients): for cross-path pairs the anticorrelated detector pairs
(1,3), (2,4), (1,2), (3,4) have *exactly* zero probability, bunched
double-hits carry 1/8 each and the correlated pairs (1,4), (2,3) carry 1/4;
same-path pairs give a flat table (1/16 per double, 1/8 per distinct pair).
The tests below verify the implementation against these numbers, the
determinism contract, and the estimator conventions.  Classical mode is
checked through its click-pattern table, whose marginals are the
ensemble intensities, and a per-slot sampler kept here as the oracle for
its count distribution; amplitude mode's single draw over both path
classes is checked against the class-split draw it replaces.
"""

import math
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohom.montecarlo
import cohom.optics
from cohom.analytic import fringe_visibility, local_intensity
from cohom.montecarlo import (
    CLICK_PATTERNS,
    DETECTOR_PAIRS,
    DETECTORS,
    OUTCOMES,
    ConfigError,
    CountsAccumulator,
    G2Estimate,
    RunConfig,
    _FRINGE_POWERS,
    _window_acceptance,
    click_pattern_table,
    detector_convolve,
    g2_estimate,
    outcome_probability_table,
    sample_detuning,
    scan_tau21,
    simulate_run,
)
from cohom.optics import PathTag
from cohom.validation import outcome_probabilities, pair_amplitudes

# The HOM pairs cancel bitwise-exactly (their two pairing terms are exact
# i-rotations of each other through one splitter); the cross-polarization
# pairs cancel only to float precision because the 22.5-degree waveplate
# factors cos(pi/4) and sin(pi/4) differ by one ulp.
HOM_PAIRS = ((1, 3), (2, 4))
CROSS_POL_PAIRS = ((1, 2), (3, 4))
ANTICORRELATED = HOM_PAIRS + CROSS_POL_PAIRS
CORRELATED = ((1, 4), (2, 3))

# the (photon 1, photon 2) arm pairs: cross-path UD and DU, same-path UU, DD
UD = (PathTag.U, PathTag.D)
DU = (PathTag.D, PathTag.U)
UU = (PathTag.U, PathTag.U)
ARM_PAIRS = (UD, DU, UU, (PathTag.D, PathTag.D))


def at(pair) -> int:
    """Index of an outcome on axis 0 of the amplitude and probability arrays."""
    return OUTCOMES.index(pair)


def base_config(**overrides) -> RunConfig:
    defaults = dict(
        sigma_f=1.5e6,
        tau1=1e-6,
        tau2=1e-6,
        mean_photon_number=0.5,
        n_pairs=50_000,
        higher_order_ratio=0.0,
        pulse_sigma=1e-9,
        coincidence_window=8e-9,
        seed=1234,
        mode="amplitude",
        heterodyne_filter=True,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def add_accidentals(config, rng, acc) -> None:
    """Oracle for the higher-order accidentals of a run.

    A binomial picks the contaminated slots, a multinomial spreads them
    uniformly over the detector pairs, and each pair keeps the hits that
    pass the window, whatever the filter; both photons of a hit raise
    the singles.
    """
    n_acc = int(rng.binomial(config.n_pairs, config.higher_order_ratio))
    p_window = _window_acceptance(config)
    hits = rng.multinomial(n_acc, [1.0 / len(DETECTOR_PAIRS)]
                           * len(DETECTOR_PAIRS))
    for (i, j), n_hit in zip(DETECTOR_PAIRS, hits.tolist()):
        n_kept = int(rng.binomial(n_hit, p_window))
        acc.singles[i] += n_hit
        acc.singles[j] += n_hit
        acc.coincidences[(i, j)] += n_kept
        acc.n_postselected += n_kept


def per_slot_classical_run(config, rng) -> CountsAccumulator:
    """Oracle for classical mode: every slot simulated one by one.

    Each slot draws a detuning, clicks detector k with probability
    mu * I_k(delta_f) and stamps every detector with its own jitter; a
    pair counts when both detectors click within the window.  This is
    the event-by-event sampler that the exact pattern draws replace.
    """
    n = config.n_pairs
    acc = CountsAccumulator.empty()
    delta = sample_detuning(rng, config.sigma_f, n)
    prob = np.stack([config.mean_photon_number
                     * local_intensity(k, delta, config.tau1, config.tau2)
                     for k in DETECTORS], axis=1)
    clicks = rng.random((n, 4)) < prob
    times = detector_convolve(np.zeros((n, 4)), rng, config.pulse_sigma)
    for k in DETECTORS:
        acc.singles[k] += int(np.count_nonzero(clicks[:, k - 1]))
    any_pair = np.zeros(n, dtype=bool)
    for i, j in DETECTOR_PAIRS:
        sel = (clicks[:, i - 1] & clicks[:, j - 1]
               & (np.abs(times[:, i - 1] - times[:, j - 1])
                  <= config.coincidence_window))
        acc.coincidences[(i, j)] += int(np.count_nonzero(sel))
        any_pair |= sel
    acc.n_postselected = int(np.count_nonzero(any_pair))
    acc.n_generated = n
    add_accidentals(config, rng, acc)
    return acc


def class_split_amplitude_run(config, rng) -> CountsAccumulator:
    """Oracle for amplitude mode: the pairs split between the classes first.

    A pair is cross-path with probability 1/2; each class then draws one
    multinomial over its outcome table, and each two-detector outcome
    one window binomial.  The heterodyne filter keeps only the
    cross-path class.  This is the two-stage draw that the single
    multinomial over both classes at half weight replaces.
    """
    p_window = _window_acceptance(config)
    acc = CountsAccumulator.empty()
    n_cross = int(rng.binomial(config.n_pairs, 0.5))
    for cross_path, n_class in ((True, n_cross),
                                (False, config.n_pairs - n_cross)):
        kept_class = cross_path or not config.heterodyne_filter
        hits = rng.multinomial(n_class, outcome_probability_table(cross_path))
        for (i, j), n_hit in zip(OUTCOMES, hits.tolist()):
            acc.singles[i] += n_hit
            acc.singles[j] += n_hit
            if i != j and kept_class:
                n_kept = int(rng.binomial(n_hit, p_window))
                acc.coincidences[(i, j)] += n_kept
                acc.n_postselected += n_kept
    acc.n_generated = config.n_pairs
    add_accidentals(config, rng, acc)
    return acc


def count_vector(counts: CountsAccumulator) -> list:
    return [*counts.singles.values(), *counts.coincidences.values(),
            counts.n_postselected]


def assert_count_means_match(config, oracle, seeds=range(200)):
    """Each count's mean over ``seeds`` lies within 4 standard errors of
    the oracle's."""
    exact = np.array([count_vector(simulate_run(replace(config, seed=s)))
                      for s in seeds])
    expected = np.array([count_vector(oracle(
        config, np.random.default_rng([s, 1]))) for s in seeds])
    spread = np.sqrt((exact.var(axis=0, ddof=1)
                      + expected.var(axis=0, ddof=1)) / len(seeds))
    z = (exact.mean(axis=0) - expected.mean(axis=0)) / spread
    assert np.all(np.abs(z) <= 4.0), z


class TestConfigValidation:
    def test_negative_spread_names_field(self):
        with pytest.raises(ConfigError) as err:
            base_config(sigma_f=-1.0)
        assert err.value.field == "sigma_f"
        assert "sigma_f" in str(err.value)

    def test_bad_values_name_their_fields(self):
        cases = [
            ("tau1", dict(tau1=-1e-9)),
            ("tau2", dict(tau2=float("nan"))),
            ("mean_photon_number", dict(mean_photon_number=0.0)),
            ("n_pairs", dict(n_pairs=0)),
            ("n_pairs", dict(n_pairs=True)),
            # numpy draws counts as int64
            ("n_pairs", dict(n_pairs=2**63)),
            ("higher_order_ratio", dict(higher_order_ratio=1.0)),
            ("pulse_sigma", dict(pulse_sigma=-1e-9)),
            ("coincidence_window", dict(coincidence_window=0.0)),
            ("seed", dict(seed=-3)),
            ("seed", dict(seed=False)),
            ("mode", dict(mode="quantumish")),
        ]
        for field, overrides in cases:
            with pytest.raises(ConfigError) as err:
                base_config(**overrides)
            assert err.value.field == field

    def test_classical_click_probability_capped(self):
        with pytest.raises(ConfigError) as err:
            base_config(mode="classical", mean_photon_number=1.5)
        assert err.value.field == "mean_photon_number"
        # amplitude mode has no Bernoulli cap
        base_config(mode="amplitude", mean_photon_number=1.5)


class TestSampleDetuning:
    def test_zero_spread(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_detuning(rng, 0.0, 7), np.zeros(7))

    def test_moments(self):
        rng = np.random.default_rng(7)
        sigma = 2.2e6
        draws = sample_detuning(rng, sigma, 1_000_000)
        assert abs(np.mean(draws)) < 5.0 * sigma / math.sqrt(draws.size)
        assert abs(np.std(draws) - sigma) / sigma < 0.02

    def test_deterministic_given_state(self):
        a = sample_detuning(np.random.default_rng(42), 1e6, 1000)
        b = sample_detuning(np.random.default_rng(42), 1e6, 1000)
        assert np.array_equal(a, b)


class TestDetectorConvolve:
    def test_zero_jitter_is_identity(self):
        rng = np.random.default_rng(0)
        stamps = np.array([[3.25e-9, 0.0, -1e-9, 7e-9]])
        smeared = detector_convolve(stamps, rng, 0.0)
        assert isinstance(smeared, np.ndarray)
        assert np.array_equal(smeared, stamps)

    def test_difference_spread(self):
        rng = np.random.default_rng(11)
        sigma = 2e-9
        t = detector_convolve(np.zeros((400_000, 2)), rng, sigma)
        diff = t[:, 0] - t[:, 1]
        assert abs(np.std(diff) - math.sqrt(2.0) * sigma) / sigma < 0.02

    def test_window_acceptance_matches_erf(self):
        # |t1 - t2| <= w with independent jitters sigma = w/4:
        # the difference has std w/(2*sqrt(2)), acceptance erf(2)
        window = 8e-9
        rng = np.random.default_rng(12)
        t = detector_convolve(np.zeros((400_000, 2)), rng, window / 4.0)
        frac = np.mean(np.abs(t[:, 0] - t[:, 1]) <= window)
        assert abs(frac - math.erf(2.0)) < 0.005


class TestPairAmplitudes:
    def test_cross_path_cancellations_are_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            df = rng.uniform(-8e6, 8e6)
            t1, t2 = rng.uniform(0, 4e-6, size=2)
            phi = rng.uniform(0, 2 * math.pi)
            for paths in (UD, DU):
                amps = pair_amplitudes(df, t1, t2, phi, paths)
                for pair in HOM_PAIRS:
                    assert amps[at(pair)] == 0j
                for pair in CROSS_POL_PAIRS:
                    assert abs(amps[at(pair)]) < 1e-15
                for pair in CORRELATED:
                    assert abs(amps[at(pair)]) > 0.4

    def test_bunching_amplitude_nonzero(self):
        amps = pair_amplitudes(1e6, 1e-6, 2e-6, 0.3, UD)
        for k in DETECTORS:
            assert abs(amps[at((k, k))]) == pytest.approx(0.5, abs=1e-12)

    def test_exchange_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            df = rng.uniform(-8e6, 8e6)
            t1, t2 = rng.uniform(0, 4e-6, size=2)
            phi = rng.uniform(0, 2 * math.pi)
            ud = pair_amplitudes(df, t1, t2, phi, UD)
            du = pair_amplitudes(df, t1, t2, phi, DU)
            assert np.array_equal(ud, du)

    def test_global_phase_cancels_in_probabilities(self):
        reference = None
        for phi in (0.0, math.pi / 3.0, 1.7):
            probs = outcome_probabilities(pair_amplitudes(
                2e6, 0.7e-6, 1.1e-6, phi, UD))
            if reference is None:
                reference = probs
            else:
                for pair in OUTCOMES:
                    assert probs[at(pair)] == pytest.approx(
                        reference[at(pair)], abs=1e-14)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            df = rng.uniform(-8e6, 8e6)
            t1, t2 = rng.uniform(0, 4e-6, size=2)
            phi = rng.uniform(0, 2 * math.pi)
            for paths in ARM_PAIRS:
                probs = outcome_probabilities(pair_amplitudes(
                    df, t1, t2, phi, paths))
                assert abs(sum(probs) - 1.0) < 1e-12

    def test_cross_sector_closed_form_values(self):
        probs = outcome_probabilities(pair_amplitudes(
            3e6, 0.5e-6, 1.5e-6, 0.9, UD))
        for k in DETECTORS:
            assert probs[at((k, k))] == pytest.approx(0.125, abs=1e-12)
        for pair in CORRELATED:
            assert probs[at(pair)] == pytest.approx(0.25, abs=1e-12)
        for pair in HOM_PAIRS:
            assert probs[at(pair)] == 0.0
        for pair in CROSS_POL_PAIRS:
            assert probs[at(pair)] < 1e-30

    def test_same_sector_flat_table(self):
        probs = outcome_probabilities(pair_amplitudes(
            3e6, 0.5e-6, 1.5e-6, 0.9, UU))
        for k in DETECTORS:
            assert probs[at((k, k))] == pytest.approx(1.0 / 16.0, abs=1e-12)
        for pair in DETECTOR_PAIRS:
            assert probs[at(pair)] == pytest.approx(1.0 / 8.0, abs=1e-12)


class TestOutcomeTable:
    def test_matches_scalar_event(self):
        # the oracle: one class table stands for every detuning, delay
        # pair and phase of every arm pair in the class
        rng = np.random.default_rng(6)
        for paths in ARM_PAIRS:
            table = outcome_probability_table(paths[0] is not paths[1])
            for _ in range(20):
                df = rng.uniform(-8e6, 8e6)
                t1, t2 = rng.uniform(0, 4e-6, size=2)
                phi = rng.uniform(0, 2 * math.pi)
                scalar = outcome_probabilities(pair_amplitudes(
                    df, t1, t2, phi, paths))
                for col in range(len(OUTCOMES)):
                    assert abs(table[col] - scalar[col]) < 1e-12

    def test_rows_sum_to_one(self):
        for cross_path in (True, False):
            table = outcome_probability_table(cross_path)
            assert table.shape == (len(OUTCOMES),)
            assert table.sum() == 1.0
        cross = dict(zip(OUTCOMES, outcome_probability_table(True)))
        for pair in ANTICORRELATED:
            assert cross[pair] == 0.0

    def test_pinned_bit_for_bit(self):
        # amplitude counts are drawn from these exact floats, so a change
        # of the coefficient table or of the table build must not move a
        # single bit unnoticed
        pinned = {
            True: ("0x1.0000000000000p-3", "0x0.0p+0", "0x0.0p+0",
                   "0x1.0000000000000p-2", "0x1.0000000000000p-3",
                   "0x1.0000000000000p-2", "0x0.0p+0",
                   "0x1.0000000000000p-3", "0x0.0p+0",
                   "0x1.0000000000000p-3"),
            False: ("0x1.0000000000000p-4", "0x1.0000000000000p-3",
                    "0x1.0000000000000p-3", "0x1.0000000000000p-3",
                    "0x1.0000000000000p-4", "0x1.0000000000000p-3",
                    "0x1.0000000000000p-3", "0x1.0000000000000p-4",
                    "0x1.0000000000000p-3", "0x1.0000000000000p-4"),
        }
        for cross_path, entries in pinned.items():
            table = outcome_probability_table(cross_path)
            assert tuple(float(p).hex() for p in table) == entries

    @pytest.mark.parametrize("cross_path, exact", [
        (True, ("1/8", "0", "0", "1/4", "1/8", "1/4", "0", "1/8", "0",
                "1/8")),
        (False, ("1/16", "1/8", "1/8", "1/8", "1/16", "1/8", "1/8",
                 "1/16", "1/8", "1/16")),
    ])
    def test_equals_exact_fractions(self, cross_path, exact):
        table = outcome_probability_table(cross_path)
        assert [Fraction(p) for p in table] == [Fraction(e) for e in exact]

    @pytest.mark.parametrize("paths", ARM_PAIRS)
    def test_element_pipeline_at_origin_agrees(self, paths):
        # the optics pipeline, an independent derivation of the same
        # coefficients, at zero detuning, delays and phase
        table = outcome_probability_table(paths[0] is not paths[1])
        probs = outcome_probabilities(pair_amplitudes(0.0, 0.0, 0.0, 0.0,
                                                      paths))
        assert np.max(np.abs(probs - table)) < 1e-15

    def test_engine_binds_nothing_from_optics(self):
        # the engine reads its coefficients from cohom.analytic only
        bound = [name for name, value in vars(cohom.montecarlo).items()
                 if value is cohom.optics
                 or getattr(value, "__module__", None) == "cohom.optics"]
        assert bound == []

    def test_built_once_per_process(self):
        for cross_path in (True, False):
            assert (outcome_probability_table(cross_path)
                    is outcome_probability_table(cross_path))

    def test_read_only(self):
        table = outcome_probability_table(True)
        with pytest.raises(ValueError):
            table[0] = 0.5

    def test_runs_leave_table_unchanged(self):
        before = {c: outcome_probability_table(c).copy() for c in (True, False)}
        for heterodyne_filter in (True, False):
            simulate_run(base_config(n_pairs=20_000,
                                     heterodyne_filter=heterodyne_filter))
        for cross_path, table in before.items():
            np.testing.assert_array_equal(
                outcome_probability_table(cross_path), table)

    @pytest.mark.parametrize("heterodyne_filter", [True, False])
    def test_cold_and_warm_cache_scans_agree(self, heterodyne_filter):
        cfg = base_config(n_pairs=20_000, higher_order_ratio=0.01,
                          heterodyne_filter=heterodyne_filter)
        values = np.linspace(-1e-7, 1e-7, 3)
        outcome_probability_table.cache_clear()
        cold = scan_tau21(cfg, values)
        assert outcome_probability_table.cache_info().currsize == 2
        warm = scan_tau21(cfg, values)
        assert [p.counts for p in cold] == [p.counts for p in warm]


class TestSimulateAmplitude:
    def test_anticorrelated_counts_exactly_zero(self):
        # HOM pairs have exactly zero probability; cross-polarization pairs
        # have probability below 1e-30, unreachable by the outcome sampler.
        counts = simulate_run(base_config(n_pairs=200_000))
        for pair in ANTICORRELATED:
            assert counts.coincidences[pair] == 0

    def test_correlated_and_postselected_rates(self):
        n = 200_000
        counts = simulate_run(base_config(n_pairs=n))
        # cross-path arm pairs occur half the time; within them the two
        # correlated pairs take probability 1/4 each
        for pair in CORRELATED:
            expect = n / 8.0
            spread = math.sqrt(n * (1.0 / 8.0) * (7.0 / 8.0))
            assert abs(counts.coincidences[pair] - expect) < 5.0 * spread
        assert counts.n_postselected == sum(counts.coincidences.values())
        assert counts.n_postselected <= counts.n_generated
        assert counts.n_generated == n

    def test_singles_uniform_across_detectors(self):
        n = 200_000
        counts = simulate_run(base_config(n_pairs=n))
        # each photon lands uniformly; two photons per event. The per-event
        # detector count has variance 7/16 (2 w.p. 3/32, 1 w.p. 5/16).
        spread = math.sqrt(n * 7.0 / 16.0)
        for k in DETECTORS:
            assert abs(counts.singles[k] - n / 2.0) < 5.0 * spread
        assert sum(counts.singles.values()) == 2 * n

    def test_filter_off_leaks_same_path_pairs(self):
        n = 200_000
        counts = simulate_run(base_config(n_pairs=n, heterodyne_filter=False))
        # same-path arm pairs (probability 1/2) give each distinct pair 1/8
        for pair in ANTICORRELATED:
            expect = n / 16.0
            spread = math.sqrt(n * (1.0 / 16.0))
            assert abs(counts.coincidences[pair] - expect) < 5.0 * spread

    def test_anticorrelated_zero_at_huge_runs(self):
        for seed in (1, 2, 3):
            counts = simulate_run(base_config(n_pairs=10**12, seed=seed))
            for pair in ANTICORRELATED:
                assert counts.coincidences[pair] == 0
            assert sum(counts.singles.values()) == 2 * 10**12

    def test_window_acceptance_matches_erf(self):
        # pulse_sigma = W: stamp differences have std sqrt(2) W, so a
        # correlated pair survives the window with probability erf(1/2)
        n = 400_000
        w = 8e-9
        counts = simulate_run(base_config(
            n_pairs=n, pulse_sigma=w, coincidence_window=w))
        p = math.erf(0.5) / 8.0
        spread = math.sqrt(n * p * (1.0 - p))
        for pair in CORRELATED:
            assert abs(counts.coincidences[pair] - n * p) < 5.0 * spread

    def test_zero_jitter_keeps_every_distinct_outcome(self):
        # with every distinct outcome kept, what remains of a detector's
        # singles after its coincidences is its double hits, counted twice
        def leftovers(pulse_sigma, seed):
            counts = simulate_run(base_config(
                n_pairs=10**12, seed=seed, pulse_sigma=pulse_sigma,
                heterodyne_filter=False))
            return [counts.singles[k] - sum(
                        c for pair, c in counts.coincidences.items()
                        if k in pair)
                    for k in DETECTORS]

        for seed in (1, 2, 3):
            assert all(r % 2 == 0 for r in leftovers(0.0, seed))
        # the check has power: a window that drops pairs leaves odd ones
        assert any(r % 2 for seed in (1, 2, 3)
                   for r in leftovers(8e-9, seed))

    def test_counts_ignore_detuning_and_delays(self):
        reference = simulate_run(base_config(higher_order_ratio=0.01))
        for overrides in (dict(sigma_f=0.0), dict(sigma_f=9e6),
                          dict(tau1=0.0), dict(tau2=3.7e-6),
                          dict(tau1=2e-6, tau2=0.5e-6)):
            counts = simulate_run(base_config(higher_order_ratio=0.01,
                                              **overrides))
            assert counts.singles == reference.singles
            assert counts.coincidences == reference.coincidences
            assert counts.n_postselected == reference.n_postselected

    @pytest.mark.parametrize("heterodyne_filter", [True, False])
    def test_count_means_match_class_split_oracle(self, heterodyne_filter):
        # a window of 2 pulse widths drops some correlated pairs; the
        # accidentals give every count a spread, the filtered ones too
        config = base_config(n_pairs=20_000, pulse_sigma=4e-9,
                             higher_order_ratio=0.01,
                             heterodyne_filter=heterodyne_filter)
        assert_count_means_match(config, class_split_amplitude_run)

    @pytest.mark.parametrize("heterodyne_filter", [True, False])
    def test_postselected_counts_accidentals(self, heterodyne_filter):
        # accidental coincidences pass the window and no filter removes
        # them, so they are kept events like the correlated pairs
        counts = simulate_run(base_config(higher_order_ratio=0.3,
                                          heterodyne_filter=heterodyne_filter))
        assert counts.n_postselected == sum(counts.coincidences.values())

    def test_accidental_floor(self):
        n = 200_000
        ratio = 0.01
        counts = simulate_run(base_config(n_pairs=n, higher_order_ratio=ratio))
        for pair in ANTICORRELATED:
            expect = n * ratio / 6.0
            spread = math.sqrt(expect)
            assert abs(counts.coincidences[pair] - expect) < 5.0 * spread
        value, _ = g2_estimate(counts, (1, 3))
        assert 0.0 < value < 0.02


class TestSimulateClassical:
    def test_g2_converges_to_half(self):
        counts = simulate_run(
            base_config(mode="classical", n_pairs=400_000, mean_photon_number=1.0))
        for pair in ((1, 3), (2, 4)):
            value, err = g2_estimate(counts, pair)
            assert err > 0
            assert abs(value - 0.5) < 3.0 * err

    def test_singles_match_ensemble_intensity(self):
        from cohom.analytic import ensemble_intensity

        n = 400_000
        mu = 0.5
        cfg = base_config(
            mode="classical", n_pairs=n, mean_photon_number=mu,
            sigma_f=2.5e5, tau1=1e-6, tau2=1e-6)
        counts = simulate_run(cfg)
        for k in DETECTORS:
            want = ensemble_intensity(k, cfg.sigma_f, cfg.tau1, cfg.tau2)
            p = mu * want
            spread = math.sqrt(n * p * (1.0 - p))
            assert abs(counts.singles[k] - n * p) < 5.0 * spread

    def test_filter_flag_inert(self):
        on = simulate_run(base_config(mode="classical", heterodyne_filter=True))
        off = simulate_run(base_config(mode="classical", heterodyne_filter=False))
        assert on == off

    @pytest.mark.parametrize("tau2", [3e-6, 0.2e-6])
    def test_count_means_match_per_slot_oracle(self, tau2):
        # sigma_f (tau1 + tau2) = 1 and 0.3: fringe visibility 0.14 and
        # 0.84; a window of 2 pulse widths makes three-click slots
        # lose some of their pairs
        config = base_config(mode="classical", sigma_f=2.5e5, tau1=1e-6,
                             tau2=tau2, n_pairs=20_000, pulse_sigma=4e-9,
                             higher_order_ratio=0.01)
        assert_count_means_match(config, per_slot_classical_run)

    def test_counts_past_int64_stay_exact(self):
        # at sigma_f = 0 and mu = 1 every slot fires D1 and D4, and the
        # accidentals push both singles past the int64 range
        n = 2**63 - 1
        counts = simulate_run(base_config(mode="classical", sigma_f=0.0,
                                          mean_photon_number=1.0,
                                          higher_order_ratio=0.5, n_pairs=n))
        for k in (1, 4):
            assert type(counts.singles[k]) is int
            assert counts.singles[k] > n

    def test_counts_ignore_stamp_block_size(self, monkeypatch):
        # the stamps of a run are one normal stream drawn in order, so
        # how it is cut into blocks cannot move a count; at mu = 1 on a
        # washed-out fringe each three-click pattern takes 5/128 of the
        # slots, about 43000, which spans two default blocks
        config = base_config(mode="classical", sigma_f=2.5e6,
                             mean_photon_number=1.0, n_pairs=1_100_000,
                             higher_order_ratio=0.01)
        three_clicks = [p for fired, p in zip(CLICK_PATTERNS,
                                              click_pattern_table(config))
                        if len(fired) == 3]
        assert min(three_clicks) * config.n_pairs > cohom.montecarlo.CHUNK_SIZE
        reference = simulate_run(config)
        for size in (1000, 7):
            monkeypatch.setattr(cohom.montecarlo, "CHUNK_SIZE", size)
            assert simulate_run(config) == reference

    def test_overflowing_stamp_differences_fall_outside_the_window(self):
        # stamps of sigma 1e308 overflow, and so do their differences (inf,
        # or inf - inf = NaN): outside the window, without a warning
        config = base_config(mode="classical", sigma_f=2.5e6,
                             mean_photon_number=1.0, pulse_sigma=1e308,
                             n_pairs=20_000)
        counts = simulate_run(config)
        three_clicks = sum(p for fired, p in zip(CLICK_PATTERNS,
                                                 click_pattern_table(config))
                           if len(fired) > 2)
        assert three_clicks * config.n_pairs > 1000
        assert counts.coincidences == {p: 0 for p in DETECTOR_PAIRS}
        assert counts.n_postselected == 0

    def test_zero_phase_and_jitter_is_deterministic(self):
        # at sigma_f = 0 only D1 and D4 can click, at mu = 1 they always
        # do, and without jitter their pair always lands in the window
        n = 100_000
        counts = simulate_run(base_config(mode="classical", sigma_f=0.0,
                                          mean_photon_number=1.0,
                                          pulse_sigma=0.0, n_pairs=n))
        assert counts.singles == {1: n, 2: 0, 3: 0, 4: n}
        assert counts.coincidences == {
            p: (n if p == (1, 4) else 0) for p in DETECTOR_PAIRS}
        assert counts.n_postselected == n


def pattern_table(**overrides) -> dict:
    """Click-pattern probabilities of a classical config, by pattern."""
    config = base_config(mode="classical", **overrides)
    return dict(zip(CLICK_PATTERNS, click_pattern_table(config)))


def click_pattern_table_by_convolution(config) -> np.ndarray:
    """Oracle: the click-pattern table built one pattern at a time, each
    pattern's polynomial in (v, u) from one np.convolve per detector."""
    cos_means = [1.0, *(fringe_visibility(m * config.sigma_f, config.tau1,
                                          config.tau2)
                        for m in (1, 2, 3, 4))]
    moments = np.maximum(_FRINGE_POWERS @ cos_means, 0.0)
    forms = []
    for k in DETECTORS:
        bright = local_intensity(k, 0.0, 0.0, 0.0)
        click = config.mean_photon_number * np.array([1.0 - bright, bright])
        forms.append((click, 1.0 - click))
    table = []
    for fired in CLICK_PATTERNS:
        poly = np.ones(1)
        for k, (click, miss) in zip(DETECTORS, forms):
            poly = np.convolve(poly, click if k in fired else miss)
        table.append(poly @ moments)
    return np.array(table)


#: delays, among them ones whose sum or fringe phase overflows a float
_DELAYS = st.one_of(st.sampled_from([0.0, 1e-6, 1e10, 1e308]),
                    st.floats(0.0, 5e-6))


class TestClickPatternTable:
    @settings(max_examples=300, deadline=None)
    @given(sigma_f=st.one_of(st.sampled_from([0.0, 1.0, 1e300]),
                             st.floats(0.0, 1e8)),
           tau1=_DELAYS, tau2=_DELAYS,
           mu=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    @example(sigma_f=0.0, tau1=1e-6, tau2=1e-6, mu=1.0)
    @example(sigma_f=0.0, tau1=1e308, tau2=1e308, mu=0.5)
    @example(sigma_f=1e300, tau1=1e10, tau2=1e10, mu=1.0)
    @example(sigma_f=1.0, tau1=1e308, tau2=0.0, mu=0.3)
    def test_matches_the_convolution_oracle_bit_for_bit(self, sigma_f, tau1,
                                                        tau2, mu):
        config = base_config(mode="classical", sigma_f=sigma_f, tau1=tau1,
                             tau2=tau2, mean_photon_number=mu)
        table = click_pattern_table(config)
        assert table.shape == (len(CLICK_PATTERNS),)
        assert ([float.hex(float(p)) for p in table]
                == [float.hex(float(p))
                    for p in click_pattern_table_by_convolution(config)])

    @pytest.mark.parametrize("overrides", [
        dict(sigma_f=0.0), dict(tau1=0.0, tau2=0.0),
        # the delay sum overflows, but zero detuning is zero phase
        dict(sigma_f=0.0, tau1=1e308, tau2=1e308)])
    @pytest.mark.parametrize("mu", [1e-4, 0.5, 0.9, 1.0])
    def test_dark_ports_never_click_at_zero_phase(self, overrides, mu):
        table = pattern_table(mean_photon_number=mu, **overrides)
        expected = {(): (1 - mu) ** 2, (1,): mu * (1 - mu),
                    (4,): mu * (1 - mu), (1, 4): mu * mu}
        for fired, p in table.items():
            if fired in expected:
                assert p == pytest.approx(expected[fired], abs=1e-15)
            else:
                assert p == 0.0
        if mu == 1.0:
            assert table[(1, 4)] == 1.0
            assert table[()] == table[(1,)] == table[(4,)] == 0.0

    def test_tiny_mu_keeps_the_four_click_pattern(self):
        # washed-out fringe: E[u^2 v^2] = 3/128, so four clicks have
        # probability 3 mu^4 / 128, about 2e-18 at mu = 1e-4
        mu = 1e-4
        table = pattern_table(mean_photon_number=mu, sigma_f=2e7)
        assert table[(1, 2, 3, 4)] == pytest.approx(3.0 * mu**4 / 128.0,
                                                    rel=1e-9)

    @pytest.mark.parametrize("sigma_f, tau", [(1e300, 1e10), (1.0, 1e308)])
    def test_overflowing_phase_reads_as_a_washed_out_fringe(self, sigma_f,
                                                            tau):
        # the fringe phase overflows a float; its mean cosine is then 0
        table = pattern_table(sigma_f=sigma_f, tau1=tau, tau2=tau)
        washed_out = pattern_table(sigma_f=1e12, tau1=1e-6, tau2=0.0)
        for fired, p in table.items():
            assert math.isfinite(p)
            assert p == pytest.approx(washed_out[fired], abs=1e-9)

    def test_overflowing_spread_at_zero_delay_is_a_full_fringe(self):
        # 3 sigma_f and 4 sigma_f overflow a float, yet with equal arms
        # every phase is zero: E[cos(m theta)] = 1, the limit of the
        # envelope, not 0 * inf = NaN
        assert pattern_table(sigma_f=1e308, tau1=0.0, tau2=0.0) == (
            pattern_table(sigma_f=0.0, tau1=0.0, tau2=0.0))

    def test_overflowing_spread_at_a_nonzero_delay_washes_out(self):
        assert pattern_table(sigma_f=1e308, tau1=1e-6, tau2=0.0) == (
            pattern_table(sigma_f=1e12, tau1=1e-6, tau2=0.0))

    def test_overflowing_spread_over_a_subnormal_delay(self):
        # m sigma_f overflows but the phase m sigma_f tau1 is about 2e-15:
        # the fringe is still full, not washed out for m = 3, 4 alone
        config = base_config(mode="classical", sigma_f=1e308, tau1=5e-324,
                             tau2=0.0, n_pairs=1000)
        table = dict(zip(CLICK_PATTERNS, click_pattern_table(config)))
        full = pattern_table(sigma_f=0.0, tau1=0.0, tau2=0.0)
        for fired, p in table.items():
            assert p == pytest.approx(full[fired], abs=1e-12)
        simulate_run(config)

    def test_vanishing_mu_leaves_no_probability_above_one(self):
        # no click at all has probability 1 - O(mu); the moments' rounding
        # used to put it an ulp above 1, which the multinomial refuses
        config = base_config(mode="classical", sigma_f=2e-6 * math.pi,
                             tau1=0.0, tau2=1.0, mean_photon_number=5e-324,
                             n_pairs=1)
        assert click_pattern_table(config)[0] == 1.0
        assert simulate_run(config).singles == {k: 0 for k in DETECTORS}

    @settings(max_examples=200, deadline=None)
    @given(sigma_f=st.floats(0.0, 1e8), tau1=st.floats(0.0, 5e-6),
           tau2=st.floats(0.0, 5e-6), mu=st.floats(1e-6, 1.0))
    def test_probabilities_and_marginals(self, sigma_f, tau1, tau2, mu):
        table = pattern_table(sigma_f=sigma_f, tau1=tau1, tau2=tau2,
                              mean_photon_number=mu)
        assert all(p >= 0.0 for p in table.values())
        assert abs(sum(table.values()) - 1.0) <= 1e-12

        m1 = fringe_visibility(sigma_f, tau1, tau2)
        for k, sign in ((1, 1.0), (2, -1.0), (3, -1.0), (4, 1.0)):
            marginal = sum(p for fired, p in table.items() if k in fired)
            assert marginal == pytest.approx(mu * (1.0 + sign * m1) / 2.0,
                                             abs=1e-12)
        # the fact the g2 = 1/2 floor rests on: <I1 I3> = (1 - E[c^2]) / 4
        mean_c2 = (1.0 + fringe_visibility(2.0 * sigma_f, tau1, tau2)) / 2.0
        pair = sum(p for fired, p in table.items()
                   if 1 in fired and 3 in fired)
        assert pair == pytest.approx(mu * mu * (1.0 - mean_c2) / 4.0,
                                     abs=1e-12)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        for mode in ("amplitude", "classical"):
            cfg = base_config(mode=mode, n_pairs=70_000, higher_order_ratio=0.01)
            assert simulate_run(cfg) == simulate_run(cfg)

    def test_filter_monotonicity(self):
        rng = np.random.default_rng(100)
        for seed in rng.integers(0, 2**63, size=25):
            off = simulate_run(base_config(
                seed=int(seed), n_pairs=20_000,
                higher_order_ratio=0.01, heterodyne_filter=False))
            on = simulate_run(base_config(
                seed=int(seed), n_pairs=20_000,
                higher_order_ratio=0.01, heterodyne_filter=True))
            assert on.singles == off.singles
            for pair in DETECTOR_PAIRS:
                assert on.coincidences[pair] <= off.coincidences[pair]


@st.composite
def run_configs(draw):
    """A RunConfig of either mode, filter on or off, zero jitter included."""
    mode = draw(st.sampled_from(["amplitude", "classical"]))
    return base_config(
        mode=mode,
        heterodyne_filter=draw(st.booleans()),
        sigma_f=draw(st.floats(0.0, 1e8)),
        tau1=draw(st.floats(0.0, 5e-6)),
        tau2=draw(st.floats(0.0, 5e-6)),
        mean_photon_number=draw(
            st.floats(1e-6, 1.0 if mode == "classical" else 5.0)),
        n_pairs=draw(st.integers(1, 50_000)),
        higher_order_ratio=draw(st.one_of(st.just(0.0),
                                          st.floats(0.0, 0.99))),
        pulse_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-7))),
        coincidence_window=draw(st.floats(1e-12, 1e-7)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


class TestEngineInvariants:
    @settings(max_examples=400, deadline=None)
    @given(run_configs())
    def test_counts_obey_the_funnel(self, config):
        counts = simulate_run(config)
        n = config.n_pairs
        assert counts.n_generated == n
        for i, j in DETECTOR_PAIRS:
            assert counts.coincidences[(i, j)] <= min(counts.singles[i],
                                                      counts.singles[j])
        total = sum(counts.coincidences.values())
        if config.mode == "classical":
            assert counts.n_postselected <= total
            return
        # two photons per slot, two more per accidental pair
        singles = sum(counts.singles.values())
        assert singles % 2 == 0 and 2 * n <= singles <= 4 * n
        assert counts.n_postselected == total
        if config.heterodyne_filter and config.higher_order_ratio == 0.0:
            for pair in ANTICORRELATED:
                assert counts.coincidences[pair] == 0


class TestG2Estimate:
    def test_zero_coincidences_reports_positive_bound(self):
        counts = CountsAccumulator.empty()
        counts.singles.update({1: 10, 2: 5, 3: 8, 4: 7})
        counts.n_generated = 100
        value, err = g2_estimate(counts, (1, 3))
        assert value == 0.0
        assert err == pytest.approx(100 / 80.0)

    def test_dead_detector_is_undefined(self):
        counts = CountsAccumulator.empty()
        counts.singles.update({1: 10, 3: 0})
        counts.n_generated = 100
        value, err = g2_estimate(counts, (1, 3))
        assert math.isnan(value) and math.isnan(err)

    def test_independent_bernoulli_gives_unity(self):
        rng = np.random.default_rng(200)
        n = 1_000_000
        a = rng.random(n) < 0.3
        b = rng.random(n) < 0.2
        counts = CountsAccumulator.empty()
        counts.singles[1] = int(a.sum())
        counts.singles[3] = int(b.sum())
        counts.coincidences[(1, 3)] = int((a & b).sum())
        counts.n_generated = n
        value, err = g2_estimate(counts, (1, 3))
        assert abs(value - 1.0) < 3.0 * err

    def test_pair_order_does_not_matter(self):
        counts = simulate_run(base_config(n_pairs=30_000))
        assert g2_estimate(counts, (4, 1)) == g2_estimate(counts, (1, 4))


class TestAccumulator:
    def test_merge_adds_everything(self):
        a = simulate_run(base_config(n_pairs=30_000, seed=1))
        b = simulate_run(base_config(n_pairs=30_000, seed=2))
        merged = CountsAccumulator.empty().merge(a).merge(b)
        for k in DETECTORS:
            assert merged.singles[k] == a.singles[k] + b.singles[k]
        for pair in DETECTOR_PAIRS:
            assert merged.coincidences[pair] == (
                a.coincidences[pair] + b.coincidences[pair])
        assert merged.n_generated == a.n_generated + b.n_generated


class TestScan:
    def test_points_in_order_with_derived_delays(self, monkeypatch):
        cfg = base_config(tau1=0.5e-6, n_pairs=10_000)
        values = [-2e-7, 0.0, 2e-7]
        received = []

        def recording(config):
            received.append(config)
            return simulate_run(config)

        monkeypatch.setattr(cohom.montecarlo, "simulate_run", recording)
        points = scan_tau21(cfg, values)
        assert [p.tau21 for p in points] == values
        assert len(received) == len(points)
        for p, config in zip(points, received):
            assert config.tau2 == pytest.approx(cfg.tau1 + p.tau21, abs=1e-18)
            assert p.counts.n_generated == cfg.n_pairs

    def test_reproducible_and_parallel_safe(self):
        cfg = base_config(n_pairs=20_000, higher_order_ratio=0.01)
        values = np.linspace(-1e-7, 1e-7, 5)
        serial = scan_tau21(cfg, values)
        again = scan_tau21(cfg, values)
        parallel = scan_tau21(cfg, values, workers=3)
        assert [p.counts for p in serial] == [p.counts for p in again]
        assert [p.counts for p in serial] == [p.counts for p in parallel]

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    @pytest.mark.parametrize("mode", ["amplitude", "classical"])
    def test_threaded_scan_equals_serial(self, mode, workers):
        cfg = base_config(n_pairs=5_000, higher_order_ratio=0.01, mode=mode)
        values = np.linspace(-1e-7, 1e-7, 5)
        assert scan_tau21(cfg, values, workers=workers) == scan_tau21(
            cfg, values)

    def test_threaded_scan_reraises_a_worker_exception(self, monkeypatch):
        cfg = base_config(n_pairs=1_000)
        values = np.linspace(-1e-7, 1e-7, 5)
        tau2 = [cfg.tau1 + value for value in values]
        # points 1 and 3 fail on different threads; the earlier one's
        # exception reaches the caller, as ThreadPoolExecutor.map gives it
        errors = {tau2[1]: RuntimeError("point 1"),
                  tau2[3]: RuntimeError("point 3")}

        def faulty(config):
            if config.tau2 in errors:
                raise errors[config.tau2]
            return simulate_run(config)

        monkeypatch.setattr(cohom.montecarlo, "simulate_run", faulty)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            scan_tau21(cfg, values, workers=3)
        assert excinfo.value is errors[tau2[1]]
        assert threading.active_count() == threads_before
        del errors[tau2[1]]
        with pytest.raises(RuntimeError) as excinfo:
            scan_tau21(cfg, values, workers=3)
        assert excinfo.value is errors[tau2[3]]

    def test_negative_delay_beyond_tau1_rejected(self):
        cfg = base_config(tau1=1e-7, n_pairs=1000)
        with pytest.raises(ConfigError) as err:
            scan_tau21(cfg, [-5e-7])
        assert err.value.field == "tau2"


def test_g2_estimate_type():
    counts = simulate_run(base_config(n_pairs=30_000))
    assert isinstance(g2_estimate(counts, (1, 4)), G2Estimate)
