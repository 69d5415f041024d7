"""Simulation of the four-detector coincidence bench.

Each simulated event is one doubly-bunched pair: two photons sharing a
coherence slot, a common detuning draw ``delta_f`` (the up-tagged photon
is shifted by +delta_f, the down-tagged one by -delta_f) and a common
random optical phase.  The joint path assignment of the two photons at
the first splitter (the *arm pair*) is uniform; conditioned on its path
tag, each photon propagates to the detectors with the port coefficients
of :data:`cohom.analytic.PORT_COEFFS`, the table the closed forms read.

Two simulation modes:

``amplitude``
    Two-photon pairing sums.  The detector-pair outcome of every pair
    follows the bosonic probability table built from the joint
    amplitudes ``A(a->Di) A(b->Dj) + A(a->Dj) A(b->Di)``; the cross-port
    cancellation makes D1-D3 (and D2-D4) coincidences impossible for
    cross-path pairs, so any surviving counts come from same-path
    leakage (removed by the heterodyne filter) or injected accidentals.
    The detuning, the delays and the optical phase enter the pairing
    sums only as unit-modulus factors, so the table is one fixed table
    per path class (cross-path or same-path), built once per process and
    shared read-only, and ``sigma_f``, ``tau1`` and ``tau2`` cannot move
    the counts.

``classical``
    Independent per-detector intensity sampling: every detector clicks
    with probability ``mean_photon_number * I_k(delta_f) / I0`` per
    slot.  This reproduces the classical coherent-light correlation
    floor g2 = 0.5 and calibrates the quantum-vs-classical contrast.
    Given the detuning the four clicks are independent, so a slot falls
    into one of 16 click patterns whose probabilities need only
    E[cos(m theta)], m = 1..4, of the fringe phase theta; under the
    Gaussian detuning those means are the ensemble fringe envelope of
    :mod:`cohom.analytic`.

Every count of a run, accidentals included, comes from one loop over two
tables of slot outcomes: the mode's (the 20 (path class, outcome) pairs
at half weight in amplitude mode, the 16 click patterns in classical
mode), then the six detector pairs at equal weight for the accidental
slots.  One multinomial over a table gives the singles, one binomial
window acceptance per two-detector outcome gives its coincidences, and
only outcomes with three or more clicks draw jitter stamps; their number
grows as ``n_pairs * mean_photon_number**3`` (under 3 % of the slots at
0.5).  They are drawn in blocks of at most ``CHUNK_SIZE`` slots merged as
each one finishes, so memory stays bounded by one block.  Otherwise the
cost of a run does not grow with ``n_pairs``.  The multinomial takes a
table's outcomes in ascending-probability order, because numpy gives its
last category whatever the others leave, rounding included: at 2**62
slots a rare last outcome, such as the four-click pattern on a dark
fringe, would otherwise collect hundreds of impossible counts.

Runs are deterministic: the same config gives the same counts.  A delay
scan derives one seed per point, so its points may run on any number of
threads without changing a count.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytic import fringe_visibility, local_intensity, pairing_rate

#: most slots a classical run draws jitter stamps for at once
CHUNK_SIZE = 32768

DETECTORS = (1, 2, 3, 4)
DETECTOR_PAIRS = tuple(itertools.combinations(DETECTORS, 2))

#: Unordered two-photon detector outcomes; (k, k) means both photons at D_k.
OUTCOMES = tuple(itertools.combinations_with_replacement(DETECTORS, 2))

#: The detectors that click in one classical slot, one entry per pattern.
CLICK_PATTERNS = tuple(
    tuple(k for k, fired in zip(DETECTORS, bits) if fired)
    for bits in itertools.product((False, True), repeat=len(DETECTORS)))

#: whether each detector (columns, in DETECTORS order) fires in each
#: click pattern (rows, in CLICK_PATTERNS order)
_PATTERN_FIRES = np.array([[k in fired for k in DETECTORS]
                           for fired in CLICK_PATTERNS])

#: numpy draws counts as int64, so no run may hold more pairs
_MAX_PAIRS = 2**63 - 1

_MODES = ("amplitude", "classical")


class ConfigError(ValueError):
    """Invalid run parameter; ``field`` names the offending parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(field: str, ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(field, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """All physical and numerical parameters of one simulation run.

    Angular quantities are in rad/s, times in seconds.  ``mean_photon_number``
    is the per-slot click scale used by classical mode (amplitude mode always
    propagates exactly one pair per event).
    """

    sigma_f: float
    tau1: float
    tau2: float
    mean_photon_number: float = 0.1
    n_pairs: int = 100_000
    higher_order_ratio: float = 0.01
    pulse_sigma: float = 1e-9
    coincidence_window: float = 8e-9
    seed: int = 0
    mode: str = "amplitude"
    heterodyne_filter: bool = True

    def __post_init__(self):
        _require("sigma_f", math.isfinite(self.sigma_f) and self.sigma_f >= 0,
                 "must be finite and >= 0")
        _require("tau1", math.isfinite(self.tau1) and self.tau1 >= 0,
                 "must be finite and >= 0")
        _require("tau2", math.isfinite(self.tau2) and self.tau2 >= 0,
                 "must be finite and >= 0")
        _require("mean_photon_number",
                 math.isfinite(self.mean_photon_number)
                 and self.mean_photon_number > 0,
                 "must be finite and > 0")
        _require("n_pairs",
                 _is_int(self.n_pairs) and 1 <= self.n_pairs <= _MAX_PAIRS,
                 "must be an integer in [1, 2**63 - 1]")
        _require("higher_order_ratio",
                 0.0 <= self.higher_order_ratio < 1.0, "must lie in [0, 1)")
        _require("pulse_sigma",
                 math.isfinite(self.pulse_sigma) and self.pulse_sigma >= 0,
                 "must be finite and >= 0")
        _require("coincidence_window",
                 math.isfinite(self.coincidence_window)
                 and self.coincidence_window > 0,
                 "must be finite and > 0")
        _require("seed", _is_int(self.seed) and self.seed >= 0,
                 "must be a non-negative integer")
        _require("mode", self.mode in _MODES, f"must be one of {_MODES}")
        _require("heterodyne_filter", isinstance(self.heterodyne_filter, bool),
                 "must be True or False")
        if self.mode == "classical":
            # Bernoulli click probability mu * I_k / I0 must not exceed 1
            # at the fringe maximum I_k = I0.
            _require("mean_photon_number", self.mean_photon_number <= 1.0,
                     "must be <= 1 in classical mode (click probability)")


def sample_detuning(rng, sigma_f, size) -> np.ndarray:
    """Draw ``size`` detunings from Normal(0, sigma_f^2)."""
    return rng.normal(0.0, sigma_f, size)


@functools.cache
def outcome_probability_table(cross_path: bool) -> np.ndarray:
    """Outcome probabilities over :data:`OUTCOMES` for one path class.

    The class is the cross-path arm pairs (UD, DU) or the same-path ones
    (UU, DD); the two arm pairs of a class give the same table.  The
    detuning, the delays and the optical phase enter the pairing sums
    only as unit-modulus factors, so each outcome's probability is its
    :func:`cohom.analytic.pairing_rate` over the arm coefficients of
    :data:`cohom.analytic.PORT_COEFFS`, halved for a double hit (the
    pairing sum counts the identical-mode term twice), then normalized.
    Every step is exact in floating point, so the tables are exact
    dyadics and every suppressed outcome is an exact 0.0.  Each table
    is built once per process; every caller gets the same read-only
    array.
    """
    # photon 1 on the up arm (0), photon 2 on the down arm (1) or the up one
    arm_2 = 1 if cross_path else 0
    weights = np.array([pairing_rate(i, j, 0, arm_2) / (2.0 if i == j else 1.0)
                        for i, j in OUTCOMES])
    table = weights / weights.sum()
    table.setflags(write=False)
    return table


#: E[u^i v^(4-i)], i = 0..4, as combinations of E[cos(m theta)], m = 0..4,
#: where u = (1 + cos theta)/2 and v = (1 - cos theta)/2.  The entries are
#: multiples of 1/128, so at theta = 0, where every E[cos] is 1.0, the
#: moments that vanish come out exactly 0.0.
_FRINGE_POWERS = np.array([
    [35, -56, 28, -8, 1],
    [5, -4, -4, 4, -1],
    [3, 0, -4, 0, 1],
    [5, 4, -4, -4, -1],
    [35, 56, 28, 8, 1],
]) / 128.0

#: (v, u) coefficients of each detector's click probability at mu = 1;
#: local_intensity at zero phase is 1 on the bright fringe and 0 on the
#: dark one
_CLICK_FORMS = np.array([[1.0 - bright, bright] for bright in (
    local_intensity(k, 0.0, 0.0, 0.0) for k in DETECTORS)])


def click_pattern_table(config) -> np.ndarray:
    """Probability of each classical click pattern over :data:`CLICK_PATTERNS`.

    Given the fringe phase theta = 2 delta_f (tau1 + tau2), detector k
    clicks independently with probability mu I_k: I_k is u on the bright
    ports (D1, D4) and v on the dark ones (D2, D3).  With u + v = 1 a
    miss is a non-negative form too, 1 - mu u = (1 - mu) u + v, so every
    pattern probability is a non-negative combination of the moments
    E[u^i v^(4-i)].  Under the Gaussian detuning E[cos(m theta)] is the
    fringe envelope at m sigma_f, :func:`cohom.analytic.fringe_visibility`.
    No probability can come out negative, and one that is zero in exact
    arithmetic (a dark port at theta = 0, a miss at mu = 1) is exactly
    0.0.
    """
    m = np.arange(1.0, 5.0)
    with np.errstate(over="ignore"):
        # the envelope needs only the phase m sigma_f (tau1 + tau2): where
        # m sigma_f overflows, m scales the delays instead
        scale = np.where(np.isinf(m * config.sigma_f), m, 1.0)
        cos_means = np.append(1.0, fringe_visibility(
            m / scale * config.sigma_f, scale * config.tau1,
            scale * config.tau2))
    # cancellation can leave a vanishing moment a rounding error below 0
    moments = np.maximum(_FRINGE_POWERS @ cos_means, 0.0)
    click = config.mean_photon_number * _CLICK_FORMS
    # each pattern's form per detector: the click form if the pattern
    # fires the detector, else the miss form
    forms = np.where(_PATTERN_FIRES[:, :, None], click, 1.0 - click)
    # one polynomial in (v, u) per pattern, all 16 multiplied by one
    # detector's form at a time; each coefficient is at most a two-term
    # sum, whose value does not depend on the order of its terms
    poly = np.zeros((len(CLICK_PATTERNS), len(DETECTORS) + 1))
    poly[:, 0] = 1.0
    for k in range(len(DETECTORS)):
        low, high = forms[:, k, :1], forms[:, k, 1:]
        poly[:, 1:] = poly[:, 1:] * low + poly[:, :-1] * high
        poly[:, :1] *= low
    # a probability that is 1 in exact arithmetic (no click at a
    # vanishing mu) can round an ulp above it
    return np.minimum([row @ moments for row in poly], 1.0)


def detector_convolve(true_time, rng, pulse_sigma) -> np.ndarray:
    """Smear an array of arrival times with Gaussian electrical-pulse jitter."""
    return true_time + rng.normal(0.0, pulse_sigma, np.shape(true_time))


def _window_acceptance(config) -> float:
    """Probability that two jittered stamps of one pair fall in the window.

    The stamp difference of two independent Gaussian jitters has standard
    deviation sqrt(2) * pulse_sigma, so ``|t1 - t2| <= W`` holds with
    probability erf(W / (2 pulse_sigma)).
    """
    if config.pulse_sigma == 0.0:
        return 1.0
    return math.erf(config.coincidence_window / (2.0 * config.pulse_sigma))


@dataclass
class CountsAccumulator:
    """Integer tallies of one run (or one mergeable slice of a run).

    ``n_postselected`` counts the kept events, accidental coincidences
    included, as no filter removes them; in amplitude mode it is the sum
    of the coincidences at any ``higher_order_ratio``.
    """

    singles: dict
    coincidences: dict
    n_generated: int = 0
    n_postselected: int = 0

    @staticmethod
    def empty() -> "CountsAccumulator":
        return CountsAccumulator(
            singles={k: 0 for k in DETECTORS},
            coincidences={p: 0 for p in DETECTOR_PAIRS},
        )

    def merge(self, other: "CountsAccumulator") -> "CountsAccumulator":
        """Add another accumulator into this one (commutative on ints)."""
        for k, v in other.singles.items():
            self.singles[k] = self.singles.get(k, 0) + v
        for p, v in other.coincidences.items():
            self.coincidences[p] = self.coincidences.get(p, 0) + v
        self.n_generated += other.n_generated
        self.n_postselected += other.n_postselected
        return self


class G2Estimate(NamedTuple):
    value: float
    stderr: float


def g2_estimate(counts: CountsAccumulator, pair) -> G2Estimate:
    """Normalized coincidence estimate C_ij * N / (s_i * s_j) with error.

    N is the number of generated slots, so statistically independent
    detectors give exactly 1 and the classical mode gives 0.5.  The
    standard error combines the Poisson/binomial fluctuations of the
    coincidence and singles counts; with zero coincidences the one-count
    resolution N / (s_i * s_j) is reported instead of a zero error bar.
    Undefined estimates (a dead detector) are returned as NaN.
    """
    i, j = sorted(pair)
    c = counts.coincidences[(i, j)]
    s_i = counts.singles[i]
    s_j = counts.singles[j]
    n = counts.n_generated
    if s_i == 0 or s_j == 0:
        return G2Estimate(math.nan, math.nan)
    value = c * n / (s_i * s_j)
    if c == 0:
        return G2Estimate(0.0, n / (s_i * s_j))
    stderr = value * math.sqrt(1.0 / c + 1.0 / s_i + 1.0 / s_j)
    return G2Estimate(value, stderr)


def _jittered_block(config, rng, fired, size) -> CountsAccumulator:
    """Window tests of ``size`` slots in which exactly ``fired`` clicked.

    Each fired detector gets its own jitter stamp, so the pairs of one
    slot pass or fail the window together; the slot is postselected when
    any of its pairs passes.
    """
    block = CountsAccumulator.empty()
    stamps = detector_convolve(np.zeros((size, len(fired))), rng,
                               config.pulse_sigma)
    kept = np.zeros(size, dtype=bool)
    # a stamp difference that overflows (inf, or inf - inf = NaN) is
    # outside the window
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, i), (b, j) in itertools.combinations(enumerate(fired), 2):
            sel = (np.abs(stamps[:, a] - stamps[:, b])
                   <= config.coincidence_window)
            block.coincidences[(i, j)] = int(np.count_nonzero(sel))
            kept |= sel
    block.n_postselected = int(np.count_nonzero(kept))
    return block


def _draw_counts(config, rng, n, entries, probs, acc) -> None:
    """Add the exact counts of ``n`` slots over one outcome table to ``acc``.

    ``entries`` pairs the detectors that click in an outcome (a double
    hit lists its detector twice) with whether postselection may keep
    it; ``probs`` holds their probabilities.  One multinomial over the
    entries gives the singles.  numpy's multinomial gives its last entry
    whatever the others leave, rounding included, so at large ``n`` a
    rare last entry would collect counts it cannot have; the multinomial
    therefore takes the entries in ascending-probability order, and the
    most probable one takes the remainder.  A zero-probability entry
    draws no random numbers, so it stays at exactly 0.  Two distinct
    clicks pass the window with the pair's acceptance, so each such entry
    needs one binomial, drawn in table order whether the entry is kept
    or not: a filter only ever removes counts from the same draws.
    Slots with three or more clicks draw their stamps in blocks of at
    most ``CHUNK_SIZE``.  This loop is the only code that turns
    probabilities into counts: a run calls it once for its slot table
    and once for :data:`_ACCIDENTALS`.
    """
    p_window = _window_acceptance(config)
    order = probs.argsort(kind="stable")
    hits = np.empty_like(order)
    hits[order] = rng.multinomial(n, probs[order])
    for (fired, kept), n_hit in zip(entries, hits.tolist()):
        for k in fired:
            acc.singles[k] += n_hit
        if len(fired) == 2 and fired[0] != fired[1]:
            n_kept = int(rng.binomial(n_hit, p_window))
            if kept:
                acc.coincidences[fired] += n_kept
                acc.n_postselected += n_kept
        elif len(fired) > 2:
            for start in range(0, n_hit, CHUNK_SIZE):
                block = _jittered_block(config, rng, fired,
                                        min(CHUNK_SIZE, n_hit - start))
                if kept:
                    acc.merge(block)


#: Higher-order bunching as (entries, probs): one extra photon pair on a
#: uniformly chosen detector pair, which carries no beat note, so the
#: heterodyne filter keeps it.
_ACCIDENTALS = ([(pair, True) for pair in DETECTOR_PAIRS],
                np.full(len(DETECTOR_PAIRS), 1.0 / len(DETECTOR_PAIRS)))


def simulate_run(config: RunConfig) -> CountsAccumulator:
    """Run the full simulation described by ``config``.

    Classical mode draws over the click patterns, all kept.  Amplitude
    mode draws over the outcomes of both path classes, each class at
    half weight; the heterodyne filter keeps only the cross-path class.
    A binomial at ``higher_order_ratio`` then picks the contaminated
    slots, whose accidental pairs are drawn over :data:`_ACCIDENTALS`.
    The counts of the whole run come from one generator seeded with
    ``config.seed``, so the outcome is bit-identical across reruns with
    the same config.
    """
    if config.mode == "classical":
        entries = [(fired, True) for fired in CLICK_PATTERNS]
        probs = click_pattern_table(config)
    else:
        entries = [(outcome, cross_path or not config.heterodyne_filter)
                   for cross_path in (True, False) for outcome in OUTCOMES]
        probs = np.concatenate([outcome_probability_table(cross_path) / 2.0
                                for cross_path in (True, False)])
    # the stream of default_rng(seed), without its wrapper's cost
    rng = np.random.Generator(np.random.PCG64(config.seed))
    acc = CountsAccumulator.empty()
    acc.n_generated = config.n_pairs
    _draw_counts(config, rng, config.n_pairs, entries, probs, acc)
    n_acc = int(rng.binomial(config.n_pairs, config.higher_order_ratio))
    _draw_counts(config, rng, n_acc, *_ACCIDENTALS, acc)
    return acc


class ScanPoint(NamedTuple):
    """One scan position: the delay difference and its counts.  The point
    ran the run's config at tau2 = tau1 + tau21, under a seed derived
    from the run's (see :func:`scan_tau21`)."""

    tau21: float
    counts: CountsAccumulator


def checked_tau21(config: RunConfig, tau21_values) -> np.ndarray:
    """``tau21_values`` as floats, once :class:`RunConfig`'s tau2 rule
    accepts the smallest and the largest delay tau2 = tau1 + tau21, which
    bound every other; a NaN carries through both.  Python floats sum
    them, so an overflow is an infinite tau2, not numpy's warning."""
    tau21 = np.asarray(tau21_values, dtype=float)
    for extreme in (tau21.min(initial=0.0), tau21.max(initial=0.0)):
        replace(config, tau2=config.tau1 + float(extreme))
    return tau21


def scan_tau21(config: RunConfig, tau21_values, workers: int = 1) -> list:
    """The scan points of the delays tau21 = tau2 - tau1, in their order.

    After :func:`checked_tau21`, point i runs at tau2 = tau1 + tau21 under
    a seed from the i-th child of ``SeedSequence(config.seed)``, both built
    when it runs.  The calling thread is one of the w ``workers`` and runs
    points 0, w, 2w, ...; w - 1 plain threads (not ``concurrent.futures``,
    which imports ``logging``) run the other strides.  A worker stops at
    its first exception; once all have joined, the earliest failed point's
    exception is raised, as ``ThreadPoolExecutor.map`` does.
    """
    values = checked_tau21(config, tau21_values).tolist()
    points = [None] * len(values)
    failures = {}
    stride = max(1, min(workers, len(values)))

    def run(first):
        for i in range(first, len(values), stride):
            try:
                child = np.random.SeedSequence(config.seed, spawn_key=(i,))
                seed = int(child.generate_state(1, np.uint64)[0])
                points[i] = ScanPoint(values[i], simulate_run(replace(
                    config, tau2=config.tau1 + values[i], seed=seed)))
            except BaseException as exc:  # re-raised in the caller
                failures[i] = exc
                return

    threads = [threading.Thread(target=run, args=(first,))
               for first in range(1, stride)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return points
