"""Correctness gate: every CLI output is checked against the paper's physics.

Expected values come from the closed forms in :mod:`cohom.analytic` plus the
higher-order accidental term; tolerances come from the variance of the
counts themselves.  Each compared number gets the half-width that
Bernstein's inequality gives for a false alarm probability of
``FALSE_ALARM``, so a correct program fails the gate with probability at
most ``FALSE_ALARM`` times the numbers compared (a few thousand per run),
whatever the seed.

The gate parses the output itself rather than through :mod:`cohom.benchio`,
so a change to the program's reader cannot hide a change to its writer.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from cohom.analytic import (
    classical_baseline_g2,
    coincidence_r13,
    coincidence_r24,
    ensemble_intensity,
    fringe_visibility,
)

FALSE_ALARM = 1e-10

RESULT_COLUMNS = ("tau21_s", "I1", "I2", "I3", "I4", "R13", "R24",
                  "g2_13", "g2_13_err", "g2_24", "g2_24_err",
                  "n_coinc_13", "n_coinc_24")
REPORT_COLUMNS = ("check", "status", "measured", "tolerance", "detail")

_LOG_TERM = math.log(2.0 / FALSE_ALARM)
#: Gaussian-limit multiplier of the same false alarm probability, for ratios
_Z = math.sqrt(2.0 * _LOG_TERM)
_FRINGE_PAIRS = ((1, 3, coincidence_r13), (2, 4, coincidence_r24))


def tolerance(variance: float, step: float) -> float:
    """Half-width t with P(|S - E[S]| >= t) <= FALSE_ALARM (Bernstein).

    ``S`` is a sum of independent terms, each within ``step`` of its mean,
    with total variance ``variance``.
    """
    a = step * _LOG_TERM / 3.0
    return a + math.sqrt(a * a + 2.0 * variance * _LOG_TERM)


def window_acceptance(params: dict) -> float:
    """P(|t_i - t_j| <= W) for two stamps with independent Gaussian jitter."""
    sigma = params["pulse_sigma_s"]
    if sigma == 0:
        return 1.0
    return math.erf(params["coincidence_window_s"] / (2.0 * sigma))


def check_output(command: str, params, text: str) -> list:
    """Failure messages for one CLI output; empty when it passes."""
    try:
        if command == "validate":
            return _check_report(text)
        rows = parse_rows(text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    if command == "scan":
        failures = _check_grid(params, [row["tau21_s"] for row in rows])
        taus = [params["tau1_s"] + row["tau21_s"] for row in rows]
    else:
        failures = [] if len(rows) == 1 else [f"{len(rows)} rows, want 1"]
        taus = [params["tau2_s"]] * len(rows)
    check_row = (_check_classical if params["mode"] == "classical"
                 else _check_amplitude)
    for index, (row, tau2) in enumerate(zip(rows, taus)):
        failures += [f"row {index}: {msg}"
                     for msg in check_row(row, params, tau2)]
    return failures


def parse_rows(text: str) -> list:
    """Result CSV as dicts of numbers; raises ValueError when malformed."""
    records = list(csv.reader(io.StringIO(text)))
    if not records or tuple(records[0]) != RESULT_COLUMNS:
        raise ValueError("result CSV header differs")
    rows = []
    for record in records[1:]:
        if len(record) != len(RESULT_COLUMNS):
            raise ValueError(f"{len(record)} columns in a row")
        row = {name: float(value)
               for name, value in zip(RESULT_COLUMNS, record)}
        row["n_coinc_13"] = int(record[-2])
        row["n_coinc_24"] = int(record[-1])
        rows.append(row)
    return rows


def _check_report(text: str) -> list:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != REPORT_COLUMNS:
        return ["validate report header differs"]
    if len(lines) < 2:
        return ["validate report has no checks"]
    return [f"check {fields[0]} reports {fields[1]}"
            for fields in (line.split(",", 4) for line in lines[1:])
            if len(fields) < 2 or fields[1] != "pass"]


def _check_grid(params: dict, observed: list) -> list:
    expected = np.linspace(params["tau21_scan_start_s"],
                           params["tau21_scan_stop_s"],
                           params["tau21_scan_steps"])
    if len(observed) != len(expected):
        return [f"{len(observed)} scan rows, want {len(expected)}"]
    # the CSV carries 12 significant digits
    scale = abs(expected[-1] - expected[0]) / len(expected)
    off = [i for i, (o, e) in enumerate(zip(observed, expected))
           if abs(o - e) > 1e-11 * (abs(e) + scale)]
    if off:
        return [f"scan rows out of grid order from row {off[0]}"]
    return []


def _bernoulli_sum(probs):
    """Per-trial mean, variance and step of a sum of independent
    Bernoulli terms with the given probabilities."""
    return (sum(probs), sum(p * (1.0 - p) for p in probs),
            float(len(probs)))


def _mean_failure(name, observed, trials, mean, variance, step):
    """A per-trial mean of ``trials`` independent terms of the given mean
    and variance; returns a message when it lies outside the tolerance."""
    tol = tolerance(trials * variance, step) / trials
    if abs(observed - mean) > tol:
        return [f"{name} = {observed!r}, expected {mean:.12g} "
                f"+- {tol:.6g}"]
    return []


def _check_rates(row, n):
    """R columns are the raw counts per generated pair."""
    return [f"R{i}{j} = {row[f'R{i}{j}']!r} is not n_coinc_{i}{j} / n"
            for i, j, _ in _FRINGE_PAIRS
            if abs(row[f"R{i}{j}"] * n - row[f"n_coinc_{i}{j}"])
            > 1e-10 * max(row[f"n_coinc_{i}{j}"], 1)]


def _check_amplitude(row, params, tau2):
    """Amplitude mode with the heterodyne filter on.

    Cross-path pairs reach D1-D3 and D2-D4 with the exact rates of
    :func:`coincidence_r13` / :func:`coincidence_r24` (zero); the filter
    drops same-path pairs, so only accidentals remain: a fraction h of the
    pairs lands on one of the six detector pairs and survives the window.
    A generated pair puts both photons on port k with probability 3/32
    and one photon with probability 5/16 (cross- and same-path sectors
    averaged), so singles/n has mean 1/2 and per-pair variance 7/16;
    accidentals add one photon to port k with probability h/2.
    """
    n = params["n_pairs"]
    h = params["higher_order_ratio"]
    sigma = 2.0 * math.pi * params["sigma_f_hz"]
    accidental = h / 6.0 * window_acceptance(params)
    detunings = np.linspace(-4.0 * sigma, 4.0 * sigma, 9)
    failures = []
    for i, j, rate in _FRINGE_PAIRS:
        exact = float(np.max(rate(detunings, params["tau1_s"], tau2)))
        failures += _mean_failure(
            f"n_coinc_{i}{j}/n", row[f"n_coinc_{i}{j}"] / n, n,
            *_bernoulli_sum([exact, accidental]))
    singles_var = 7.0 / 16.0 + h / 2.0 * (1.0 - h / 2.0)
    for k in (1, 2, 3, 4):
        failures += _mean_failure(f"I{k}", row[f"I{k}"], n, (1.0 + h) / 2.0,
                                  singles_var, step=3.0)
    return failures + _check_rates(row, n)


def _check_classical(row, params, tau2):
    """Classical mode: port k clicks with probability mu*I_k(delta) per slot.

    For the fringe pairs I_i*I_j = (1 - cos 2phi)/8, whose ensemble mean is
    the uniform-phase floor ``classical_baseline_g2() / 4`` scaled by
    ``1 - V(2 sigma)``; with the accidental term that fixes the expected
    coincidences, singles and g2.  The detuning draw is truncated at
    4 sigma, which moves these means by less than 1e-4 of themselves.
    """
    n = params["n_pairs"]
    h = params["higher_order_ratio"]
    mu = params["mean_photon_number"]
    p_w = window_acceptance(params)
    sigma = 2.0 * math.pi * params["sigma_f_hz"]
    tau1 = params["tau1_s"]
    singles = {}
    failures = []
    for k in (1, 2, 3, 4):
        click = mu * ensemble_intensity(k, sigma, tau1, tau2)
        singles[k] = _bernoulli_sum([click, h / 2.0])
        failures += _mean_failure(f"I{k}*mu", row[f"I{k}"] * mu, n,
                                  *singles[k])
    pair_mean = (classical_baseline_g2()
                 * (1.0 - fringe_visibility(2.0 * sigma, tau1, tau2)) / 4.0)
    for i, j, _ in _FRINGE_PAIRS:
        coinc = _bernoulli_sum([mu * mu * pair_mean * p_w, h / 6.0 * p_w])
        failures += _mean_failure(f"n_coinc_{i}{j}/n",
                                  row[f"n_coinc_{i}{j}"] / n, n, *coinc)
        # delta method on g2 = c / (s_i s_j), all three as per-slot means
        g2 = coinc[0] / (singles[i][0] * singles[j][0])
        spread = g2 * math.sqrt(sum(var / (n * mean * mean) for mean, var, _
                                    in (coinc, singles[i], singles[j])))
        if abs(row[f"g2_{i}{j}"] - g2) > _Z * spread:
            failures.append(f"g2_{i}{j} = {row[f'g2_{i}{j}']!r}, expected "
                            f"{g2:.6g} +- {_Z * spread:.3g}")
    return failures + _check_rates(row, n)
