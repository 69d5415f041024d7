"""Closed-form engine checks against independent oracles.

Oracles used here: the optics pipeline itself (for field/intensity
consistency), scipy quadrature (for Gaussian ensemble averages), and
explicit two-term complex sums (for the cross-port cancellations).
"""

import cmath
import csv
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from cohom.analytic import (
    _PORT_COEFFS,
    _PORT_SIGN,
    ComboClass,
    PairMark,
    classical_baseline_g2,
    coincidence_r13,
    coincidence_r24,
    ensemble_intensity,
    enumerate_combinations,
    fringe_visibility,
    local_intensity,
    pair_chart,
)
from cohom.cli import main
from cohom.optics import (
    PathTag,
    Polarization,
    bench_detector_fields,
    detector_path_coefficients,
    intensity,
)

SQRT2 = math.sqrt(2.0)


class TestPortFields:
    """The bench pipeline's port fields, read at the closed forms'
    bright-source normalization (sqrt(2) times the single-photon field)."""

    def test_h_and_v_ports_are_pure(self):
        fields = bench_detector_fields(1.3e6, 0.4e-6, 0.9e-6)
        for k in (1, 3):
            f = fields[k]
            assert f.amps[2] == 0 and f.amps[3] == 0
        for k in (2, 4):
            f = fields[k]
            assert f.amps[0] == 0 and f.amps[1] == 0

    def test_components_have_magnitude_half(self):
        fields = bench_detector_fields(2.4e6, 1.1e-6, 0.3e-6)
        for k in (1, 2, 3, 4):
            mags = sorted(SQRT2 * abs(a) for a in fields[k].amps if a != 0)
            assert len(mags) == 2
            assert all(abs(m - 0.5) < 1e-12 for m in mags)

    def test_table_is_pipeline_at_origin(self):
        """The closed forms' one table is the pipeline at zero offset."""
        coeff = detector_path_coefficients(0.0, 0.0, 0.0)
        for k, (up, down) in _PORT_COEFFS.items():
            assert abs(up - SQRT2 * coeff[k][PathTag.U]) < 1e-15
            assert abs(down - SQRT2 * coeff[k][PathTag.D]) < 1e-15
        assert _PORT_SIGN == {1: 1.0, 2: -1.0, 3: -1.0, 4: 1.0}

    def test_agrees_with_bench_pipeline_up_to_port_scale(self):
        """The coefficient table times the offset phases e^{+-i df T},
        T = tau1 + tau2, is the pipeline's per-arm amplitude times exactly
        sqrt(2) (the closed form is the bright-source normalization, the
        pipeline is single-photon unitary), with no free phase."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            delta_f = rng.uniform(-5e6, 5e6)
            tau1, tau2 = rng.uniform(0, 4e-6, size=2)
            up_phase = cmath.exp(1j * delta_f * (tau1 + tau2))
            coeff = detector_path_coefficients(delta_f, tau1, tau2)
            for k, (up, down) in _PORT_COEFFS.items():
                got_up = SQRT2 * coeff[k][PathTag.U]
                got_down = SQRT2 * coeff[k][PathTag.D]
                assert abs(up * up_phase - got_up) < 1e-12
                assert abs(down * up_phase.conjugate() - got_down) < 1e-12

    def test_energy_conserved_across_final_splitters(self):
        # each polarization pair sums to I0 exactly
        rng = np.random.default_rng(22)
        for _ in range(50):
            delta_f = rng.uniform(-5e6, 5e6)
            tau1, tau2 = rng.uniform(0, 4e-6, size=2)
            fields = bench_detector_fields(delta_f, tau1, tau2)
            i_h = 2.0 * (intensity(fields[1]) + intensity(fields[3]))
            i_v = 2.0 * (intensity(fields[2]) + intensity(fields[4]))
            assert abs(i_h - 1.0) < 1e-12
            assert abs(i_v - 1.0) < 1e-12


class TestLocalIntensity:
    def test_matches_field_intensity_on_grid(self):
        """Oracle: optics-level intensity of the bench pipeline's fields."""
        deltas = np.linspace(-4e6, 4e6, 10)
        taus = np.linspace(0.05e-6, 3e-6, 10)
        worst = 0.0
        for df in deltas:
            for t1 in taus:
                for t2 in taus:
                    fields = bench_detector_fields(df, t1, t2)
                    for k in (1, 2, 3, 4):
                        via_field = 2.0 * intensity(fields[k])
                        direct = local_intensity(k, df, t1, t2)
                        ref = max(abs(via_field), 1e-300)
                        worst = max(worst, abs(via_field - direct) / max(ref, 1e-3))
        assert worst < 1e-12

    def test_port_pairs_sum_to_i0(self):
        rng = np.random.default_rng(23)
        df = rng.uniform(-8e6, 8e6, size=1000)
        t1 = rng.uniform(0, 4e-6, size=1000)
        t2 = rng.uniform(0, 4e-6, size=1000)
        s13 = local_intensity(1, df, t1, t2) + local_intensity(3, df, t1, t2)
        s24 = local_intensity(2, df, t1, t2) + local_intensity(4, df, t1, t2)
        assert np.max(np.abs(s13 - 1.0)) < 1e-15
        assert np.max(np.abs(s24 - 1.0)) < 1e-15

    def test_even_in_detuning_sign(self):
        # swapping which photon carries +delta_f must change nothing
        df = np.linspace(-5e6, 5e6, 101)
        for k in (1, 2, 3, 4):
            a = local_intensity(k, df, 1e-6, 2e-6)
            b = local_intensity(k, -df, 1e-6, 2e-6)
            assert np.array_equal(a, b)


class TestEnsembleIntensity:
    def quad_oracle(self, sigma, t1, t2):
        """Numerical Gaussian average of cos(2 delta_f (t1+t2))."""
        T = t1 + t2

        def integrand(x):
            return math.cos(2.0 * x * T) * math.exp(-0.5 * (x / sigma) ** 2)

        span = 8.0 * sigma
        val, _ = integrate.quad(integrand, -span, span, limit=400)
        return val / (sigma * math.sqrt(2.0 * math.pi))

    def test_matches_quadrature(self):
        for x in [0.0, 0.1, 0.3, 0.5, 0.9, 1.3, 1.52, 2.0, 3.0]:
            sigma = 1.1e6
            total = x / sigma
            t1 = 0.4 * total
            t2 = 0.6 * total
            envelope = self.quad_oracle(sigma, t1, t2)
            for k, sign in ((1, +1), (2, -1), (3, -1), (4, +1)):
                want = 0.5 * (1.0 + sign * envelope)
                got = ensemble_intensity(k, sigma, t1, t2)
                assert abs(got - want) < 1e-6

    def test_halfwidth_point_visibility(self):
        # sigma*(tau1+tau2) = 0.5 puts the envelope at e^{-1/2}
        sigma = 2.0e6
        t1 = t2 = 0.25 * 0.5 / sigma * 2
        got = fringe_visibility(sigma, t1, t2)
        want = self.quad_oracle(sigma, t1, t2)
        assert abs(got - want) < 1e-6
        assert abs(got - math.exp(-0.5)) < 1e-12

    def test_uniform_limit_below_one_percent(self):
        for x in [1.52, 1.6, 2.0, 5.0, 20.0]:
            sigma = 1e6
            t = x / sigma / 2
            for k in (1, 2, 3, 4):
                dev = abs(ensemble_intensity(k, sigma, t, t) - 0.5) / 0.5
                assert dev < 0.01

    def test_deviation_monotone_in_spread(self):
        sigmas = np.linspace(1e4, 5e6, 200)
        dev = np.abs(ensemble_intensity(1, sigmas, 1e-6, 1e-6) - 0.5)
        assert np.all(np.diff(dev) <= 1e-18)


class TestCoincidences:
    def test_pairing_sum_oracle_is_zero(self):
        """Oracle: explicit two-term sum from the pipeline's per-arm
        coefficients."""
        rng = np.random.default_rng(24)
        up, down = PathTag.U, PathTag.D
        for _ in range(200):
            df = rng.uniform(-8e6, 8e6)
            t1, t2 = rng.uniform(0, 5e-6, size=2)
            c = detector_path_coefficients(df, t1, t2)
            amp13 = c[1][up] * c[3][down] + c[1][down] * c[3][up]
            amp24 = c[2][up] * c[4][down] + c[2][down] * c[4][up]
            assert abs(amp13) == 0.0
            assert abs(amp24) == 0.0
            assert coincidence_r13(df, t1, t2) == 0.0
            assert coincidence_r24(df, t1, t2) == 0.0

    def test_zero_on_dense_grid(self):
        df = np.linspace(-6e6, 6e6, 50)
        t1 = np.linspace(0, 4e-6, 50)
        t2 = np.linspace(0, 4e-6, 50)
        grid = np.meshgrid(df, t1, t2, indexing="ij")
        r13 = coincidence_r13(*grid)
        r24 = coincidence_r24(*grid)
        assert float(np.max(np.abs(r13))) < 1e-12
        assert float(np.max(np.abs(r24))) < 1e-12


class TestOverflowingPhase:
    """A phase past the float range reads as a washed-out fringe."""

    @pytest.mark.parametrize("sigma_f, tau", [(2.0 * math.pi * 1e299, 1e10),
                                              (1.0, 1e308)])
    def test_closed_forms(self, sigma_f, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fringe_visibility(sigma_f, tau, tau) == 0.0
            for k in (1, 2, 3, 4):
                assert ensemble_intensity(k, sigma_f, tau, tau) == 0.5
            assert coincidence_r13(sigma_f, tau, tau) == 0.0
            assert coincidence_r24(sigma_f, tau, tau) == 0.0
            # one overflowing entry leaves the rest of a grid alone
            delays = np.array([tau, 1e-6])
            r13 = coincidence_r13(sigma_f, delays, delays)
            assert r13[0] == 0.0 and abs(r13[1]) < 1e-12

    def test_analytic_command(self, tmp_path, capsys):
        config = tmp_path / "overflow.ini"
        config.write_text("[bench]\nsigma_f_hz = 1e299\ntau1_s = 1e10\n"
                          "tau21_scan_start_s = 0\ntau21_scan_stop_s = 1e-6\n"
                          "tau21_scan_steps = 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        for row in rows:
            assert row["R13"] == row["R24"] == "0"
            assert [row[f"I{k}"] for k in (1, 2, 3, 4)] == ["0.5"] * 4


class TestClassicalBaseline:
    def test_quadrature_oracle(self):
        def num(f):
            val, _ = integrate.quad(f, 0.0, 2.0 * math.pi, limit=200)
            return val / (2.0 * math.pi)

        i1i3 = num(lambda t: 0.25 * (1 + math.cos(t)) * (1 - math.cos(t)))
        i1 = num(lambda t: 0.5 * (1 + math.cos(t)))
        i3 = num(lambda t: 0.5 * (1 - math.cos(t)))
        assert abs(classical_baseline_g2() - i1i3 / (i1 * i3)) < 1e-12


class TestComboTable:
    def test_sixteen_rows(self):
        rows = enumerate_combinations()
        assert len(rows) == 16
        keys = {(r.path_1, r.path_2, r.pol_1, r.pol_2) for r in rows}
        assert len(keys) == 16

    def test_classification_counts(self):
        rows = enumerate_combinations()
        by_class = {}
        for r in rows:
            by_class.setdefault(r.classification, []).append(r)
        assert len(by_class[ComboClass.SAME_PATH_EXCLUDED]) == 8
        assert len(by_class[ComboClass.SINGLE_PORT_EXCLUDED]) == 4
        assert len(by_class[ComboClass.CROSS_PATH_KEPT]) == 4

    def test_kept_rows_are_parallel_polarizations(self):
        for r in enumerate_combinations():
            if r.classification is ComboClass.CROSS_PATH_KEPT:
                assert r.path_1 is not r.path_2
                assert r.pol_1 is r.pol_2
                assert len(r.port_a) == 1 and len(r.port_b) == 1

    def test_example_cross_path_h_h(self):
        rows = enumerate_combinations()
        row = next(
            r
            for r in rows
            if r.path_1 is PathTag.U
            and r.path_2 is PathTag.D
            and r.pol_1 is Polarization.H
            and r.pol_2 is Polarization.H
        )
        assert row.classification is ComboClass.CROSS_PATH_KEPT
        assert row.port_b == ("H_1^U",)
        assert row.port_a == ("H_2^D",)

    def test_example_same_path_up_up(self):
        rows = enumerate_combinations()
        row = next(
            r
            for r in rows
            if r.path_1 is PathTag.U
            and r.path_2 is PathTag.U
            and r.pol_1 is Polarization.H
            and r.pol_2 is Polarization.H
        )
        assert row.classification is ComboClass.SAME_PATH_EXCLUDED
        # both photons sit in port B (the up-arm H side); port A is empty
        assert row.port_a == ()
        assert row.port_b == ("H_1^U", "H_2^U")


# The published 4x4 chart, frozen cell-for-cell: rows H_1^U, H_2^U, V_1^D,
# V_2^D against columns H_1^D, H_2^D, V_1^U, V_2^U.
CHART_ORACLE = [
    ["1", "1", "", "1d"],
    ["1", "", "1d", ""],
    ["", "1d", "1", "1"],
    ["1d", "", "1", ""],
]


class TestPairChart:
    def test_cell_for_cell(self):
        chart = pair_chart()
        got = [[m.value for m in row] for row in chart.cells]
        assert got == CHART_ORACLE

    def test_labels(self):
        chart = pair_chart()
        assert chart.row_labels == ("H_1^U", "H_2^U", "V_1^D", "V_2^D")
        assert chart.col_labels == ("H_1^D", "H_2^D", "V_1^U", "V_2^U")

    def test_correlated_cells_are_same_pol_opposite_offset(self):
        chart = pair_chart()
        for i, row_label in enumerate(chart.row_labels):
            for j, col_label in enumerate(chart.col_labels):
                mark = chart.cells[i][j]
                r_pol, r_path = row_label[0], row_label[-1]
                c_pol, c_path = col_label[0], col_label[-1]
                if mark is PairMark.CORRELATED:
                    assert r_pol == c_pol and r_path != c_path
                if mark is PairMark.DELTA:
                    assert r_pol != c_pol and r_path == c_path

    def test_dict_round_trip(self):
        chart = pair_chart()
        d = chart.to_dict()
        assert d["cells"] == CHART_ORACLE
        assert d["row_labels"] == list(chart.row_labels)
