"""Element-level checks: oracles are direct matrix products built in-test."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohom.optics import (
    PathAssignmentError,
    PathTag,
    bench_detector_fields,
    bs_transform,
    detector_path_coefficients,
    detune_phase,
    from_jones,
    hwp_transform,
    intensity,
    nmzi_transfer,
    pbs_route,
    total_norm,
    vacuum,
    with_path,
)
from cohom.validation import outcome_probabilities, pair_amplitudes

SQRT2 = math.sqrt(2.0)


def random_field(rng) -> np.ndarray:
    re = rng.standard_normal(4)
    im = rng.standard_normal(4)
    return re + 1j * im


def hwp_oracle(h, v, theta):
    """R(-t) . diag(1,-1) . R(t) applied as an explicit matrix product."""
    t = theta
    rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    mat = rot.T @ np.diag([1.0, -1.0]) @ rot
    return mat @ np.array([h, v])


class TestHwp:
    def test_equal_superposition_at_22p5_deg(self):
        theta = math.pi / 8
        out = hwp_transform(from_jones(1.0, 0.0), theta)
        expect_h, expect_v = hwp_oracle(1.0, 0.0, theta)
        assert abs(out[0] - expect_h) < 1e-12
        assert abs(out[2] - expect_v) < 1e-12
        # both components at 1/sqrt2
        assert abs(out[0] - 1 / SQRT2) < 1e-12
        assert abs(out[2] - 1 / SQRT2) < 1e-12

    def test_matches_matrix_oracle_any_angle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = rng.uniform(0, 2 * math.pi)
            h, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            out = hwp_transform(from_jones(h, v), theta)
            eh, ev = hwp_oracle(h, v, theta)
            assert abs(out[0] - eh) < 1e-12
            assert abs(out[2] - ev) < 1e-12

    def test_self_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta = rng.uniform(0, math.pi)
            fld = random_field(rng)
            back = hwp_transform(hwp_transform(fld, theta), theta)
            assert all(abs(a - b) < 1e-12 for a, b in zip(back, fld))


class TestBs:
    def test_destructive_port_oracle(self):
        # oracle: direct 2x2 complex matrix-vector product
        mat = np.array([[1j, 1.0], [1.0, 1j]]) / SQRT2
        vec = np.array([1 / SQRT2, -1j / SQRT2])
        expect = mat @ vec
        a = from_jones(1 / SQRT2, 0.0)
        b = from_jones(-1j / SQRT2, 0.0)
        out1, out2 = bs_transform(a, b)
        assert abs(out1[0] - expect[0]) < 1e-12
        assert abs(out2[0] - expect[1]) < 1e-12
        assert abs(out1[0]) < 1e-12  # dark port
        assert abs(abs(out2[0]) - 1.0) < 1e-12  # bright port takes it all

    def test_twice_is_i_times_swap(self):
        # the convention out1=(ia+b)/sqrt2 squares to i * SWAP, not i * identity
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_field(rng), random_field(rng)
            o1, o2 = bs_transform(a, b)
            oo1, oo2 = bs_transform(o1, o2)
            for x, y in zip(oo1, b):
                assert abs(x - 1j * y) < 1e-12
            for x, y in zip(oo2, a):
                assert abs(x - 1j * y) < 1e-12

    def test_norm_conserved(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a, b = random_field(rng), random_field(rng)
            o1, o2 = bs_transform(a, b)
            before = total_norm(a) + total_norm(b)
            after = total_norm(o1) + total_norm(o2)
            assert abs(before - after) < 1e-12


class TestPbs:
    def test_pure_v_reflects_with_phase_i(self):
        a = from_jones(0.0, 1.0)
        port1, port2 = pbs_route(a, vacuum())
        assert total_norm(port1) < 1e-30
        assert abs(port2[2] - 1j) < 1e-12

    def test_componentwise_routing_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_field(rng), random_field(rng)
            port1, port2 = pbs_route(a, b)
            # oracle: H (modes 0, 1) passes straight through, V (modes
            # 2, 3) reflects with i
            for i in (0, 1):
                assert port1[i] == a[i]
                assert port2[i] == b[i]
            for i in (2, 3):
                assert port1[i] == 1j * b[i]
                assert port2[i] == 1j * a[i]

    def test_polarization_separation_is_exact(self):
        rng = np.random.default_rng(12)
        a, b = random_field(rng), random_field(rng)
        port1, port2 = pbs_route(a, b)
        # port 1 H content comes only from a, V content only from b
        assert port1[0] == a[0] and port1[1] == a[1]
        assert port2[0] == b[0] and port2[1] == b[1]


class TestDetunePhase:
    def test_pi_phase_flips_sign(self):
        fld = (1.0 + 0j, 0j, 0j, 0j)  # H^U
        out = detune_phase(fld, math.pi, 1.0)  # delta_f * tau = pi
        assert abs(out[0] + 1.0) < 1e-12

    def test_opposite_signs_up_down(self):
        fld = (1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
        delta_f, tau = 3.7, 0.21
        out = detune_phase(fld, delta_f, tau)
        up = cmath.exp(1j * delta_f * tau)
        down = cmath.exp(-1j * delta_f * tau)
        assert abs(out[0] - up) < 1e-12
        assert abs(out[1] - down) < 1e-12
        assert abs(out[2] - up) < 1e-12
        assert abs(out[3] - down) < 1e-12


class TestUnitarity:
    @pytest.mark.parametrize("n_draws", [1000])
    def test_every_element_preserves_norm(self, n_draws):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(n_draws):
            fld = random_field(rng)
            other = random_field(rng)
            theta = rng.uniform(0, math.pi)
            delta_f, tau = rng.uniform(-5, 5), rng.uniform(0, 2)
            n0 = total_norm(fld)
            worst = max(worst, abs(total_norm(hwp_transform(fld, theta)) - n0))
            worst = max(worst, abs(
                total_norm(detune_phase(fld, delta_f, tau)) - n0))
            o1, o2 = bs_transform(fld, other)
            worst = max(
                worst,
                abs(total_norm(o1) + total_norm(o2) - n0 - total_norm(other)),
            )
            p1, p2 = pbs_route(fld, other)
            worst = max(
                worst,
                abs(total_norm(p1) + total_norm(p2) - n0 - total_norm(other)),
            )
        assert worst < 1e-12


class TestIntensity:
    def test_single_mode(self):
        fld = (0.5 + 0j, 0j, 0j, 0j)  # H^U
        assert intensity(fld) == pytest.approx(0.25, abs=1e-15)

    def test_orthogonal_pols_add_without_cross_term(self):
        # H^U and V^U
        fld = (1 / SQRT2 + 0j, 0j, 1 / SQRT2 + 0j, 0j)
        assert intensity(fld) == pytest.approx(1.0, abs=1e-12)

    def test_same_pol_opposite_arms_interfere(self):
        # H^U and H^D
        fld = (0.5 + 0j, 0.5 * cmath.exp(1j * math.pi), 0j, 0j)
        assert intensity(fld) == pytest.approx(0.0, abs=1e-12)


class TestNmzi:
    def test_zero_phase_transfer(self):
        photon = from_jones(1 / SQRT2, 1 / SQRT2)
        port_a, port_b = nmzi_transfer(photon, 0.0, 0.0)
        # port A carries (-V^U + H^D)/2, port B carries i(H^U + V^D)/2
        # modes are ordered H^U, H^D, V^U, V^D
        assert abs(port_a[1] - 0.5) < 1e-12  # H^D
        assert abs(port_a[2] + 0.5) < 1e-12  # V^U
        assert abs(port_b[0] - 0.5j) < 1e-12  # H^U
        assert abs(port_b[3] - 0.5j) < 1e-12  # V^D
        assert port_a[0] == 0  # H^U
        assert port_b[1] == 0  # H^D

    def test_rejects_path_split_input(self):
        # both arms carry amplitude: same polarization, crossed
        # polarizations, and a NaN, which counts as present
        splits = ((0.5, 0.5, 0j, 0j),
                  (0j, 0.5, 0.5, 0j),
                  (0.5, 0j, 0j, complex(math.nan, 0.0)))
        for split in splits:
            with pytest.raises(PathAssignmentError, match="single-rail"):
                nmzi_transfer(split, 1.0, 1.0)
            for tag in (PathTag.U, PathTag.D):
                with pytest.raises(PathAssignmentError, match="both arms"):
                    with_path(split, tag)
        # one arm only, either one, is accepted and summed per polarization
        for single in ((0.6, 0j, 0.8j, 0j), (0j, 0.6, 0j, 0.8j)):
            assert np.array_equal(with_path(single, PathTag.D),
                                  (0j, 0.6, 0j, 0.8j))
            port_a, port_b = nmzi_transfer(single, 0.0, 0.0)
            norm = total_norm(port_a) + total_norm(port_b)
            assert norm == pytest.approx(1.0)

    def test_matches_primitive_chain(self):
        """Oracle: splitter, relabel, per-arm offset phase, polarizing combiner."""
        rng = np.random.default_rng(14)
        for _ in range(100):
            h, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            norm = math.sqrt(abs(h) ** 2 + abs(v) ** 2)
            h, v = h / norm, v / norm
            delta_f = rng.uniform(-5e6, 5e6)
            tau1 = rng.uniform(0, 5e-6)

            photon = from_jones(h, v)
            up, down = bs_transform(photon, vacuum())
            up = with_path(up, PathTag.U)
            down = with_path(down, PathTag.D)
            up = detune_phase(up, delta_f, tau1)
            down = detune_phase(down, delta_f, tau1)
            port_a_chain, port_b_chain = pbs_route(down, up)

            port_a, port_b = nmzi_transfer(photon, delta_f, tau1)
            for got, want in zip(port_a, port_a_chain):
                assert abs(got - want) < 1e-12
            for got, want in zip(port_b, port_b_chain):
                assert abs(got - want) < 1e-12

    def test_output_norm_is_input_norm(self):
        photon = from_jones(0.6, 0.8j)
        port_a, port_b = nmzi_transfer(photon, 2.0e6, 1.3e-6)
        assert total_norm(port_a) + total_norm(port_b) == pytest.approx(
            1.0, abs=1e-12)


class TestBench:
    def test_detector_fields_are_polarization_pure(self):
        fields = bench_detector_fields(1.1e6, 0.8e-6, 1.2e-6)
        for det in (1, 3):
            assert fields[det][2] == 0 and fields[det][3] == 0
        for det in (2, 4):
            assert fields[det][0] == 0 and fields[det][1] == 0

    def test_total_intensity_conserved_end_to_end(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            delta_f = rng.uniform(-3e6, 3e6)
            tau1, tau2 = rng.uniform(0, 3e-6, size=2)
            fields = bench_detector_fields(delta_f, tau1, tau2)
            total = sum(total_norm(f) for f in fields.values())
            assert abs(total - 1.0) < 1e-12

    def test_path_coefficients_carry_opposite_phases(self):
        delta_f, tau1, tau2 = 2.2e6, 0.7e-6, 1.1e-6
        coeff = detector_path_coefficients(delta_f, tau1, tau2)
        base = detector_path_coefficients(0.0, tau1, tau2)
        expect_up = cmath.exp(1j * delta_f * (tau1 + tau2))
        for det in (1, 2, 3, 4):
            up = coeff[PathTag.U][det - 1]
            down = coeff[PathTag.D][det - 1]
            assert abs(abs(up) - 1 / (2 * SQRT2)) < 1e-12
            assert abs(abs(down) - 1 / (2 * SQRT2)) < 1e-12
            # relative to the zero-offset bench, up advances by e^{+i df T},
            # down by the conjugate, T = tau1 + tau2
            assert abs(up / base[PathTag.U][det - 1] - expect_up) < 1e-12
            assert abs(down / base[PathTag.D][det - 1] - 1 / expect_up) < 1e-12


def test_with_path_rejects_split_field():
    split = (0.5, 0.5, 0j, 0j)
    with pytest.raises(PathAssignmentError):
        with_path(split, PathTag.U)


#: one sample's inputs: two four-mode fields as (re, re, re, re, im, im,
#: im, im), a Jones pair (re h, re v, im h, im v) and the element angles
SAMPLE = st.fixed_dictionaries({
    "a": st.tuples(*[st.floats(-4.0, 4.0)] * 8),
    "b": st.tuples(*[st.floats(-4.0, 4.0)] * 8),
    "jones": st.tuples(*[st.floats(-4.0, 4.0)] * 4),
    "theta": st.floats(-7.0, 7.0),
    "delta_f": st.floats(-1e8, 1e8),
    "tau1": st.floats(0.0, 1e-5),
    "tau2": st.floats(0.0, 1e-5),
    "phase": st.floats(0.0, 7.0),
})


def _inputs(values):
    """Call arguments from one sample's numbers, or from arrays of them.

    Field ``a`` is passed as a tuple of its four modes, ``b`` as one array.
    """
    def modes(parts):
        return tuple(parts[k] + 1j * parts[k + 4] for k in range(4))

    h_re, v_re, h_im, v_im = values["jones"]
    return dict(values, a=modes(values["a"]), b=np.array(modes(values["b"])),
                source=from_jones(h_re + 1j * h_im, v_re + 1j * v_im))


def _fields(*fields) -> list:
    """The modes of each field, in order; a field's axis 0 is its modes."""
    return [list(field) for field in fields]


#: every array-capable optics call, and the amplitude pipeline after it.
#: A call that returns fields lists their modes through ``_fields``: with
#: 4 samples a field and a sample array have the same shape.
CALLS = {
    "hwp_transform": lambda x: _fields(hwp_transform(x["a"], x["theta"])),
    "bs_transform": lambda x: _fields(*bs_transform(x["a"], x["b"])),
    "pbs_route": lambda x: _fields(*pbs_route(x["a"], x["b"])),
    "detune_phase": lambda x: _fields(detune_phase(x["a"], x["delta_f"],
                                                   x["tau1"])),
    "nmzi_transfer": lambda x: _fields(*nmzi_transfer(
        x["source"], x["delta_f"], x["tau1"])),
    "with_path": lambda x: _fields(*(with_path(x["source"], tag)
                                     for tag in PathTag)),
    "intensity": lambda x: intensity(x["a"]),
    "total_norm": lambda x: total_norm(x["a"]),
    "from_jones": lambda x: _fields(x["source"]),
    "bench_detector_fields": lambda x: _fields(*bench_detector_fields(
        x["delta_f"], x["tau1"], x["tau2"]).values()),
    "outcome_probabilities": lambda x: [
        list(outcome_probabilities(pair_amplitudes(
            x["delta_f"], x["tau1"], x["tau2"], x["phase"], paths)))
        for paths in itertools.product(PathTag, repeat=2)],
}


def _numbers(result) -> list:
    """The numbers of a call's result, in a fixed order."""
    if isinstance(result, list):
        return [x for item in result for x in _numbers(item)]
    return [result]


@settings(max_examples=60, deadline=None)
@given(samples=st.lists(SAMPLE, min_size=1, max_size=6))
def test_one_array_call_equals_scalar_calls(samples):
    columns = {key: (np.array([s[key] for s in samples]).T
                     if isinstance(samples[0][key], tuple)
                     else np.array([s[key] for s in samples]))
               for key in samples[0]}
    for name, call in CALLS.items():
        batch = _numbers(call(_inputs(columns)))
        for n, sample in enumerate(samples):
            single = _numbers(call(_inputs(sample)))
            assert len(single) == len(batch), name
            for got, want in zip(batch, single):
                assert np.ndim(want) == 0, name
                assert np.broadcast_to(got, (len(samples),))[n] == want, name


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_one_split_sample_rejects_the_batch(bad):
    # five single-rail samples, one of which (at ``bad``) spans both arms
    h = np.linspace(0.2, 1.0, 5) + 0j
    hd = np.where(np.arange(5) == bad, 0.5, 0.0) + 0j
    split = (h, hd, 0.3 * h, np.zeros(5, complex))
    with pytest.raises(PathAssignmentError, match="single-rail"):
        nmzi_transfer(split, np.ones(5), np.ones(5))
    for tag in PathTag:
        with pytest.raises(PathAssignmentError, match="both arms"):
            with_path(split, tag)
    # the same batch without the split sample passes
    good = (h, np.zeros(5, complex), 0.3 * h, np.zeros(5, complex))
    assert np.shape(with_path(good, PathTag.D)) == (4, 5)
    nmzi_transfer(good, np.ones(5), np.ones(5))
