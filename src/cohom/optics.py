"""Single-photon field algebra for the polarization-tagged bench.

A photon is tracked as complex amplitudes over four modes: polarization
(H or V) crossed with a path tag (U for the up arm, D for the down arm).
The up arm carries a frequency offset +delta_f, the down arm -delta_f,
and every element transform below is unitary on the four-mode amplitude
vector.  Detection intensity is a different quantity from the norm: the
two path components of one polarization stay mutually coherent and
interfere, while orthogonal polarizations never do.

Every element takes scalars or equal-shape numpy arrays, one sample per
array entry, through one code path: the amplitudes are broadcast to a
common sample shape and stacked modes first, and all arithmetic runs on
those stacks.  A scalar call thus runs the same numpy loops as an array
call (numpy's scalar arithmetic can round differently in the last bit),
so one call on N samples gives exactly the results of N scalar calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_SQRT2 = float(np.sqrt(2.0))


class Polarization(enum.Enum):
    H = "H"
    V = "V"


class PathTag(enum.Enum):
    """Interferometer arm label, fixed at the first splitter."""

    U = "U"
    D = "D"


class PathAssignmentError(ValueError):
    """Raised when a field already split across both arms is fed to a splitter stage."""


def _value(x):
    """A float for a scalar result, the array otherwise."""
    return x if np.ndim(x) else float(x)


def _split(fields, *params):
    """Each field's amplitudes as one complex array, modes first, then each
    parameter, all broadcast to one sample shape."""
    values = np.broadcast_arrays(*(a for f in fields for a in f.amps), *params)
    n = 4 * len(fields)
    modes = np.array(values[:n], dtype=complex)
    return (*modes.reshape(len(fields), 4, *modes.shape[1:]), *values[n:])


@dataclass(frozen=True)
class PhotonField:
    """Immutable four-mode amplitude vector.

    Attributes:
        amps: amplitudes ordered H^U, H^D, V^U, V^D; complex scalars, or
            arrays of one shape holding one sample per entry.
    """

    amps: tuple

    # -- constructors ------------------------------------------------------

    @staticmethod
    def vacuum() -> "PhotonField":
        return PhotonField((0j, 0j, 0j, 0j))

    @staticmethod
    def from_jones(h, v) -> "PhotonField":
        """Source photon before any path assignment.

        The amplitudes are parked on the U labels of the input rail; a field
        built this way is single-rail and acceptable to nmzi_transfer.
        """
        return PhotonField(tuple(np.array(np.broadcast_arrays(h, 0j, v, 0j),
                                          dtype=complex)))

    # -- derived values ----------------------------------------------------

    def total_norm(self):
        """Sum of |amplitude|^2 over the four modes; conserved by every element.

        A float for scalar amplitudes, an array of the sample shape otherwise.
        """
        (modes,) = _split([self])
        hu, hd, vu, vd = np.abs(modes) ** 2
        return _value(hu + hd + vu + vd)


def intensity(field: PhotonField):
    """Detection intensity at a port.

    Same-polarization components from different arms add coherently (their
    cross term is the interference fringe); orthogonal polarizations add in
    intensity only, so the two sums below never mix.
    """
    (modes,) = _split([field])
    h, v = np.abs(modes[0::2] + modes[1::2]) ** 2
    return _value(h + v)


# ---------------------------------------------------------------------------
# element transforms
# ---------------------------------------------------------------------------


def hwp_transform(field: PhotonField, theta) -> PhotonField:
    """Half-wave plate at angle theta, applied per path tag.

    Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; a reflection, so the
    transform is its own inverse at any angle.
    """
    modes, theta = _split([field], theta)
    c = np.cos(2.0 * theta)
    s = np.sin(2.0 * theta)
    h, v = modes[:2], modes[2:]
    return PhotonField((*(c * h + s * v), *(s * h - c * v)))


def bs_transform(in_a: PhotonField, in_b: PhotonField) -> tuple[PhotonField, PhotonField]:
    """Lossless 50:50 splitter, reflection carries phase i.

    out_1 = (i*a + b)/sqrt(2), out_2 = (a + i*b)/sqrt(2), componentwise per
    mode label.  Tags are untouched; relabeling an arm is the caller's job.
    """
    a, b = _split([in_a, in_b])
    return (PhotonField(tuple((1j * a + b) / _SQRT2)),
            PhotonField(tuple((a + 1j * b) / _SQRT2)))


def pbs_route(in_a: PhotonField, in_b: PhotonField) -> tuple[PhotonField, PhotonField]:
    """Polarizing splitter: H transmits, V reflects with phase i.

    Port 1 collects H of input a and (i times) V of input b; port 2 collects
    (i times) V of input a and H of input b.
    """
    a, b = _split([in_a, in_b])
    return (PhotonField((*a[:2], *(1j * b[2:]))),
            PhotonField((*b[:2], *(1j * a[2:]))))


def detune_phase(field: PhotonField, delta_f, tau) -> PhotonField:
    """Advance the frequency-offset phase of every component by one stage.

    Each component picks up e^{i * sign(path) * delta_f * tau}; delta_f is an
    angular frequency (rad/s) and tau the stage delay in seconds.
    """
    modes, delta_f, tau = _split([field], delta_f, tau)
    up = np.exp(1j * delta_f * tau)
    down = np.exp(-1j * delta_f * tau)
    return PhotonField(tuple(modes * np.array([up, down, up, down])))


def _rail_sums(modes: np.ndarray, message: str) -> np.ndarray:
    """H and V amplitudes of a single-rail field, summed over its one arm.

    An amplitude counts as present when it is ``!= 0``, so a NaN does.

    Raises:
        PathAssignmentError: with ``message`` if any sample carries
            amplitude on both arms.
    """
    up = (modes[0] != 0) | (modes[2] != 0)
    down = (modes[1] != 0) | (modes[3] != 0)
    if np.any(up & down):
        raise PathAssignmentError(message)
    return modes[0::2] + modes[1::2]


def with_path(field: PhotonField, tag: PathTag) -> PhotonField:
    """Relabel a single-rail field onto one arm, preserving polarization."""
    (modes,) = _split([field])
    rails = _rail_sums(modes, "field already spans both arms; cannot retag")
    out = np.zeros_like(modes)
    out[(0 if tag is PathTag.U else 1)::2] = rails
    return PhotonField(tuple(out))


def nmzi_transfer(
    field: PhotonField, delta_f, tau1
) -> tuple[PhotonField, PhotonField]:
    """Noninterfering Mach-Zehnder stage: splitter, counter-scanned offsets, combiner.

    The input photon is split 50:50 (reflection i into the up arm), each arm
    is frequency-offset (+delta_f up, -delta_f down, phase over the stage
    delay tau1), and a polarizing combiner merges the arms so that port A
    carries {H^D, V^U} and port B carries {H^U, V^D}.

    Args:
        field: source photon; must not be split across both arms already.
        delta_f: angular frequency offset, rad/s.
        tau1: stage delay, seconds.

    Returns:
        (port_a, port_b) photon fields.

    Raises:
        PathAssignmentError: if the input already carries both path tags.
    """
    modes, delta_f, tau1 = _split([field], delta_f, tau1)
    rails = _rail_sums(modes, "nmzi_transfer input must be a single-rail "
                              "photon without path tags")
    u1 = np.exp(1j * delta_f * tau1)
    d1 = np.exp(-1j * delta_f * tau1)
    # up arm gets i/sqrt2, down arm 1/sqrt2; the combiner reflects V with i.
    h_down, v_up = rails * np.array([d1, u1]) / _SQRT2
    h_up, v_down = 1j * rails * np.array([u1, d1]) / _SQRT2
    port_a, port_b = np.zeros((2, *modes.shape), dtype=complex)
    port_a[1], port_a[2] = h_down, -v_up
    port_b[0], port_b[3] = h_up, v_down
    return PhotonField(tuple(port_a)), PhotonField(tuple(port_b))


# ---------------------------------------------------------------------------
# bench layout
# ---------------------------------------------------------------------------


def bench_detector_fields(delta_f, tau1, tau2) -> dict[int, PhotonField]:
    """Propagate a unit H photon through the bench; fields at detectors 1..4.

    Runs the element pipeline (pi/8 wave plate, first stage, polarizing
    fan-out, second-stage offset phases, recombining splitters).  The mode
    labels of the returned fields still carry the arm tags, so per-arm
    coefficients can be read off directly.
    """
    photon = hwp_transform(PhotonField.from_jones(1.0, 0.0), np.pi / 8)
    port_a, port_b = nmzi_transfer(photon, delta_f, tau1)
    rail_a1, rail_a2 = pbs_route(port_a, PhotonField.vacuum())
    rail_b3, rail_b4 = pbs_route(port_b, PhotonField.vacuum())
    rail_a1 = detune_phase(rail_a1, delta_f, tau2)
    rail_a2 = detune_phase(rail_a2, delta_f, tau2)
    rail_b3 = detune_phase(rail_b3, delta_f, tau2)
    rail_b4 = detune_phase(rail_b4, delta_f, tau2)
    e1, e3 = bs_transform(rail_a1, rail_b3)
    e2, e4 = bs_transform(rail_a2, rail_b4)
    return {1: e1, 2: e2, 3: e3, 4: e4}


def detector_path_coefficients(
    delta_f, tau1, tau2
) -> dict[int, dict[PathTag, complex]]:
    """Per-arm single-photon amplitude at each detector.

    For detector k the dict holds the amplitude a photon reaches k with via
    the up arm and via the down arm; polarization is implied by the port
    (detectors 1 and 3 see H, detectors 2 and 4 see V).
    """
    fields = bench_detector_fields(delta_f, tau1, tau2)
    out: dict[int, dict[PathTag, complex]] = {}
    for det, fld in fields.items():
        hu, hd, vu, vd = fld.amps
        if det in (1, 3):
            out[det] = {PathTag.U: hu, PathTag.D: hd}
        else:
            out[det] = {PathTag.U: vu, PathTag.D: vd}
    return out
