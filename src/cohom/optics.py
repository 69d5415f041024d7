"""Single-photon field algebra for the polarization-tagged bench.

A photon is tracked as complex amplitudes over four modes: polarization
(H or V) crossed with a path tag (U for the up arm, D for the down arm).
The up arm carries a frequency offset +delta_f, the down arm -delta_f,
and every element transform below is unitary on the four-mode amplitude
vector.  Detection intensity is a different quantity from the norm: the
two path components of one polarization stay mutually coherent and
interfere, while orthogonal polarizations never do.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Mapping

_SQRT2 = math.sqrt(2.0)


class Polarization(enum.Enum):
    H = "H"
    V = "V"


class PathTag(enum.Enum):
    """Interferometer arm label, fixed at the first splitter."""

    U = "U"
    D = "D"


@dataclass(frozen=True, order=True)
class ModeLabel:
    pol: Polarization
    path: PathTag

    def __str__(self) -> str:
        return f"{self.pol.value}^{self.path.value}"


MODE_LABELS: tuple[ModeLabel, ...] = (
    ModeLabel(Polarization.H, PathTag.U),
    ModeLabel(Polarization.H, PathTag.D),
    ModeLabel(Polarization.V, PathTag.U),
    ModeLabel(Polarization.V, PathTag.D),
)

_INDEX = {label: i for i, label in enumerate(MODE_LABELS)}


class PathAssignmentError(ValueError):
    """Raised when a field already split across both arms is fed to a splitter stage."""


@dataclass(frozen=True)
class PhotonField:
    """Immutable four-mode amplitude vector.

    Attributes:
        amps: amplitudes ordered as MODE_LABELS (H^U, H^D, V^U, V^D).
    """

    amps: tuple[complex, complex, complex, complex]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def vacuum() -> "PhotonField":
        return PhotonField((0j, 0j, 0j, 0j))

    @staticmethod
    def from_amplitudes(mapping: Mapping[ModeLabel, complex]) -> "PhotonField":
        amps = [0j, 0j, 0j, 0j]
        for label, value in mapping.items():
            amps[_INDEX[label]] = complex(value)
        return PhotonField(tuple(amps))

    @staticmethod
    def from_jones(h: complex, v: complex) -> "PhotonField":
        """Source photon before any path assignment.

        The amplitudes are parked on the U labels of the input rail; a field
        built this way is single-rail and acceptable to nmzi_transfer.
        """
        return PhotonField((complex(h), 0j, complex(v), 0j))

    # -- accessors ---------------------------------------------------------

    def amplitude(self, label: ModeLabel) -> complex:
        return self.amps[_INDEX[label]]

    def paths_present(self) -> set[PathTag]:
        present = set()
        for label, i in _INDEX.items():
            if self.amps[i] != 0:
                present.add(label.path)
        return present

    # -- derived scalars ---------------------------------------------------

    def total_norm(self) -> float:
        """Sum of |amplitude|^2 over the four modes; conserved by every element."""
        return float(sum(abs(a) ** 2 for a in self.amps))


def intensity(field: PhotonField) -> float:
    """Detection intensity at a port.

    Same-polarization components from different arms add coherently (their
    cross term is the interference fringe); orthogonal polarizations add in
    intensity only, so the two sums below never mix.
    """
    h = field.amps[0] + field.amps[1]
    v = field.amps[2] + field.amps[3]
    return abs(h) ** 2 + abs(v) ** 2


# ---------------------------------------------------------------------------
# element transforms
# ---------------------------------------------------------------------------


def hwp_transform(field: PhotonField, theta: float) -> PhotonField:
    """Half-wave plate at angle theta, applied per path tag.

    Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; a reflection, so the
    transform is its own inverse at any angle.
    """
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    hu, hd, vu, vd = field.amps
    return PhotonField(
        (c * hu + s * vu, c * hd + s * vd, s * hu - c * vu, s * hd - c * vd)
    )


def bs_transform(in_a: PhotonField, in_b: PhotonField) -> tuple[PhotonField, PhotonField]:
    """Lossless 50:50 splitter, reflection carries phase i.

    out_1 = (i*a + b)/sqrt(2), out_2 = (a + i*b)/sqrt(2), componentwise per
    mode label.  Tags are untouched; relabeling an arm is the caller's job.
    """
    out1 = tuple((1j * a + b) / _SQRT2 for a, b in zip(in_a.amps, in_b.amps))
    out2 = tuple((a + 1j * b) / _SQRT2 for a, b in zip(in_a.amps, in_b.amps))
    return PhotonField(out1), PhotonField(out2)


def pbs_route(in_a: PhotonField, in_b: PhotonField) -> tuple[PhotonField, PhotonField]:
    """Polarizing splitter: H transmits, V reflects with phase i.

    Port 1 collects H of input a and (i times) V of input b; port 2 collects
    (i times) V of input a and H of input b.
    """
    a_hu, a_hd, a_vu, a_vd = in_a.amps
    b_hu, b_hd, b_vu, b_vd = in_b.amps
    port1 = PhotonField((a_hu, a_hd, 1j * b_vu, 1j * b_vd))
    port2 = PhotonField((b_hu, b_hd, 1j * a_vu, 1j * a_vd))
    return port1, port2


def detune_phase(field: PhotonField, delta_f: float, tau: float) -> PhotonField:
    """Advance the frequency-offset phase of every component by one stage.

    Each component picks up e^{i * sign(path) * delta_f * tau}; delta_f is an
    angular frequency (rad/s) and tau the stage delay in seconds.
    """
    up = cmath.exp(1j * delta_f * tau)
    down = cmath.exp(-1j * delta_f * tau)
    hu, hd, vu, vd = field.amps
    return PhotonField((hu * up, hd * down, vu * up, vd * down))


def with_path(field: PhotonField, tag: PathTag) -> PhotonField:
    """Relabel a single-rail field onto one arm, preserving polarization."""
    present = field.paths_present()
    if len(present) > 1:
        raise PathAssignmentError("field already spans both arms; cannot retag")
    h = field.amps[0] + field.amps[1]
    v = field.amps[2] + field.amps[3]
    if tag is PathTag.U:
        return PhotonField((h, 0j, v, 0j))
    return PhotonField((0j, h, 0j, v))


def nmzi_transfer(
    field: PhotonField, delta_f: float, tau1: float
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
    present = field.paths_present()
    if len(present) > 1:
        raise PathAssignmentError(
            "nmzi_transfer input must be a single-rail photon without path tags"
        )
    h = field.amps[0] + field.amps[1]
    v = field.amps[2] + field.amps[3]
    u1 = cmath.exp(1j * delta_f * tau1)
    d1 = cmath.exp(-1j * delta_f * tau1)
    # up arm gets i/sqrt2, down arm 1/sqrt2; the combiner reflects V with i.
    port_a = PhotonField((0j, h * d1 / _SQRT2, -v * u1 / _SQRT2, 0j))
    port_b = PhotonField((1j * h * u1 / _SQRT2, 0j, 0j, 1j * v * d1 / _SQRT2))
    return port_a, port_b


# ---------------------------------------------------------------------------
# bench layout
# ---------------------------------------------------------------------------


def bench_detector_fields(
    delta_f: float, tau1: float, tau2: float, theta: float = math.pi / 8
) -> dict[int, PhotonField]:
    """Propagate a unit H photon through the bench; fields at detectors 1..4.

    Runs the element pipeline (wave plate, first stage, polarizing fan-out,
    second-stage offset phases, recombining splitters).  The mode labels of
    the returned fields still carry the arm tags, so per-arm coefficients can
    be read off directly.
    """
    photon = hwp_transform(PhotonField.from_jones(1.0, 0.0), theta)
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
    delta_f: float, tau1: float, tau2: float
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
