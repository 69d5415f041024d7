"""Closed-form port fields, intensities, correlations, and pairing charts.

Everything here is exact algebra on the four-port bench output.  With the
up/down frequency offsets +-delta_f and stage delays tau1, tau2, the two
same-polarization components arriving at a port differ in phase by
2*delta_f*(tau1+tau2), which sets the single-port fringe

    I_{1,4} = (I0/2) * (1 + cos(2*delta_f*(tau1+tau2)))
    I_{2,3} = (I0/2) * (1 - cos(2*delta_f*(tau1+tau2)))

while the cross-port coincidence between the two H ports (detectors 1, 3)
and between the two V ports (detectors 2, 4) cancels identically: the two
cross-arm pairing terms are equal and opposite for every parameter value.
I0 is normalized to 1 throughout.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .optics import ModeLabel, PathTag, PhotonField, Polarization

# ---------------------------------------------------------------------------
# port fields and intensities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortFields:
    """Fields at the four detector ports for one frequency offset."""

    e1: PhotonField
    e2: PhotonField
    e3: PhotonField
    e4: PhotonField

    def port(self, k: int) -> PhotonField:
        return (self.e1, self.e2, self.e3, self.e4)[k - 1]


# Fringe sign per port: detectors 1 and 4 sit on the bright fringe.
_PORT_SIGN = {1: +1.0, 2: -1.0, 3: -1.0, 4: +1.0}

# (up, down) arm coefficient of each port before the offset phases; ports
# 1 and 3 carry H, ports 2 and 4 carry V.
_PORT_COEFFS = {1: (0.5j, 0.5j), 2: (0.5, -0.5), 3: (-0.5, 0.5),
                4: (-0.5j, -0.5j)}


def port_fields(delta_f: float, tau1: float, tau2: float) -> PortFields:
    """Detector-port fields, one component per arm, magnitude 1/2 each.

    Port 1 carries H^D + H^U (sum), port 3 the difference; ports 2 and 4 are
    the V analogues.  Up components carry phase +delta_f*(tau1+tau2), down
    components the negative, so each port pair sums to I0 and the fringe
    argument is 2*delta_f*(tau1+tau2).
    """
    u = cmath.exp(1j * delta_f * (tau1 + tau2))
    d = cmath.exp(-1j * delta_f * (tau1 + tau2))
    fields = []
    for port, (up, down) in _PORT_COEFFS.items():
        pol = Polarization.H if port in (1, 3) else Polarization.V
        fields.append(PhotonField.from_amplitudes({
            ModeLabel(pol, PathTag.U): up * u,
            ModeLabel(pol, PathTag.D): down * d,
        }))
    return PortFields(*fields)


def local_intensity(port: int, delta_f, tau1, tau2, i0: float = 1.0):
    """Single-port intensity (I0/2)(1 +- cos(2*delta_f*(tau1+tau2))).

    Accepts scalars or numpy arrays; + for ports 1 and 4, - for 2 and 3.
    """
    sign = _PORT_SIGN[port]
    phase = 2.0 * np.asarray(delta_f) * (np.asarray(tau1) + np.asarray(tau2))
    out = 0.5 * i0 * (1.0 + sign * np.cos(phase))
    return out if out.ndim else float(out)


def ensemble_intensity(port: int, sigma_f, tau1, tau2, i0: float = 1.0):
    """Gaussian-ensemble average of the port intensity.

    For delta_f ~ Normal(0, sigma_f^2) the fringe average is the Gaussian
    characteristic function, (I0/2)(1 +- exp(-2 sigma_f^2 (tau1+tau2)^2)).
    Monotonically approaches the uniform value I0/2; the deviation drops
    below 1% of I0/2 once sigma_f*(tau1+tau2) >= 1.52.
    """
    sign = _PORT_SIGN[port]
    x = np.asarray(sigma_f) * (np.asarray(tau1) + np.asarray(tau2))
    out = 0.5 * i0 * (1.0 + sign * np.exp(-2.0 * x**2))
    return out if out.ndim else float(out)


def fringe_visibility(sigma_f, tau1, tau2):
    """Envelope exp(-2 sigma_f^2 (tau1+tau2)^2) of the ensemble fringe."""
    x = np.asarray(sigma_f) * (np.asarray(tau1) + np.asarray(tau2))
    out = np.exp(-2.0 * x**2)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# cross-port coincidences
# ---------------------------------------------------------------------------


def _cross_port_rate(port_i: int, port_j: int, delta_f, tau1, tau2):
    """|pairing sum|^2 between two same-polarization ports.

    One photon of the pair travels the up arm, the other the down arm; the
    amplitude sums both assignments.  Same-arm products never appear: one
    photon cannot trigger both detectors, and equal-offset pairs are removed
    by the heterodyne stage, so only cross-arm terms survive.
    """
    delta_f = np.asarray(delta_f, dtype=float)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    u = np.exp(1j * delta_f * (tau1 + tau2))
    d = np.exp(-1j * delta_f * (tau1 + tau2))
    i_up, i_down = _PORT_COEFFS[port_i]
    j_up, j_down = _PORT_COEFFS[port_j]
    amp = (i_up * u) * (j_down * d) + (i_down * d) * (j_up * u)
    out = np.abs(amp) ** 2
    return out if out.ndim else float(out)


def coincidence_r13(delta_f, tau1, tau2):
    """Coincidence rate between the two H ports; identically zero.

    The sum and difference ports share the same cross-arm product up to sign,
    so the two pairing terms cancel exactly.  The cancellation is evaluated,
    not asserted: the returned value is |pairing sum|^2 computed in floating
    point, which is 0.0 for every argument.
    """
    return _cross_port_rate(1, 3, delta_f, tau1, tau2)


def coincidence_r24(delta_f, tau1, tau2):
    """Coincidence rate between the two V ports; identically zero (see r13)."""
    return _cross_port_rate(2, 4, delta_f, tau1, tau2)


def classical_baseline_g2(phase_samples: int = 360) -> float:
    """Classical intensity-correlation floor between the paired ports.

    Averages I1*I3 / (<I1><I3>) over fringe phases 2*pi*k/n.  For any n >= 3
    the equally spaced sum gives exactly 0.5, the coherent-light floor that
    the anticorrelation result is contrasted against.  n = 2 is degenerate
    (phases {0, pi} make every product vanish) and returns 0.

    Raises:
        ValueError: if phase_samples < 2.
    """
    if phase_samples < 2:
        raise ValueError("phase_samples must be >= 2")
    theta = 2.0 * math.pi * np.arange(phase_samples) / phase_samples
    i1 = 0.5 * (1.0 + np.cos(theta))
    i3 = 0.5 * (1.0 - np.cos(theta))
    return float(np.mean(i1 * i3) / (np.mean(i1) * np.mean(i3)))


# ---------------------------------------------------------------------------
# pair combinatorics
# ---------------------------------------------------------------------------


class ComboClass(enum.Enum):
    """Fate of one path/polarization allocation of a photon pair."""

    CROSS_PATH_KEPT = "cross-path-kept"
    SAME_PATH_EXCLUDED = "same-path-excluded"
    SINGLE_PORT_EXCLUDED = "single-port-excluded"


@dataclass(frozen=True)
class ComboRow:
    path_1: PathTag
    path_2: PathTag
    pol_1: Polarization
    pol_2: Polarization
    port_a: tuple[str, ...]
    port_b: tuple[str, ...]
    classification: ComboClass


def _output_port(pol: Polarization, path: PathTag) -> str:
    # the first-stage combiner sends H^D and V^U to port A, H^U and V^D to B
    if (pol, path) in ((Polarization.H, PathTag.D), (Polarization.V, PathTag.U)):
        return "A"
    return "B"


def enumerate_combinations() -> tuple[ComboRow, ...]:
    """All 16 path/polarization allocations of a photon pair.

    Rows are ordered path_1, path_2, pol_1, pol_2 (U before D, H before V).
    Same-path allocations never reach both first-stage ports and are dropped
    by the heterodyne stage; cross-path allocations with orthogonal
    polarizations pile into a single port and cannot produce a cross-port
    pair; the remaining four (H-H and V-V, either arm order) are kept.
    """
    rows = []
    for path_1 in (PathTag.U, PathTag.D):
        for path_2 in (PathTag.U, PathTag.D):
            for pol_1 in (Polarization.H, Polarization.V):
                for pol_2 in (Polarization.H, Polarization.V):
                    tag_1 = f"{pol_1.value}_1^{path_1.value}"
                    tag_2 = f"{pol_2.value}_2^{path_2.value}"
                    ports = (_output_port(pol_1, path_1), _output_port(pol_2, path_2))
                    port_a = tuple(
                        t for t, p in zip((tag_1, tag_2), ports) if p == "A"
                    )
                    port_b = tuple(
                        t for t, p in zip((tag_1, tag_2), ports) if p == "B"
                    )
                    if path_1 is path_2:
                        cls = ComboClass.SAME_PATH_EXCLUDED
                    elif not port_a or not port_b:
                        cls = ComboClass.SINGLE_PORT_EXCLUDED
                    else:
                        cls = ComboClass.CROSS_PATH_KEPT
                    rows.append(
                        ComboRow(path_1, path_2, pol_1, pol_2, port_a, port_b, cls)
                    )
    return tuple(rows)


class PairMark(enum.Enum):
    """Cell marker in the detector pair chart."""

    CORRELATED = "1"
    DELTA = "1d"
    EMPTY = ""


@dataclass(frozen=True)
class PairChart:
    """4x4 chart of detected photon labels: rows at detectors 3/4, columns at 1/2.

    Row labels are the H^U pair members (detector 3) then the V^D members
    (detector 4); column labels are H^D (detector 1) then V^U (detector 2).
    CORRELATED marks opposite-offset same-polarization pairings (the
    anticorrelated channels), DELTA marks equal-offset cross-polarization
    pairings that survive on coherence alone and carry no derived magnitude.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[PairMark, ...], ...]

    def cell(self, i: int, j: int) -> PairMark:
        return self.cells[i][j]

    def to_dict(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "cells": [[mark.value for mark in row] for row in self.cells],
        }


_ROW_LABELS = ("H_1^U", "H_2^U", "V_1^D", "V_2^D")
_COL_LABELS = ("H_1^D", "H_2^D", "V_1^U", "V_2^U")


def _parse_label(label: str) -> tuple[Polarization, int, PathTag]:
    pol, rest = label.split("_")
    idx, path = rest.split("^")
    return Polarization(pol), int(idx), PathTag(path)


def pair_chart() -> PairChart:
    """Published pairing chart between the two detector groups.

    Same-polarization opposite-offset cells are CORRELATED, except that the
    chart as published leaves the (index 2, index 2) cell of each block
    blank; cross-polarization equal-offset cells with distinct indices are
    DELTA; everything else is empty.
    """
    cells = []
    for row_label in _ROW_LABELS:
        r_pol, r_idx, r_path = _parse_label(row_label)
        row = []
        for col_label in _COL_LABELS:
            c_pol, c_idx, c_path = _parse_label(col_label)
            if r_pol is c_pol and r_path is not c_path and (r_idx, c_idx) != (2, 2):
                row.append(PairMark.CORRELATED)
            elif r_pol is not c_pol and r_path is c_path and r_idx != c_idx:
                row.append(PairMark.DELTA)
            else:
                row.append(PairMark.EMPTY)
        cells.append(tuple(row))
    return PairChart(_ROW_LABELS, _COL_LABELS, tuple(cells))
