"""Closed-form port intensities, correlations, and pairing charts.

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

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .optics import PathTag, Polarization

# ---------------------------------------------------------------------------
# port intensities
# ---------------------------------------------------------------------------


#: (up, down) arm coefficient of each port before the offset phases, at
#: the bright-source normalization (sqrt(2) times the single-photon
#: amplitudes of optics.detector_path_coefficients); ports 1 and 3 carry
#: H, ports 2 and 4 carry V.  The bench's one coefficient table: the
#: closed forms here and the Monte Carlo outcome tables read it.
PORT_COEFFS = {1: (0.5j, 0.5j), 2: (0.5, -0.5), 3: (-0.5, 0.5),
               4: (-0.5j, -0.5j)}

# Fringe sign per port, 4*Re(up*conj(down)): detectors 1 and 4 sit on the
# bright fringe.
_PORT_SIGN = {port: 4.0 * (up * down.conjugate()).real
              for port, (up, down) in PORT_COEFFS.items()}


def local_intensity(port: int, delta_f, tau1, tau2):
    """Single-port intensity (I0/2)(1 +- cos(2*delta_f*(tau1+tau2))).

    Accepts scalars or numpy arrays; + for ports 1 and 4, - for 2 and 3.
    Zero detuning gives the exact bright or dark value; a phase that
    overflows a float gives NaN, the fringe position being unknown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cos = np.cos(2.0 * _arm_phase(delta_f, tau1, tau2))
    out = 0.5 * (1.0 + _PORT_SIGN[port] * cos)
    return out if out.ndim else float(out)


def ensemble_intensity(port: int, sigma_f, tau1, tau2):
    """Gaussian-ensemble average of the port intensity.

    For delta_f ~ Normal(0, sigma_f^2) the fringe average is the Gaussian
    characteristic function, (I0/2)(1 +- exp(-2 sigma_f^2 (tau1+tau2)^2)).
    Monotonically approaches the uniform value I0/2; the deviation drops
    below 1% of I0/2 once sigma_f*(tau1+tau2) >= 1.52.
    """
    return 0.5 * (1.0 + _PORT_SIGN[port]
                  * fringe_visibility(sigma_f, tau1, tau2))


def fringe_visibility(sigma_f, tau1, tau2):
    """Envelope exp(-2 sigma_f^2 (tau1+tau2)^2) of the ensemble fringe.

    A spread whose phase overflows a float gives a washed-out fringe,
    envelope 0.0.
    """
    with np.errstate(over="ignore"):
        out = np.exp(-2.0 * _arm_phase(sigma_f, tau1, tau2) ** 2)
    return out if out.ndim else float(out)


def _arm_phase(delta_f, tau1, tau2) -> np.ndarray:
    """Arm phase delta_f * (tau1 + tau2) as an array; inf where it
    overflows a float, and 0.0 at zero detuning even where the delay sum
    overflows."""
    delta_f = np.asarray(delta_f, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = delta_f * (np.asarray(tau1, dtype=float)
                           + np.asarray(tau2, dtype=float))
    # 0 * inf is NaN, not the zero phase of a detuning-free pair
    return np.where(np.isnan(phase) & (delta_f == 0.0), 0.0, phase)


# ---------------------------------------------------------------------------
# cross-port coincidences
# ---------------------------------------------------------------------------


def pairing_rate(port_i: int, port_j: int, arm_1: int, arm_2: int) -> float:
    """|a_i b_j + a_j b_i|^2, the squared pairing sum of a photon pair.

    ``a`` and ``b`` are the :data:`PORT_COEFFS` of photon 1's arm and
    photon 2's arm (0 up, 1 down), and the sum runs over both ways the
    pair can reach ports i and j.  The arms' offset phases multiply
    both terms alike and have modulus one, so they are left out.  Every
    coefficient is +-1/2 or +-i/2, so the result is exact: 0.0 where
    the two terms cancel.
    """
    a_i, a_j = PORT_COEFFS[port_i][arm_1], PORT_COEFFS[port_j][arm_1]
    b_i, b_j = PORT_COEFFS[port_i][arm_2], PORT_COEFFS[port_j][arm_2]
    return abs(a_i * b_j + a_j * b_i) ** 2


def _cross_port_rate(port_i: int, port_j: int, delta_f, tau1, tau2):
    """Cross-arm :func:`pairing_rate` between two same-polarization ports.

    One photon of the pair travels the up arm, the other the down arm.
    Same-arm products never appear: one photon cannot trigger both
    detectors, and equal-offset pairs are removed by the heterodyne
    stage, so only cross-arm terms survive.  The rate does not depend on
    the parameters; it is broadcast over their shape.
    """
    shape = np.broadcast_shapes(*map(np.shape, (delta_f, tau1, tau2)))
    out = np.full(shape, pairing_rate(port_i, port_j, 0, 1))
    return out if out.ndim else float(out)


def coincidence_r13(delta_f, tau1, tau2):
    """Coincidence rate between the two H ports; identically zero.

    The sum and difference ports share the same cross-arm product up to sign,
    so the two pairing terms cancel exactly.  What is evaluated is their port
    coefficient sum, in floating point; the unit-modulus phase factor they
    share is left out, so the result is 0.0 for every argument, NaN and
    overflowing phases included.
    """
    return _cross_port_rate(1, 3, delta_f, tau1, tau2)


def coincidence_r24(delta_f, tau1, tau2):
    """Coincidence rate between the two V ports; identically zero (see r13)."""
    return _cross_port_rate(2, 4, delta_f, tau1, tau2)


def classical_baseline_g2() -> float:
    """Classical intensity-correlation floor between the paired ports.

    Over a uniform fringe phase theta, I1 = (1 + cos theta)/2 and
    I3 = (1 - cos theta)/2, so <I1> = <I3> = 1/2 and
    <I1*I3> = <sin^2 theta>/4 = 1/8.  Their ratio <I1*I3> / (<I1><I3>)
    is exactly 1/2: the coherent-light floor that the anticorrelation
    result is contrasted against.
    """
    return 0.5


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


def _label(pol: Polarization, index: int, path: PathTag) -> str:
    """Photon label such as ``H_1^U``: polarization, pair index, arm."""
    return f"{pol.value}_{index}^{path.value}"


def enumerate_combinations() -> tuple[ComboRow, ...]:
    """All 16 path/polarization allocations of a photon pair.

    Rows are ordered path_1, path_2, pol_1, pol_2 (U before D, H before V).
    Same-path allocations never reach both first-stage ports and are dropped
    by the heterodyne stage; cross-path allocations with orthogonal
    polarizations pile into a single port and cannot produce a cross-port
    pair; the remaining four (H-H and V-V, either arm order) are kept.
    """
    rows = []
    for path_1, path_2, pol_1, pol_2 in itertools.product(
            PathTag, PathTag, Polarization, Polarization):
        ports = {"A": [], "B": []}
        for pol, index, path in ((pol_1, 1, path_1), (pol_2, 2, path_2)):
            ports[_output_port(pol, path)].append(_label(pol, index, path))
        if path_1 is path_2:
            cls = ComboClass.SAME_PATH_EXCLUDED
        elif not ports["A"] or not ports["B"]:
            cls = ComboClass.SINGLE_PORT_EXCLUDED
        else:
            cls = ComboClass.CROSS_PATH_KEPT
        rows.append(ComboRow(path_1, path_2, pol_1, pol_2, tuple(ports["A"]),
                             tuple(ports["B"]), cls))
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

    def to_dict(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "cells": [[mark.value for mark in row] for row in self.cells],
        }


def pair_chart() -> PairChart:
    """Published pairing chart between the two detector groups.

    Same-polarization opposite-offset cells are CORRELATED, except that the
    chart as published leaves the (index 2, index 2) cell of each block
    blank; cross-polarization equal-offset cells with distinct indices are
    DELTA; everything else is empty.
    """
    h, v, up, down = Polarization.H, Polarization.V, PathTag.U, PathTag.D
    # (polarization, pair index, arm) of each row and column photon
    rows = [(pol, index, path) for pol, path in ((h, up), (v, down))
            for index in (1, 2)]
    cols = [(pol, index, path) for pol, path in ((h, down), (v, up))
            for index in (1, 2)]
    cells = []
    for r_pol, r_idx, r_path in rows:
        row = []
        for c_pol, c_idx, c_path in cols:
            if r_pol is c_pol and r_path is not c_path and (r_idx, c_idx) != (2, 2):
                row.append(PairMark.CORRELATED)
            elif r_pol is not c_pol and r_path is c_path and r_idx != c_idx:
                row.append(PairMark.DELTA)
            else:
                row.append(PairMark.EMPTY)
        cells.append(tuple(row))
    return PairChart(tuple(_label(*photon) for photon in rows),
                     tuple(_label(*photon) for photon in cols), tuple(cells))
