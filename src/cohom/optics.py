"""Single-photon field algebra for the polarization-tagged bench.

A photon is a complex numpy array of amplitudes with the four modes H^U,
H^D, V^U, V^D on axis 0 (polarization H or V crossed with a path tag: U
for the up arm, D for the down arm), then the sample shape, which is
empty for a single photon.  The up arm carries a frequency offset
+delta_f, the down arm -delta_f, and every element transform below is
unitary on the four-mode amplitude vector.  Detection intensity is a
different quantity from the norm: the two path components of one
polarization stay mutually coherent and interfere, while orthogonal
polarizations never do.

Every element takes as a field any length-4 sequence of scalars or of
equal-shape arrays, one sample per array entry, through one code path:
the amplitudes are broadcast to a common sample shape and stacked modes
first, and all arithmetic runs on those stacks.  A scalar call thus runs
the same numpy loops as an array call (numpy's scalar arithmetic can
round differently in the last bit), so one call on N samples gives
exactly the results of N scalar calls.

The pair combinatorics at the end, the 16-row pair-allocation table and
the 4x4 detector pairing chart, are built from the same polarization and
path labels; only ``cohom enumerate``, ``chart`` and ``validate`` use them.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

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
    """Each field as one complex array, modes first, then each parameter,
    all broadcast to one sample shape."""
    values = np.broadcast_arrays(*(a for f in fields for a in f), *params)
    n = 4 * len(fields)
    modes = np.array(values[:n], dtype=complex)
    return (*modes.reshape(len(fields), 4, *modes.shape[1:]), *values[n:])


def vacuum() -> np.ndarray:
    """The field with no amplitude in any mode."""
    return np.zeros(4, dtype=complex)


def from_jones(h, v) -> np.ndarray:
    """Source photon before any path assignment.

    The amplitudes are parked on the U labels of the input rail; a field
    built this way is single-rail and acceptable to nmzi_transfer.
    """
    return np.array(np.broadcast_arrays(h, 0j, v, 0j), dtype=complex)


def total_norm(field):
    """Sum of |amplitude|^2 over the four modes; conserved by every element.

    A float for a scalar field, an array of the sample shape otherwise.
    """
    (modes,) = _split([field])
    hu, hd, vu, vd = np.abs(modes) ** 2
    return _value(hu + hd + vu + vd)


def intensity(field):
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


def hwp_transform(field, theta) -> np.ndarray:
    """Half-wave plate at angle theta, applied per path tag.

    Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; a reflection, so the
    transform is its own inverse at any angle.
    """
    modes, theta = _split([field], theta)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    h, v = modes[:2], modes[2:]
    return np.concatenate((c * h + s * v, s * h - c * v))


def bs_transform(in_a, in_b) -> tuple[np.ndarray, np.ndarray]:
    """Lossless 50:50 splitter, reflection carries phase i.

    out_1 = (i*a + b)/sqrt(2), out_2 = (a + i*b)/sqrt(2), componentwise per
    mode label.  Tags are untouched; relabeling an arm is the caller's job.
    """
    a, b = _split([in_a, in_b])
    return (1j * a + b) / _SQRT2, (a + 1j * b) / _SQRT2


def pbs_route(in_a, in_b) -> tuple[np.ndarray, np.ndarray]:
    """Polarizing splitter: H transmits, V reflects with phase i.

    Port 1 collects H of input a and (i times) V of input b; port 2 collects
    (i times) V of input a and H of input b.
    """
    a, b = _split([in_a, in_b])
    return (np.concatenate((a[:2], 1j * b[2:])),
            np.concatenate((b[:2], 1j * a[2:])))


def detune_phase(field, delta_f, tau) -> np.ndarray:
    """Advance the frequency-offset phase of every component by one stage.

    Each component picks up e^{i * sign(path) * delta_f * tau}; delta_f is an
    angular frequency (rad/s) and tau the stage delay in seconds.
    """
    modes, delta_f, tau = _split([field], delta_f, tau)
    up = np.exp(1j * delta_f * tau)
    down = np.exp(-1j * delta_f * tau)
    return modes * np.array([up, down, up, down])


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


def with_path(field, tag: PathTag) -> np.ndarray:
    """Relabel a single-rail field onto one arm, preserving polarization."""
    (modes,) = _split([field])
    rails = _rail_sums(modes, "field already spans both arms; cannot retag")
    out = np.zeros_like(modes)
    out[(0 if tag is PathTag.U else 1)::2] = rails
    return out


def nmzi_transfer(field, delta_f, tau1) -> tuple[np.ndarray, np.ndarray]:
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
        (port_a, port_b) fields.

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
    return port_a, port_b


# ---------------------------------------------------------------------------
# bench layout
# ---------------------------------------------------------------------------


def bench_detector_fields(delta_f, tau1, tau2) -> dict[int, np.ndarray]:
    """Propagate a unit H photon through the bench; fields at detectors 1..4.

    Runs the element pipeline (pi/8 wave plate, first stage, polarizing
    fan-out, second-stage offset phases, recombining splitters).  The mode
    labels of the returned fields still carry the arm tags, so per-arm
    coefficients can be read off directly.
    """
    photon = hwp_transform(from_jones(1.0, 0.0), np.pi / 8)
    port_a, port_b = nmzi_transfer(photon, delta_f, tau1)
    rails = (*pbs_route(port_a, vacuum()), *pbs_route(port_b, vacuum()))
    rail_a1, rail_a2, rail_b3, rail_b4 = (detune_phase(rail, delta_f, tau2)
                                          for rail in rails)
    e1, e3 = bs_transform(rail_a1, rail_b3)
    e2, e4 = bs_transform(rail_a2, rail_b4)
    return {1: e1, 2: e2, 3: e3, 4: e4}


def detector_path_coefficients(
    delta_f, tau1, tau2
) -> dict[PathTag, np.ndarray]:
    """Per-arm single-photon amplitudes at detectors 1..4.

    Each arm's array holds the amplitude a photon reaches each detector
    with via that arm: detectors 1..4 on axis 0, then the sample shape.
    Polarization is implied by the port: the H amplitude for detectors 1
    and 3, the V amplitude for detectors 2 and 4.
    """
    e1, e2, e3, e4 = bench_detector_fields(delta_f, tau1, tau2).values()
    up, down = np.swapaxes([e1[:2], e2[2:], e3[:2], e4[2:]], 0, 1)
    return {PathTag.U: up, PathTag.D: down}


# ---------------------------------------------------------------------------
# pair combinatorics
# ---------------------------------------------------------------------------


class ComboClass(enum.Enum):
    """Fate of one path/polarization allocation of a photon pair."""

    CROSS_PATH_KEPT = "cross-path-kept"
    SAME_PATH_EXCLUDED = "same-path-excluded"
    SINGLE_PORT_EXCLUDED = "single-port-excluded"


class ComboRow(NamedTuple):
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


class PairChart(NamedTuple):
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
