"""Closed-form port intensities and correlations.

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

import numpy as np

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
