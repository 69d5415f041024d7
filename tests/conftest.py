"""Shared fixtures."""

import pytest

import cohom.validation
from cohom.optics import PhotonField, bs_transform


@pytest.fixture
def break_splitter(monkeypatch):
    """Give the validation suite a splitter with a coefficient error.

    ``break_splitter(error)`` replaces the ``bs_transform`` that
    ``cohom.validation`` calls with one whose first output picks up
    ``error`` times each amplitude of the first input, so the splitter is
    no longer unitary.  A NaN error puts NaN in every mode, zero ones
    included.
    """
    def apply(error: float) -> None:
        def faulty(in_a, in_b):
            out1, out2 = bs_transform(in_a, in_b)
            out1 = PhotonField(tuple(o + error * a
                                     for o, a in zip(out1.amps, in_a.amps)))
            return out1, out2

        monkeypatch.setattr(cohom.validation, "bs_transform", faulty)

    return apply
