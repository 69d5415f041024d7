"""Shared fixtures."""

import numpy as np
import pytest

import cohom.validation
from cohom.optics import bs_transform


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
            return out1 + error * np.asarray(in_a), out2

        monkeypatch.setattr(cohom.validation, "bs_transform", faulty)

    return apply
