"""Every command's output, byte for byte, against ``tests/golden/``.

A change that moves output bytes on purpose rewrites the files with
``python tests/golden/regen.py``.  The RNG-free outputs (``enumerate``,
``chart``, ``analytic``) are compared under any numpy.  The seeded ones
hold numpy ``Generator`` streams, which numpy does not promise to keep
across its versions (NEP 19), so under a numpy other than the one
recorded in ``numpy-version.txt`` they are skipped; the rerun and
distribution tests still run there.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen",
                                               GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("case", regen.CASES)
def test_output_bytes(case, monkeypatch):
    recorded = regen.NUMPY_VERSION.read_text(encoding="utf-8").strip()
    if regen.command(case) not in regen.RNG_FREE and (
            np.__version__ != recorded):
        pytest.skip(f"seeded output recorded under numpy {recorded}; "
                    f"this is numpy {np.__version__}")
    monkeypatch.delenv("COHOM_SEED", raising=False)
    code, text = regen.output(case)
    assert code == 0
    assert text.encode("utf-8") == (GOLDEN / case).read_bytes()


def test_golden_files_are_the_cases():
    written = {path.name for path in GOLDEN.iterdir() if path.is_file()}
    assert written == {*regen.CASES, "regen.py", regen.NUMPY_VERSION.name}
