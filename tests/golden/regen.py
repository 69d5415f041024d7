"""Golden outputs: what every ``cohom`` command writes, pinned byte for byte.

Each case is one command in one format (``<name>.csv`` or
``<name>.json`` in this directory), run in-process through
``cohom.cli.main`` with ``--quiet`` over a config in ``configs/``.  The
few values that may change from one run or machine to the next are
masked before the comparison (see :func:`mask`).  ``tests/test_golden.py``
compares every case with its file.

After a change that moves output bytes on purpose, rewrite the files
with::

    python tests/golden/regen.py

The seeded outputs hold numpy ``Generator`` streams, which numpy does not
promise to keep across its versions, so the numpy version that wrote
them is kept in ``numpy-version.txt``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
NUMPY_VERSION = HERE / "numpy-version.txt"

#: case name -> the command and its config file in configs/, if any
COMMANDS = {
    "enumerate": ("enumerate", None),
    "chart": ("chart", None),
    "analytic": ("analytic", "scan-amplitude.cfg"),
    "simulate-amplitude-filter": ("simulate", "amplitude-filter.cfg"),
    "simulate-amplitude-open": ("simulate", "amplitude-open.cfg"),
    "simulate-classical-mu1": ("simulate", "classical-mu1.cfg"),
    "simulate-classical-sharp": ("simulate", "classical-sharp.cfg"),
    "scan-amplitude": ("scan", "scan-amplitude.cfg"),
    "scan-classical": ("scan", "scan-classical.cfg"),
    "validate": ("validate", None),
}

#: the commands that draw no random numbers
RNG_FREE = ("enumerate", "chart", "analytic")

#: every golden file, by its name
CASES = tuple(f"{name}.{fmt}" for name in COMMANDS for fmt in ("csv", "json"))

#: (pattern, replacement) of each masked value: the JSON manifest's wall
#: clock and engine versions, and validate's measured values, whose
#: floating-point residues may move without any change to a check
_MASKS = (
    (re.compile(r'("(?:wall_clock_s|measured)": )[^,\n]+'), r'\1"*"'),
    (re.compile(r'("(?:python|numpy)": )"[^"]*"'), r'\1"*"'),
    (re.compile(r"^([^,\n]+,(?:pass|fail),)[^,\n]*", re.M), r"\1*"),
)


def mask(text: str) -> str:
    """``text`` with every value that varies between runs masked as ``*``."""
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def command(case: str) -> str:
    """The ``cohom`` command that writes ``case``."""
    return COMMANDS[case.rpartition(".")[0]][0]


def output(case: str) -> tuple:
    """``(exit code, masked stdout)`` of the command line of ``case``.

    The seed of a seeded command is its config file's, so COHOM_SEED
    must not be set.
    """
    from cohom.cli import main  # after __main__ puts src first on the path

    name, _, fmt = case.rpartition(".")
    cmd, config = COMMANDS[name]
    argv = [cmd, "--format", fmt, "--quiet"]
    if config is not None:
        argv += ["--config", str(HERE / "configs" / config)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, mask(out.getvalue())


def regenerate() -> None:
    os.environ.pop("COHOM_SEED", None)
    for case in CASES:
        code, text = output(case)
        if code != 0:
            raise SystemExit(f"{case}: cohom exited {code}")
        (HERE / case).write_bytes(text.encode("utf-8"))
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    # this checkout's package, not an installed one
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    regenerate()
