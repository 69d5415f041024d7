"""End-to-end acceptance gate.

This checkout's ``cohom validate --format json --quiet`` runs once, in one
child process.  Each headline guarantee is a row of ``GATES``, the
validate checks that state it.  Its test judges those checks from the
report's ``measured`` and ``tolerance`` by one rule and prints a single
PASS/FAIL line (written past pytest's capture so the gate is visible in
plain test logs).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cohom
from cohom.validation import CHECKS

#: each headline guarantee and the ``cohom validate`` checks behind it
GATES = {
    "anticorrelated-channels": ("analytic-coincidence-zero",
                                "amplitude-exact-zero", "higher-order-floor",
                                "outcome-table"),
    "classical-contrast": ("classical-baseline", "classical-marginals"),
    "local-intensities": ("intensity-consistency", "intensity-conservation",
                          "amplitude-singles", "classical-singles"),
    "uniform-intensity-limit": ("uniform-limit", "ensemble-quadrature"),
    "combination-tables": ("combination-table", "pair-chart"),
    "element-algebra": ("element-unitarity", "waveplate-balance",
                        "stage-composition"),
    "statistical-machinery": ("rerun-determinism", "filter-monotonicity"),
}


@pytest.fixture
def report(capfd):
    """One visible PASS/FAIL line per gate, written past pytest's capture."""

    def emit(label: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(scope="module")
def validate():
    """This checkout's ``cohom validate`` run: the finished process, the
    checks of its JSON report (none if its stdout is no JSON) and its
    wall time."""
    src = str(Path(cohom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cohom.cli", "validate",
                           "--format", "json", "--quiet"],
                          capture_output=True, text=True, env=env,
                          timeout=180)
    elapsed = time.perf_counter() - started
    try:
        checks = json.loads(proc.stdout)["checks"]
    except ValueError:
        checks = []
    return proc, checks, elapsed


def _judged(check):
    """(holds, shown) for one check of the report, or for ``None`` if the
    report lacks it.  It holds when its measurement is a number within
    its tolerance and the report's status says so too."""
    if check is None:
        return False, "missing"
    measured, tolerance = check["measured"], check["tolerance"]
    holds = (measured is not None and measured <= tolerance
             and check["status"] == "pass")
    shown = "null" if measured is None else f"{measured:.3g}"
    return holds, f"{shown} (tol {tolerance:g}, {check['status']})"


@pytest.mark.parametrize("label", GATES)
def test_headline_gate(label, validate, report):
    _, checks, _ = validate
    by_name = {check["name"]: check for check in checks}
    verdicts = {name: _judged(by_name.get(name)) for name in GATES[label]}
    report(label, all(holds for holds, _ in verdicts.values()),
           ", ".join(f"{name} {shown}"
                     for name, (_, shown) in verdicts.items()))


def test_validate_command_end_to_end(validate, report):
    proc, checks, elapsed = validate
    names = [check["name"] for check in checks]
    ok = proc.returncode == 0 and names == list(CHECKS) and elapsed < 120.0
    report(
        "validate-command", ok,
        f"exit {proc.returncode}, {len(names)} of {len(CHECKS)} checks "
        f"reported, {elapsed:.1f}s (tol 120s)",
    )


def test_every_check_is_in_one_gate():
    # so that a new check cannot go unreported
    assert sorted(name for names in GATES.values() for name in names) == (
        sorted(CHECKS))
