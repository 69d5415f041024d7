"""Tests of the benchmark itself: names, gate, wrapper hygiene.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cohom.montecarlo  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"),
         "--seconds", "0", "--size", "tiny", *args],
        capture_output=True, text=True, timeout=170, cwd=root)


def records(stdout):
    return [json.loads(line[len("record "):])
            for line in stdout.splitlines() if line.startswith("record ")]


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_emits_every_metric(trace):
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    done = run_bench("--workload", "all", "--seed", "3", "--trace",
                     str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(WORKLOADS)
    for metrics in summary["metrics"].values():
        assert {n: m["unit"] for n, m in metrics.items()} == declared
    if trace == 0:
        for metrics in summary["metrics"].values():
            assert all(m["value"] > 0 for m in metrics.values()), metrics
    else:
        measured_somewhere = set()
        for record in records(done.stdout):
            assert record["absent"] == []
            measured_somewhere |= set(declared) - set(record["not_measured"])
        assert measured_somewhere == set(declared)


def _amplitude_csv(n_coinc_13):
    n, h = params(WORKLOADS["simulate-amplitude"], 0, True)["n_pairs"], 0.01
    n_coinc_24 = round(n * h / 6)
    singles = (1 + h) / 2
    values = [0.0, *[singles] * 4, n_coinc_13 / n, n_coinc_24 / n,
              0.0, 0.0, 0.0, 0.0, n_coinc_13, n_coinc_24]
    return (",".join(gate.RESULT_COLUMNS) + "\n"
            + ",".join(format(v, ".12g") for v in values) + "\n")


def test_gate_fails_coincidences_above_the_accidental_bound():
    config = params(WORKLOADS["simulate-amplitude"], 0, True)
    expected = round(config["n_pairs"] * 0.01 / 6)
    assert gate.check_output("simulate", config,
                             _amplitude_csv(expected)) == []
    failures = gate.check_output("simulate", config,
                                 _amplitude_csv(expected + 5000))
    assert failures and "n_coinc_13" in failures[0]


def test_benchmark_exits_nonzero_on_doctored_output(tmp_path):
    shutil.copytree(ROOT / "src" / "cohom", tmp_path / "src" / "cohom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cli = tmp_path / "src" / "cohom" / "cli.py"
    doctor = (
        "_render_results = render_results\n\n\n"
        "def render_results(result, fmt):\n"
        "    rows = tuple(replace(r, n_coinc_13=r.n_coinc_13 + 5000)\n"
        "                 for r in result.rows)\n"
        "    return _render_results(RunResult(rows, result.manifest), fmt)\n"
        "\n\n")
    main_guard = 'if __name__ == "__main__":'
    cli.write_text(cli.read_text().replace(main_guard, doctor + main_guard))
    done = run_bench("--workload", "simulate-amplitude", "--trace", "0",
                     root=tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] >= 1
    assert "n_coinc_13" in done.stdout


def test_a_failed_side_check_counts_as_a_failed_run():
    import run

    outcome = run.Outcome(metrics={}, record={})
    check = run.Checker("validate", None, outcome)
    check.tally("round 0 scan_tau21", [])
    check.tally("round 1 scan_tau21", ["counts differ"])
    assert (outcome.attempted, outcome.failed_runs) == (2, 1)
    assert outcome.failures == ["round 1 scan_tau21: counts differ"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""


def _bindings():
    namespaces = [vars(importlib.import_module(name))
                  for name in tracer.MODULES]
    namespaces.append(vars(cohom.montecarlo.CountsAccumulator))
    return [dict(namespace) for namespace in namespaces]


def test_wrappers_are_restored_after_a_run_and_after_a_raise():
    before = _bindings()
    original = cohom.montecarlo.simulate_run
    tracer_ = tracer.Tracer()
    with tracer_.installed(layers.targets()) as absent:
        assert absent == []
        assert cohom.montecarlo.simulate_run is not original
        cohom.montecarlo.simulate_run(cohom.montecarlo.RunConfig(
            sigma_f=1e6, tau1=1e-6, tau2=1e-6, n_pairs=1000))
    assert _bindings() == before
    assert [s.name for s in tracer_.spans].count(
        "montecarlo.simulate_run") == 1

    with pytest.raises(AttributeError):
        with tracer.Tracer().installed(layers.targets()):
            cohom.montecarlo.simulate_run(None)
    assert _bindings() == before


def test_missing_function_is_reported_absent():
    missing = tracer.Target("montecarlo.gone", "cohom.montecarlo",
                            "no_such_function")
    with tracer.Tracer().installed([missing]) as absent:
        assert absent == [missing]


def test_absent_metrics_are_null_and_unexercised_ones_zero():
    import run

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    measured = {"validation.run_validation_s": 4.0,
                "validation.check.pair-chart_s": 0.001}
    absent = layers.absent_metrics(declared, measured,
                                   {"montecarlo.simulate_run"})
    assert "montecarlo.engine_mpairs_per_s" in absent
    assert "montecarlo.simulate_run_calls" in absent
    assert "validation.check.filter-monotonicity_s" in absent
    assert "validation.check.pair-chart_s" not in absent
    assert "montecarlo.outcome_probability_table_s" not in absent

    outcome = run.Outcome(metrics=measured, record={
        "workload": "validate", "seed": 0, "absent": absent})
    values = {n: m["value"] for n, m in run._report(outcome, declared).items()}
    assert values["montecarlo.engine_mpairs_per_s"] is None
    assert values["montecarlo.outcome_probability_table_s"] == 0.0
    assert values["validation.check.pair-chart_s"] == 0.001
