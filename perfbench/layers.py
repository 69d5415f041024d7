"""Which `cohom` functions the traced run wraps, and the per-layer metrics
computed from their spans.

Span names are ``<layer>.<function>``; every span name gives the metrics
``<span>_s`` (total time in it, summed over threads) and ``<span>_calls``,
and each number a span counts gives ``<span>_<counter>``.  A few metrics
combine spans and are computed in :func:`layer_metrics`.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from tracer import Target

#: optics element functions that `cohom.validation` exercises directly
ELEMENTS = ("bs_transform", "pbs_route", "hwp_transform", "detune_phase",
            "nmzi_transfer", "with_path", "intensity")


def _run_counts(args, kwargs, counts):
    config = args[0] if args else kwargs["config"]
    return {"pairs": config.n_pairs, "generated": counts.n_generated,
            "postselected": counts.n_postselected}


def targets() -> list:
    """Every function the traced run wraps, the program's checks included."""
    found = [
        Target("cli.main", "cohom.cli", "main"),
        Target("benchio.read_config", "cohom.benchio", "read_config"),
        Target("benchio.simulation_rows", "cohom.benchio", "simulation_rows"),
        Target("benchio.render", "cohom.benchio", "render_results",
               lambda a, k, text: {"bytes": len(text.encode("utf-8"))}),
        Target("montecarlo.scan_tau21", "cohom.montecarlo", "scan_tau21"),
        Target("montecarlo.simulate_run", "cohom.montecarlo", "simulate_run",
               _run_counts),
        Target("montecarlo.outcome_probability_table", "cohom.montecarlo",
               "outcome_probability_table",
               lambda a, k, table: {"rows": len(table)}),
        Target("montecarlo.sample_detuning", "cohom.montecarlo",
               "sample_detuning", lambda a, k, d: {"draws": int(np.size(d))}),
        Target("montecarlo.detector_convolve", "cohom.montecarlo",
               "detector_convolve",
               lambda a, k, t: {"samples": int(np.size(t))}),
        Target("montecarlo.merge", "cohom.montecarlo",
               "CountsAccumulator.merge"),
        Target("analytic.local_intensity", "cohom.analytic",
               "local_intensity"),
        Target("optics.detector_path_coefficients", "cohom.optics",
               "detector_path_coefficients"),
        *(Target("optics.elements", "cohom.optics", name)
          for name in ELEMENTS),
        Target("validation.run_validation", "cohom.validation",
               "run_validation",
               lambda a, k, results: {"passed": sum(r.passed
                                                    for r in results)}),
    ]
    validation = vars(importlib.import_module("cohom.validation"))
    found += [Target("validation.check", "cohom.validation", name,
                     lambda a, k, r: {"label": f"validation.check.{r.name}"})
              for name in sorted(validation)
              if name.startswith("check_") and callable(validation[name])]
    return found


#: metrics named after something other than the span they come from
SOURCES = {
    "montecarlo.self_s": "montecarlo.simulate_run",
    "montecarlo.engine_mpairs_per_s": "montecarlo.simulate_run",
    "montecarlo.postselected_ratio": "montecarlo.simulate_run",
    "montecarlo.point_ms_p50": "montecarlo.simulate_run",
    "montecarlo.point_ms_p97.5": "montecarlo.simulate_run",
    "montecarlo.chunks": "montecarlo.merge",
    "montecarlo.scan_speedup_w2": "montecarlo.scan_tau21",
    "benchio.output_bytes": "benchio.render",
    "validation.checks_passed": "validation.run_validation",
    "cli.self_s": "cli.main",
}


def absent_metrics(declared, measured: dict, absent_spans: set) -> list:
    """Declared metrics that come from a function the program lacks.

    A check that `run_validation` no longer runs counts as absent too.
    """
    def gone(name):
        if name.startswith("validation.check."):
            return ("validation.run_validation" in absent_spans
                    or "validation.run_validation_s" in measured
                    and name not in measured)
        return SOURCES.get(name, name.rsplit("_", 1)[0]) in absent_spans

    return sorted(name for name in declared if gone(name))


def layer_metrics(spans, per_point: bool) -> dict:
    """Per-layer metrics of one traced run from its spans.

    ``per_point`` adds the per-point time percentiles of a scan, whose
    points are the ``simulate_run`` calls.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    metrics = {}
    for name, group in by_name.items():
        metrics[f"{name}_s"] = sum(s.duration for s in group)
        metrics[f"{name}_calls"] = len(group)
        totals = defaultdict(int)
        for span in group:
            for key, value in span.counts.items():
                totals[key] += value
        metrics.update({f"{name}_{key}": value
                        for key, value in totals.items()})

    renames = {"montecarlo.merge_calls": "montecarlo.chunks",
               "benchio.render_bytes": "benchio.output_bytes",
               "validation.run_validation_passed":
                   "validation.checks_passed"}
    for old, new in renames.items():
        if old in metrics:
            metrics[new] = metrics.pop(old)

    main = by_name.get("cli.main")
    if main:
        metrics["cli.self_s"] = sum(s.self_time() for s in main)
    runs = by_name.get("montecarlo.simulate_run")
    if runs:
        metrics["montecarlo.self_s"] = sum(s.self_time() for s in runs)
        busy = metrics["montecarlo.simulate_run_s"]
        pairs = metrics.get("montecarlo.simulate_run_pairs")
        if pairs is not None and busy > 0:
            metrics["montecarlo.engine_mpairs_per_s"] = pairs / busy / 1e6
        generated = metrics.get("montecarlo.simulate_run_generated")
        if generated:
            metrics["montecarlo.postselected_ratio"] = (
                metrics["montecarlo.simulate_run_postselected"] / generated)
        if per_point and len(runs) >= 40:
            point_ms = [s.duration * 1e3 for s in runs]
            metrics["montecarlo.point_ms_p50"] = statistics.median(point_ms)
            # the 39th of 39 cut points into 40 equal groups
            metrics["montecarlo.point_ms_p97.5"] = statistics.quantiles(
                point_ms, n=40)[38]
    return metrics
