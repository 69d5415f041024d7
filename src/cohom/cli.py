"""Command-line front end for the interferometer bench.

Subcommands:
    enumerate  print the 16-row pair-allocation table
    chart      print the 4x4 detector pairing chart
    analytic   closed-form intensity and coincidence columns over a delay scan
    simulate   Monte Carlo run at a single delay point
    scan       Monte Carlo runs across the configured delay scan
    validate   run the internal consistency suite

Data goes to stdout (or ``--out``); progress goes to stderr and is silenced
by ``--quiet``.  Exit codes: 0 success, 1 validation failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import replace

from .analytic import enumerate_combinations, pair_chart
from .benchio import (
    BenchIOError,
    ConfigParseError,
    RunResult,
    analytic_rows,
    make_manifest,
    read_config,
    render_results,
    resolve_seed,
    simulation_rows,
)
from .montecarlo import ConfigError, ScanPoint, scan_tau21, simulate_run
from .validation import run_validation

COMBO_CSV_HEADER = "path_1,path_2,pol_1,pol_2,port_a,port_b,classification"


def _emit(text: str, out_path) -> None:
    """Write ``text`` to stdout, or whole or not at all to ``out_path``.

    A file target is written as a temporary file beside it, which then
    replaces the target, so a failed write leaves an existing target
    untouched and removes the temporary file.  A device or a pipe (such
    as /dev/stdout) cannot be renamed over and is written directly.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    atomic = os.path.isfile(out_path) or not os.path.exists(out_path)
    target = os.path.realpath(out_path) if atomic else out_path
    written = f"{target}.{os.getpid()}.tmp" if atomic else target
    try:
        with open(written, "x" if atomic else "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(text)
        if atomic:
            os.replace(written, target)
    except OSError as exc:
        raise BenchIOError(f"{out_path}: {exc}") from exc
    finally:
        if atomic:
            with contextlib.suppress(FileNotFoundError):
                os.remove(written)


def _progress(args):
    if args.quiet:
        return lambda message: None
    return lambda message: print(message, file=sys.stderr)


def render_combos(fmt: str) -> str:
    rows = enumerate_combinations()
    if fmt == "json":
        records = [
            {
                "path_1": r.path_1.value,
                "path_2": r.path_2.value,
                "pol_1": r.pol_1.value,
                "pol_2": r.pol_2.value,
                "port_a": list(r.port_a),
                "port_b": list(r.port_b),
                "classification": r.classification.value,
            }
            for r in rows
        ]
        return json.dumps(records, indent=2) + "\n"
    lines = [COMBO_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.path_1.value},{r.path_2.value},{r.pol_1.value},"
            f"{r.pol_2.value},{'+'.join(r.port_a)},{'+'.join(r.port_b)},"
            f"{r.classification.value}"
        )
    return "\n".join(lines) + "\n"


def render_chart(fmt: str) -> str:
    chart = pair_chart()
    if fmt == "json":
        return json.dumps(chart.to_dict(), indent=2) + "\n"
    lines = ["," + ",".join(chart.col_labels)]
    for label, row in zip(chart.row_labels, chart.cells):
        lines.append(label + "," + ",".join(mark.value for mark in row))
    return "\n".join(lines) + "\n"


def render_report(results, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "status": "pass" if r.passed else "fail",
                    # strict JSON: a NaN measurement is null
                    "measured": (r.measured if math.isfinite(r.measured)
                                 else None),
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    lines = ["check,status,measured,tolerance,detail"]
    for r in results:
        status = "pass" if r.passed else "fail"
        lines.append(
            f"{r.name},{status},{r.measured:.6g},{r.tolerance:.6g},{r.detail}"
        )
    return "\n".join(lines) + "\n"


def _load_config(args):
    config, scan = read_config(args.config)
    if "seed" in args:
        config = replace(config, seed=resolve_seed(args.seed, os.environ,
                                                   config.seed))
    if args.command != "simulate" and scan is None:
        raise ConfigParseError(
            "this command scans tau21; the config must set the "
            "tau21_scan_* keys instead of tau2_s")
    if args.command == "simulate" and scan is not None:
        raise ConfigParseError(
            "this command runs a single point; the config must set tau2_s, "
            "not the tau21_scan_* keys")
    return config, scan


def cmd_enumerate(args) -> int:
    _emit(render_combos(args.format), args.out)
    return 0


def cmd_chart(args) -> int:
    _emit(render_chart(args.format), args.out)
    return 0


def cmd_table(args) -> int:
    """analytic, simulate and scan: one result row per delay point."""
    progress = _progress(args)
    config, scan = _load_config(args)
    values = [config.tau2 - config.tau1] if scan is None else scan.values()
    started = time.perf_counter()
    if args.command == "analytic":
        progress(f"analytic: {len(values)} scan points")
        rows = analytic_rows(config, values)
    else:
        progress(f"{args.command}: {len(values)} point(s) x {config.n_pairs} "
                 f"pairs, mode={config.mode}, seed={config.seed}")
        points = (scan_tau21(config, values) if scan is not None else
                  [ScanPoint(values[0], config, simulate_run(config))])
        rows = simulation_rows(points)
    elapsed = time.perf_counter() - started
    manifest = make_manifest(args.command, config, scan, elapsed)
    _emit(render_results(RunResult(tuple(rows), manifest), args.format),
          args.out)
    progress(f"{args.command}: done in {elapsed:.2f}s")
    return 0


def cmd_validate(args) -> int:
    progress = _progress(args)
    results = run_validation(progress=progress)
    _emit(render_report(results, args.format), args.out)
    failures = [r for r in results if not r.passed]
    if failures:
        progress(f"validate: {len(failures)} of {len(results)} checks failed")
        return 1
    progress(f"validate: all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohom",
        description="Heterodyne two-photon interference bench",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, config=False, seed=False):
        sub = subparsers.add_parser(name, help=help_text)
        if config:
            sub.add_argument("--config", required=True,
                             help="path to the bench config file")
        if seed:
            sub.add_argument("--seed", type=int, default=None,
                             help="override the run seed (beats COHOM_SEED)")
        sub.add_argument("--out", default=None,
                         help="write output to this file instead of stdout")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress progress messages (never data)")
        sub.set_defaults(handler=handler)
        return sub

    add("enumerate", cmd_enumerate,
        "print the 16-row pair-allocation table")
    add("chart", cmd_chart, "print the 4x4 detector pairing chart")
    add("analytic", cmd_table,
        "closed-form columns over the configured delay scan", config=True)
    add("simulate", cmd_table, "Monte Carlo run at a single delay point",
        config=True, seed=True)
    add("scan", cmd_table, "Monte Carlo runs across the configured delay scan",
        config=True, seed=True)
    add("validate", cmd_validate, "run the internal consistency suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigParseError, ConfigError, BenchIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
