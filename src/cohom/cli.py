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
configuration error, or a failed write of the data.  Every exit-2 error
is one ``error: …`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
import time
from dataclasses import replace  # perfbench's doctored cli uses it

from .benchio import (
    BenchIOError,
    ConfigParseError,
    RunResult,
    analytic_rows,
    csv_text,
    json_text,
    make_manifest,
    read_config,
    render_results,
    resolve_seed,
    simulation_rows,
)
from .montecarlo import ConfigError, ScanPoint, scan_tau21, simulate_run


def _emit(text: str, out_path) -> None:
    """Write ``text`` to stdout, or whole or not at all to ``out_path``.

    A file target is written as a temporary file beside it, which then
    replaces the target, so a failed write leaves an existing target
    untouched and removes the temporary file.  A device or a pipe (such
    as /dev/stdout) cannot be renamed over and is written directly.  A
    failed write, or flush of stdout, raises BenchIOError naming its target.
    """
    if out_path is None:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise BenchIOError(
                f"<stdout>: {OSError(errno.EBADF, os.strerror(errno.EBADF))}")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # drop the buffered data, or the exit flush retries it (exit 120)
            with contextlib.suppress(OSError, ValueError):  # no descriptor
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            raise BenchIOError(f"<stdout>: {exc}") from exc
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
        # name the target alone, not the temporary file and its pid
        raise BenchIOError(
            f"{out_path}: {OSError(exc.errno, exc.strerror)}") from exc
    finally:
        if atomic:
            with contextlib.suppress(FileNotFoundError):
                os.remove(written)


def _path(text: str) -> str:
    """A file argument.  A path that is empty, or whose last component is
    empty, ``.`` or ``..``, names no file; ``_emit`` would resolve
    ``out/`` and ``out/.`` to ``out`` and replace a file of that name."""
    if os.path.basename(text) in ("", os.curdir, os.pardir):
        raise argparse.ArgumentTypeError(f"must name a file, not {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which ``main`` prints as its one error line;
    argparse builds the subcommands' parsers of this class too."""

    def error(self, message):
        raise ConfigParseError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # before Python 3.13 argparse reads '--opt=--' as an empty list
        for name, value in vars(parsed).items():
            if value == []:
                setattr(parsed, name, "--")
        return parsed


def _progress(args):
    if args.quiet:
        return lambda message: None
    return lambda message: print(message, file=sys.stderr)


def render_combos(fmt: str) -> str:
    # imported here, as in cmd_validate, so that the engine commands skip it
    from .optics import enumerate_combinations

    # ComboRow's fields are the columns; an enum is written as its value
    records = [{name: getattr(value, "value", value)
                for name, value in row._asdict().items()}
               for row in enumerate_combinations()]
    if fmt == "json":
        return json_text(records)
    # a port holds a tuple of photon labels, written "+"-joined
    return csv_text(records[0], (
        [v if isinstance(v, str) else "+".join(v) for v in record.values()]
        for record in records))


def render_chart(fmt: str) -> str:
    from .optics import pair_chart

    chart = pair_chart()
    if fmt == "json":
        return json_text(chart.to_dict())
    return csv_text(("", *chart.col_labels), (
        (label, *(mark.value for mark in row))
        for label, row in zip(chart.row_labels, chart.cells)))


def render_report(results, fmt: str) -> str:
    if fmt == "json":
        return json_text({
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
        })
    return csv_text(("check", "status", "measured", "tolerance", "detail"), (
        (r.name, "pass" if r.passed else "fail", f"{r.measured:.6g}",
         f"{r.tolerance:.6g}", r.detail)
        for r in results))


def _load_config(args):
    config, scan = read_config(args.config)
    if "seed" in args:
        config = resolve_seed(config, args.seed, os.environ)
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
                  [ScanPoint(values[0], simulate_run(config))])
        rows = simulation_rows(config, points)
    elapsed = time.perf_counter() - started
    manifest = make_manifest(args.command, config, scan, elapsed)
    _emit(render_results(RunResult(tuple(rows), manifest), args.format),
          args.out)
    progress(f"{args.command}: done in {elapsed:.2f}s")
    return 0


def cmd_validate(args) -> int:
    # imported here so that the other commands skip its start-up cost
    from .validation import run_validation

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
    parser = _Parser(prog="cohom",
                     description="Heterodyne two-photon interference bench")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, config=False, seed=False):
        sub = subparsers.add_parser(name, help=help_text)
        if config:
            sub.add_argument("--config", type=_path, required=True,
                             help="path to the bench config file")
        if seed:
            sub.add_argument("--seed", default=None,
                             help="override the run seed (beats COHOM_SEED)")
        sub.add_argument("--out", type=_path, default=None,
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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ConfigParseError, ConfigError, BenchIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
