#!/usr/bin/env python3
"""Benchmark of the `cohom` command line.

Run from the root of a checkout (the directory holding ``src/cohom`` and
``BENCHMARK.json``)::

    python3 perfbench/run.py --workload simulate-amplitude --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` it runs the CLI in fresh interpreters, one after the
other (a closed loop with one client), for ``--seconds`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` it runs the CLI inside
this process with the program's functions wrapped in timing spans and
reports the per-layer metrics.  Every output is checked by :mod:`gate`;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when every output
is correct, 1 when one is not, 2 when the checkout cannot be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads
from tracer import Tracer
from workloads import WORKLOADS

#: fresh interpreters timed for cli.import_s in a traced run
IMPORT_PROBES = 3
#: calibration kernel time that defines the reference machine speed: its
#: median on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4) in a quiet spell
CALIBRATION_REF_S = 0.075
#: time a fresh interpreter takes to import numpy alone on that machine in
#: a quiet spell; set-up probes are scaled by it rather than by the kernel,
#: whose time tracks interpreter start-up poorly
IMPORT_REF_S = 0.135
#: CPUs one calibration visits, which bounds its cost on large machines
CALIBRATION_CPUS = 4
#: power of the calibration ratio a time is scaled by.  The CLI's time
#: moves about half as much as the kernel's: over 322 CLI runs on that
#: machine, the slope of log CLI time on log kernel time was 0.4-0.8, so
#: scaling by the whole ratio over-corrects.
CALIBRATION_POWER = 0.5
#: a CLI run slower than this is killed and counted as failed
RUN_TIMEOUT_S = 150.0
#: CLI runs (traced rounds) at the least, however short ``--seconds``; two
#: give the rerun comparison something to compare
MIN_RUNS = 2

_PROBE = """\
import sys, time
started = time.perf_counter()
import cohom.cli
imported = time.perf_counter() - started
if sys.argv[1]:
    from cohom.benchio import read_config
    read_config(sys.argv[1])
print(cohom.cli.__file__)
print(imported)
"""


class CheckoutError(RuntimeError):
    """The directory cannot be measured (no program or no BENCHMARK.json)."""


@dataclasses.dataclass
class Outcome:
    """What one workload run found: metrics, run record, failures."""

    metrics: dict
    record: dict
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    failed_runs: int = 0


@dataclasses.dataclass(frozen=True)
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """One checkout being measured: its paths and the environment of the
    interpreters started on it."""

    def __init__(self, root: Path, work: Path, tiny: bool):
        self.root = root
        self.work = work
        self.tiny = tiny
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("COHOM_SEED", None)

    def run(self, argv) -> Proc:
        """Run a fresh interpreter; wall time spans spawn to exit."""
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=self.root,
                                env=self.env)
        # the child stays unreaped until wait4, so its pid cannot be reused
        killer = threading.Timer(RUN_TIMEOUT_S, os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        errors = []
        reader = threading.Thread(
            target=lambda: errors.append(proc.stderr.read()))
        reader.start()
        status = None
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
            if status is None:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.decode("utf-8", "replace"),
                    errors[0].decode("utf-8", "replace"))

    def probe(self, config_path) -> Proc:
        """Import ``cohom.cli`` and read the config in a fresh interpreter."""
        proc = self.run([sys.executable, "-c", _PROBE, config_path or ""])
        lines = proc.stdout.split()
        if proc.exit_code != 0 or len(lines) != 2:
            raise CheckoutError(f"set-up probe failed: {proc.stderr.strip()}")
        if not Path(lines[0]).resolve().is_relative_to(self.root / "src"):
            raise CheckoutError(f"imported cohom from {lines[0]}, "
                                f"not from {self.root / 'src'}")
        return proc

    def import_reference(self) -> Proc:
        """A fresh interpreter that imports numpy and nothing of cohom."""
        return self.run([sys.executable, "-c", "import numpy"])

    def cli(self, argv) -> Proc:
        return self.run([sys.executable, "-m", "cohom.cli", *argv])


def _kernel() -> float:
    """Time a fixed mix of numpy kernels and interpreter work, like the
    CLI's."""
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    for _ in range(40):
        x = rng.normal(0.0, 1.0, 32768)
        np.count_nonzero(rng.random(32768) < 0.5 + 0.5 * np.cos(2.0 * x))
        tally = {}
        for k in range(300):
            tally[k % 7] = tally.get(k % 7, 0) + k
    return time.perf_counter() - started


def calibrate() -> float:
    """Mean time of the calibration kernel run once on each CPU this
    process may use (the first CALIBRATION_CPUS of them).

    On a shared machine each vCPU's speed moves by tens of percent from
    one second to the next, independently of the others, and the CLI may
    run on any of them, so one CPU alone does not track it.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:CALIBRATION_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
    except OSError:  # pinning is not permitted: time it where it runs
        times.append(_kernel())
    finally:
        # restored before any child is started, which would inherit it
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def at_reference_speed(t, before, after):
    """Time ``t`` scaled by the mean of the calibrations on either side."""
    ratio = 2 * CALIBRATION_REF_S / (before + after)
    return t * ratio ** CALIBRATION_POWER


def _median(values):
    return statistics.median(values) if values else None


def _in_process(argv):
    """Run ``cohom.cli.main`` here.

    Returns (exit code, stdout, wall time, error); an exception from the
    program counts as exit code 1 with its traceback as the error.
    """
    import cohom.cli

    buffer = io.StringIO()
    error = ""
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cohom.cli.main(argv)
    except Exception:
        code, error = 1, traceback.format_exc()
    return code, buffer.getvalue(), time.perf_counter() - started, error


class Checker:
    """Gates each distinct output once and counts failed runs.

    Every run of one workload and seed must print the same bytes, and the
    first of them must pass the physics gate.
    """

    def __init__(self, command, params, outcome: Outcome):
        self.command = command
        self.params = params
        self.outcome = outcome
        self.reference = None

    def __call__(self, label, exit_code, text, stderr="", problems=()):
        import gate  # imports the program, so only after prepare()

        problems = list(problems)
        if exit_code != 0:
            problems.append(f"exit code {exit_code}: {stderr.strip()[-300:]}")
        elif self.reference is None:
            self.reference = text
            problems += gate.check_output(self.command, self.params, text)
        elif text != self.reference:
            problems.append("output differs from the first run's bytes")
        self.tally(label, problems)

    def tally(self, label, problems):
        """Count one attempted run, failed if it has any problem."""
        self.outcome.attempted += 1
        if problems:
            self.outcome.failed_runs += 1
            self.outcome.failures += [f"{label}: {p}" for p in problems[:20]]


def run_untraced(bench, workload, seed, seconds, outcome, config_path):
    """End-to-end metrics from CLI runs in fresh interpreters."""
    params = workloads.params(workload, seed, bench.tiny)
    check = Checker(workload.command, params, outcome)
    argv = workloads.cli_args(workload, config_path, seed)
    bench.probe(config_path)  # warm-up: byte-compile, fill the file cache

    pairs = workloads.total_pairs(workload, seed, bench.tiny)
    if pairs is None:
        pairs = _count_validate_pairs(argv, check)

    # Each set-up probe follows an import reference probe and is scaled by
    # it; each CLI run is scaled by the calibrations on either side of it.
    setup, raw_setup, references, runs, wall = [], [], [], [], []
    calibrations = []
    started = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - started < seconds:
        references.append(bench.import_reference().wall_s)
        raw_setup.append(bench.probe(config_path).wall_s)
        setup.append(raw_setup[-1] * IMPORT_REF_S / references[-1])
        calibrations.append(calibrate())
        proc = bench.cli(argv)
        calibrations.append(calibrate())
        check(f"run {len(runs)}", proc.exit_code, proc.stdout, proc.stderr)
        runs.append(proc)
        wall.append(at_reference_speed(proc.wall_s, *calibrations[-2:]))

    wall_s = _median(wall)
    outcome.metrics.update({
        "wall_s": wall_s,
        "mpairs_per_s": pairs / 1e6 / wall_s if pairs else 0.0,
        "setup_s": _median(setup),
        "peak_rss_mb": _median([p.peak_rss_mb for p in runs]),
        "raw_wall_s": _median([p.wall_s for p in runs]),
        "raw_setup_s": _median(raw_setup),
        "import_reference_s": _median(references),
        "calibration_s": _median(calibrations),
        "cpu_s": _median([p.cpu_s for p in runs]),
        "error_rate": outcome.failed_runs / outcome.attempted,
    })
    # the sample counts behind the medians above
    outcome.record["samples"] = {"runs": len(runs),
                                 "setup_probes": len(setup),
                                 "calibrations": len(calibrations)}
    outcome.record["pairs_per_run"] = pairs


def _count_validate_pairs(argv, check) -> int:
    """Pairs `validate` simulates, counted in one in-process run.

    Every end-to-end metric is reported, and non-zero, on every workload,
    so `validate` gets an ``mpairs_per_s`` too.  The suite fixes its own
    sizes, so they are read off the program rather than restated here.
    """
    tracer = Tracer()
    wanted = [t for t in layers.targets()
              if t.span == "montecarlo.simulate_run"]
    with tracer.installed(wanted):
        code, text, _, error = _in_process(argv)
    check("pair count run", code, text, error)
    return sum(span.counts.get("pairs", 0) for span in tracer.spans)


def run_traced(bench, workload, seed, seconds, outcome, config_path,
               declared):
    """Per-layer metrics from in-process runs with the spans installed.

    Each round runs the CLI three ways, which must print the same bytes:
    in a fresh interpreter (for cli.cpu_s), in-process untraced and
    in-process traced (their difference is trace.overhead_s).
    """
    params = workloads.params(workload, seed, bench.tiny)
    check = Checker(workload.command, params, outcome)
    argv = workloads.cli_args(workload, config_path, seed)
    bench.probe(config_path)
    imports = [float(bench.probe(config_path).stdout.split()[1])
               for _ in range(IMPORT_PROBES)]
    targets = layers.targets()
    per_point = workload.command == "scan"

    rounds, plain, traced, cpu, speedups = [], [], [], [], []
    absent = []
    started = time.perf_counter()
    while len(rounds) < MIN_RUNS or time.perf_counter() - started < seconds:
        index = len(rounds)
        label = f"round {index}"
        proc = bench.cli(argv)
        cpu.append(proc.cpu_s)
        check(f"{label} fresh", proc.exit_code, proc.stdout, proc.stderr)
        code, text, wall, error = _in_process(argv)
        plain.append(wall)
        check(f"{label} in-process", code, text, error)
        tracer = Tracer()
        with tracer.installed(targets) as absent:
            code, text, wall, error = _in_process(argv)
        traced.append(wall)
        bad = tracer.nesting_violations()
        check(f"{label} traced", code, text, error,
              [f"{bad} spans not nested inside their parent"] if bad else [])
        rounds.append(layers.layer_metrics(tracer.spans, per_point))
        if per_point:
            speedups.append(_scan_speedup(config_path, seed, index, check))

    metrics = {}
    for name in {n for r in rounds for n in r}:
        metrics[name] = _median([r[name] for r in rounds if name in r])
    metrics["cli.import_s"] = _median(imports)
    metrics["cli.cpu_s"] = _median(cpu)
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    if per_point and None not in speedups:
        metrics["montecarlo.scan_speedup_w2"] = _median(speedups)
    outcome.metrics.update(metrics)

    outcome.record["absent"] = layers.absent_metrics(
        declared, metrics, {t.span for t in absent})
    outcome.record["not_measured"] = sorted(
        n for n in declared
        if n not in metrics and n not in outcome.record["absent"])
    outcome.record["samples"] = {"rounds": len(rounds),
                                 "cli.import_s": len(imports),
                                 "scan_speedup_w2": len(speedups)}


def _scan_speedup(config_path, seed, round_index, check):
    """scan_tau21 time with one worker over its time with two, untraced.

    The order of the two runs alternates between rounds; their counts must
    be identical, or the pair counts as one failed run.  Returns None if
    the program has no such entry point.
    """
    from cohom import montecarlo
    from cohom.benchio import read_config

    try:
        config, scan = read_config(config_path)
        config = dataclasses.replace(config, seed=workloads.cli_seed(seed))
        values = scan.values()
        times, counts = {}, {}
        for workers in ((1, 2) if round_index % 2 else (2, 1)):
            started = time.perf_counter()
            points = montecarlo.scan_tau21(config, values, workers=workers)
            times[workers] = time.perf_counter() - started
            counts[workers] = [p.counts for p in points]
    except (AttributeError, TypeError) as exc:
        check.outcome.record["scan_speedup_error"] = str(exc)
        return None
    differ = ["counts differ between one and two workers"]
    check.tally(f"round {round_index} scan_tau21",
                differ if counts[1] != counts[2] else [])
    return times[1] / times[2]


def machine_record(root: Path, workload, seed) -> dict:
    """Where and what was measured, printed with every result."""
    import cohom.cli

    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "cli_seed": workloads.cli_seed(seed),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
        "source_sha256": digest.hexdigest(),
        "cli_scan_workers": getattr(cohom.cli, "_SCAN_WORKERS", None),
    }


def _commit(root: Path) -> str:
    """HEAD of the checkout's own git directory, without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_spec(root: Path) -> dict:
    """Declared metric names and units, from the checkout's BENCHMARK.json."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckoutError(f"BENCHMARK.json: {exc}") from exc
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def prepare(root: Path) -> None:
    """Make the checkout's program importable here, or explain why not."""
    if not (root / "src" / "cohom" / "cli.py").is_file():
        raise CheckoutError(f"no program at {root / 'src' / 'cohom'}")
    sys.path.insert(0, str(root / "src"))
    import cohom

    if not Path(cohom.__file__).resolve().is_relative_to(root / "src"):
        raise CheckoutError(f"imported cohom from {cohom.__file__}")


def run_workload(bench, workload, seed, seconds, trace, declared) -> Outcome:
    outcome = Outcome(metrics={}, record=machine_record(bench.root, workload,
                                                        seed))
    text = workloads.config_text(workload, seed, bench.tiny)
    config_path = None
    if text is not None:
        config_path = str(bench.work / f"{workload.name}.cfg")
        Path(config_path).write_text(text)
    if trace:
        run_traced(bench, workload, seed, seconds, outcome, config_path,
                   declared)
    else:
        run_untraced(bench, workload, seed, seconds, outcome, config_path)
    return outcome


def _unit(name: str, declared: dict) -> str:
    if name in declared:
        return declared[name]
    if name == "error_rate":
        return "fraction"
    return "s" if name.endswith("_s") else "count"


def _report(outcome: Outcome, declared: dict) -> dict:
    """Print every measured metric; return the declared ones.

    A metric of a function the program no longer has is ``None``, so that
    it cannot be mistaken for a measured value.  One the workload does not
    exercise is 0: the function is there and never called, or the metric
    belongs to another workload.
    """
    print(f"# {outcome.record['workload']}  seed {outcome.record['seed']}  "
          f"runs {outcome.attempted}  failed {outcome.failed_runs}")
    for name in sorted(outcome.metrics):
        print(f"{name:48s} {outcome.metrics[name]:.6g} "
              f"{_unit(name, declared)}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print("record " + json.dumps(outcome.record, sort_keys=True))
    absent = set(outcome.record.get("absent", ()))
    return {name: {"value": None if name in absent
                   else float(outcome.metrics.get(name) or 0.0),
                   "unit": unit}
            for name, unit in declared.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the pair counts, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the running CLI is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        declared = load_spec(root)[args.trace]
        prepare(root)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=root) as work:
            bench = Bench(root, Path(work), args.size == "tiny")
            outcomes = [run_workload(bench, WORKLOADS[name], args.seed,
                                     args.seconds, args.trace, declared)
                        for name in names]
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {o.record["workload"]: _report(o, declared) for o in outcomes}
    correct = not any(o.failures for o in outcomes)
    summary = {
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed_runs for o in outcomes),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
