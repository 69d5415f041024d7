"""Command-line behavior: exit codes, formats, seeds, stream separation."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohom
from cohom import cli
from cohom.benchio import ConfigParseError, parse_config
from cohom.cli import _emit
from cohom.optics import pair_chart
from cohom.validation import check_outcome_table

POINT_CFG = """\
[bench]
sigma_f_hz = 2.5e5
tau1_s = 1e-6
tau2_s = 1e-6

[source]
n_pairs = 20000

[run]
seed = 42
"""

SCAN_CFG = """\
[bench]
sigma_f_hz = 2.5e5
tau1_s = 1e-6
tau21_scan_start_s = -1e-6
tau21_scan_stop_s = 1e-6
tau21_scan_steps = 5

[source]
n_pairs = 10000

[run]
seed = 7
"""


class _Tee(io.StringIO):
    """Keeps what is written, and passes it on to ``target``."""

    def __init__(self, target):
        super().__init__()
        self.target = target

    def write(self, text):
        self.target.write(text)
        return super().write(text)


def main(argv) -> int:
    """``cohom.cli.main``, checking that an exit 2 writes exactly one
    stderr line, and that it begins ``error:``."""
    stderr = _Tee(sys.stderr)
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code == 2:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH,
    for running the CLI as a child process; a RuntimeWarning is an error
    there too."""
    src = str(Path(cohom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def point_cfg(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(POINT_CFG)
    return str(path)


@pytest.fixture
def scan_cfg(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(SCAN_CFG)
    return str(path)


ENUMERATE_CSV = """\
path_1,path_2,pol_1,pol_2,port_a,port_b,classification
U,U,H,H,,H_1^U+H_2^U,same-path-excluded
U,U,H,V,V_2^U,H_1^U,same-path-excluded
U,U,V,H,V_1^U,H_2^U,same-path-excluded
U,U,V,V,V_1^U+V_2^U,,same-path-excluded
U,D,H,H,H_2^D,H_1^U,cross-path-kept
U,D,H,V,,H_1^U+V_2^D,single-port-excluded
U,D,V,H,V_1^U+H_2^D,,single-port-excluded
U,D,V,V,V_1^U,V_2^D,cross-path-kept
D,U,H,H,H_1^D,H_2^U,cross-path-kept
D,U,H,V,H_1^D+V_2^U,,single-port-excluded
D,U,V,H,,V_1^D+H_2^U,single-port-excluded
D,U,V,V,V_2^U,V_1^D,cross-path-kept
D,D,H,H,H_1^D+H_2^D,,same-path-excluded
D,D,H,V,H_1^D,V_2^D,same-path-excluded
D,D,V,H,H_2^D,V_1^D,same-path-excluded
D,D,V,V,,V_1^D+V_2^D,same-path-excluded
"""

CHART_CSV = """\
,H_1^D,H_2^D,V_1^U,V_2^U
H_1^U,1,1,,1d
H_2^U,1,,1d,
V_1^D,,1d,1,1
V_2^D,1d,,1,
"""


def _json_lines(payload) -> str:
    """``payload`` as two-space indented JSON text with a final newline."""
    return json.dumps(payload, indent=2) + "\n"


class TestTables:
    """The enumerate and chart outputs, byte for byte."""

    def run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_enumerate_csv(self, capsys):
        assert self.run(capsys, "enumerate") == ENUMERATE_CSV

    def test_enumerate_json(self, capsys):
        header, *rows = (line.split(",")
                         for line in ENUMERATE_CSV.splitlines())
        records = [{key: (value.split("+") if value else [])
                    if key.startswith("port_") else value
                    for key, value in zip(header, row)} for row in rows]
        assert self.run(capsys, "enumerate", "--format", "json") == (
            _json_lines(records))

    def test_chart_csv(self, capsys):
        assert self.run(capsys, "chart") == CHART_CSV

    def test_chart_json(self, capsys):
        (_, *cols), *rows = (line.split(",")
                             for line in CHART_CSV.splitlines())
        payload = {"row_labels": [row[0] for row in rows],
                   "col_labels": cols,
                   "cells": [row[1:] for row in rows]}
        assert self.run(capsys, "chart", "--format", "json") == (
            _json_lines(payload))
        assert payload == pair_chart().to_dict()


def _strict_json(text: str):
    """``text`` read as JSON; a NaN or Infinity literal fails the read."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class Csv:
    """Strict CSV: ``csv.reader`` reads a header and ``rows`` rows, each
    as wide as the header."""
    rows: int


@dataclass(frozen=True)
class Json:
    """Strict JSON, as ``_strict_json`` reads it."""


@dataclass(frozen=True)
class Same:
    """The stdout of the case named ``name``, byte for byte; with
    ``mask_clock``, but for the manifest's ``wall_clock_s``."""
    name: str
    mask_clock: bool = False


class Prefix(str):
    """The start of a case's stderr, where the rest of the line is not the
    program's own text (argparse's, or the operating system's)."""


@dataclass
class Case:
    """One ``cohom`` invocation and what it must print.

    ``files`` (name: text or bytes) are written into the otherwise empty
    directory the case runs in, and ``env`` is set in an environment
    without COHOM_SEED.  ``out`` is a ``Csv``, ``Json`` or ``Same`` check,
    or the exact stdout; ``err`` is the exact stderr or a ``Prefix`` of it.
    """
    name: str
    argv: tuple
    out: object = ""
    err: str = ""
    code: int = 0
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)


def _with_mode(text: str, mode: str) -> str:
    return text + f"mode = {mode}\n"


POINT = {"point.cfg": POINT_CFG}
SCAN = {"scan.cfg": SCAN_CFG}
#: 2e5 classical slots at mu = 1, whose 3-click slots fill more than one
#: jitter-stamp block
MU1 = {"point.cfg": _with_mode(POINT_CFG.replace(
    "n_pairs = 20000", "n_pairs = 200000\nmean_photon_number = 1"),
    "classical")}
SIMULATE = ("simulate", "--config", "point.cfg", "--quiet")
AS_JSON = ("--format", "json")


def _rejected(name, argv, err, files=POINT, env=None) -> Case:
    return Case(name, argv, err=err, code=2, files=files, env=env or {})


def _bad_config(name, text, err, command="simulate") -> Case:
    return _rejected(name, (command, "--config", "bad.cfg", "--quiet"), err,
                     files={"bad.cfg": text})


def _seed_rejected(name, source, value, err) -> Case:
    if source == "--seed":
        return _rejected(f"seed-flag-{name}", (*SIMULATE, "--seed", value),
                         f"error: --seed: {err}\n")
    return _rejected(f"seed-env-{name}", SIMULATE,
                     f"error: COHOM_SEED: {err}\n", env={"COHOM_SEED": value})


#: every command's checked outputs, and every way a run is rejected
CASES = [
    Case(f"{command}-{fmt}", (command, "--quiet", "--format", fmt),
         Csv(rows) if fmt == "csv" else Json())
    for command, rows in (("enumerate", 16), ("chart", 4), ("validate", 19))
    for fmt in ("csv", "json")
]
# each result table reads back strictly, and a rerun writes the same
# bytes (a JSON one but for the wall clock)
for mode in ("amplitude", "classical"):
    for command, config, text, rows in (
            ("simulate", "point.cfg", POINT_CFG, 1),
            ("analytic", "scan.cfg", SCAN_CFG, 5),
            ("scan", "scan.cfg", SCAN_CFG, 5)):
        argv = (command, "--config", config, "--quiet")
        files = {config: _with_mode(text, mode)}
        run = f"{command}-{mode}"
        CASES += [
            Case(f"{run}-csv", argv, Csv(rows), files=files),
            Case(f"{run}-csv-rerun", argv, Same(f"{run}-csv"), files=files),
            Case(f"{run}-json", (*argv, *AS_JSON), Json(), files=files),
            Case(f"{run}-json-rerun", (*argv, *AS_JSON),
                 Same(f"{run}-json", mask_clock=True), files=files),
        ]
CASES += [
    Case("classical-mu1-csv", SIMULATE, Csv(1), files=MU1),
    Case("classical-mu1-csv-rerun", SIMULATE, Same("classical-mu1-csv"),
         files=MU1),
    # a classical spread whose multiples overflow a float, at zero delay
    Case("classical-sigma-f-1e307", SIMULATE, Csv(1), files={
        "point.cfg": _with_mode(POINT_CFG.replace("2.5e5", "1e307").replace(
            "1e-6", "0"), "classical")}),
    # jitter stamps whose differences overflow
    Case("classical-pulse-sigma-1e308", SIMULATE, Csv(1), files={
        "point.cfg": "[run]\nmode = classical\n[source]\n"
                     "mean_photon_number = 1\n[detector]\n"
                     "pulse_sigma_s = 1e308\n[bench]\nsigma_f_hz = 2.5e5\n"
                     "tau1_s = 1e-6\ntau2_s = 1e-6\n"}),
    # the file, COHOM_SEED and --seed read one integer grammar
    Case("seed-file", ("simulate", "--config", "seeded.cfg", "--quiet"),
         Csv(1), files={"seeded.cfg": POINT_CFG.replace("42", "1e3")}),
    Case("seed-env", SIMULATE, Same("seed-file"), files=POINT,
         env={"COHOM_SEED": "1e3"}),
    Case("seed-flag", (*SIMULATE, "--seed", "1e3"), Same("seed-file"),
         files=POINT),
    Case("seed-flag-digits", (*SIMULATE, "--seed", "1000"),
         Same("seed-file"), files=POINT),
    _seed_rejected("letters", "COHOM_SEED", "abc", "not an integer: 'abc'"),
    _seed_rejected("control-character", "COHOM_SEED", "5\x01",
                   "not an integer: '5\\x01'"),
    _seed_rejected("bare-prefix", "--seed", "0x", "not an integer: '0x'"),
    _rejected("seed-flag-dashes", (*SIMULATE, "--seed=--"),
              "error: --seed: not an integer: '--'\n"),
    *(_seed_rejected("negative", source, "-1",
                     "must be a non-negative integer")
      for source in ("--seed", "COHOM_SEED")),
    *(_seed_rejected(name, source, text, f"not an integer: {text!r}")
      for name, text in (("fullwidth", "\uff11\uff10"),
                         ("arabic-indic", "\u0663"))
      for source in ("--seed", "COHOM_SEED")),
    _bad_config("config-seed-negative", POINT_CFG.replace("42", "-1"),
                "error: line 10, column 8: seed: must be a non-negative "
                "integer\n"),
    _rejected("analytic-seed", ("analytic", "--config", "scan.cfg", "--seed",
                                "3"),
              "error: unrecognized arguments: --seed 3\n", files=SCAN),
    # a config of the wrong kind for its command
    _rejected("analytic-point-config", ("analytic", "--config", "point.cfg",
                                        "--quiet"),
              "error: this command scans tau21; the config must set the "
              "tau21_scan_* keys instead of tau2_s\n"),
    _rejected("simulate-scan-config", ("simulate", "--config", "scan.cfg",
                                       "--quiet"),
              "error: this command runs a single point; the config must set "
              "tau2_s, not the tau21_scan_* keys\n", files=SCAN),
    # every malformed config is rejected where it is written
    _rejected("config-missing", ("simulate", "--config", "no.cfg", "--quiet"),
              "error: no.cfg: [Errno 2] No such file or directory: "
              "'no.cfg'\n", files={}),
    _rejected("config-dashes", ("simulate", "--config=--", "--quiet"),
              "error: --: [Errno 2] No such file or directory: '--'\n"),
    _bad_config("config-unknown-key", "[run]\ncolour = red\n",
                "error: line 2, column 1: unknown key 'colour' in [run]\n"),
    *(_bad_config(f"config-sigma-f-{value}", POINT_CFG.replace("2.5e5", value),
                  "error: line 2, column 14: sigma_f = 2*pi * sigma_f_hz: "
                  "must be finite and >= 0\n")
      # 2*pi * 1.7e308 overflows though sigma_f_hz is finite
      for value in ("-1", "1.7e308")),
    *(_bad_config(f"config-n-pairs-{value}",
                  POINT_CFG.replace("20000", value),
                  f"error: line 7, column 11: {err}\n")
      for value, err in [
          *((v, f"not an integer: {v!r}") for v in ("inf", "nan", "1e400",
                                                     "-inf")),
          (str(2**63), "n_pairs: must be an integer in [1, 2**63 - 1]")]),
    _bad_config("config-not-utf8", b"[bench]\nsigma_f_hz = 2.5e5\xff\n",
                "error: line 2, column 19: not UTF-8: byte 0xff\n"),
    # the form feed and NEL before the bad byte break no line
    _bad_config("config-not-utf8-line-count",
                b"[bench]\r\n# a\x0c b\xc2\x85 c\nsigma_f_hz = \xff\n",
                "error: line 3, column 14: not UTF-8: byte 0xff\n"),
    _bad_config("config-line-break",
                "[bench]\nsigma_f_hz = 2.5e5\x0cx\ntau1_s = 1e-6\n",
                "error: line 2, column 19: line break '\\x0c' inside a line; "
                "config lines end at '\\n'\n"),
    _bad_config("config-control-character",
                "[bench]\nsigma_f_hz = 1e6\x1f\ntau1_s = 1e-6\n",
                "error: line 2, column 17: control character '\\x1f' in a "
                "line\n"),
]
for command in ("analytic", "scan"):
    CASES += [
        *(_bad_config(f"{command}-{key}-{value}", re.sub(
            f"(?m)^{key} = .*$", f"{key} = {value}", SCAN_CFG),
            f"error: {where}: tau2 = tau1_s + {key}: must be finite and "
            f">= 0\n", command)
          for key, value, where in [
              ("tau21_scan_start_s", "nan", "line 4, column 22"),
              ("tau21_scan_stop_s", "nan", "line 5, column 21"),
              ("tau21_scan_stop_s", "inf", "line 5, column 21"),
              ("tau21_scan_start_s", "-inf", "line 4, column 22"),
              ("tau21_scan_stop_s", "-5e-6", "line 5, column 21")]),
        # tau2 = tau1 + stop overflows; every point used to run, the last
        # one at tau2 = inf
        *(_bad_config(f"{command}-tau2-overflow-from-{start}", SCAN_CFG
                      .replace("tau1_s = 1e-6", "tau1_s = 1e308")
                      .replace("start_s = -1e-6", f"start_s = {start}")
                      .replace("stop_s = 1e-6", "stop_s = 1e308"),
                      "error: line 5, column 21: tau2 = tau1_s + "
                      "tau21_scan_stop_s: must be finite and >= 0\n", command)
          for start in ("0", "-1e308")),
        _bad_config(f"{command}-huge-steps",
                    SCAN_CFG.replace("steps = 5", "steps = 1000000000000"),
                    "error: line 6, column 20: scan steps must be <= "
                    "1000000\n", command),
    ]
CASES += [
    # usage errors
    *(_rejected(f"usage-{argv[0] if argv else 'no-command'}", argv,
                Prefix(err))
      for argv, err in [
          (("enumerate", "--format", "xml"),
           "error: argument --format: invalid choice: 'xml'"),
          (("frobnicate",), "error: argument command: invalid choice: "
                            "'frobnicate'"),
          ((), "error: the following arguments are required: command"),
          (("simulate",), "error: the following arguments are required: "
                          "--config"),
          (("chart", "--seed", "3"), "error: unrecognized arguments: "
                                     "--seed 3")]),
    # a path that names no file is rejected before anything runs, and a
    # failed write leaves every file as it was
    _rejected("config-path-empty", ("simulate", "--config", "", "--quiet"),
              "error: argument --config: must name a file, not ''\n"),
    _rejected("config-path-dir", ("simulate", "--config", "point.cfg/",
                                  "--quiet"),
              "error: argument --config: must name a file, not "
              "'point.cfg/'\n"),
    *(_rejected(f"out-path-{name}", ("validate", "--quiet", "--out", target),
                f"error: argument --out: must name a file, not {target!r}\n",
                files={"f": "hi\n"})
      for name, target in (("empty", ""), ("file-slash", "f/"),
                           ("file-dot", "f/."), ("missing-dir", "nodir/"))),
    _rejected("out-unwritable", ("enumerate", "--out", "nodir/x.csv"),
              "error: nodir/x.csv: [Errno 2] No such file or directory\n"),
]
CASE_BY_NAME = {case.name: case for case in CASES}


def _tree(root: Path) -> dict:
    """Every file (its bytes) and directory (None) under ``root``."""
    return {str(path.relative_to(root)):
            path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def run_case(case: Case, root: Path, capsys, monkeypatch) -> str:
    """``case`` run by ``cohom.cli.main`` in a directory of its own under
    ``root``: checks its exit code and stderr, and the rules every case
    keeps, and returns its stdout."""
    work = root / case.name / "work"
    work.mkdir(parents=True)
    for name, data in case.files.items():
        (work / name).write_bytes(
            data if isinstance(data, bytes) else data.encode())
    before = _tree(work.parent)
    with monkeypatch.context() as patch:
        patch.chdir(work)
        patch.delenv("COHOM_SEED", raising=False)
        for key, value in case.env.items():
            patch.setenv(key, value)
        code = main(list(case.argv))  # one error: line on exit 2
    out, err = capsys.readouterr()
    assert code == case.code, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    if code == 0 and "--quiet" in case.argv:
        assert err == ""
    assert (err.startswith(case.err) if isinstance(case.err, Prefix)
            else err == case.err), err
    # nor beside it: --out '' once wrote its temporary file there
    assert _tree(work.parent) == before
    return out


def _mask_clock(text: str) -> str:
    return re.sub(r'"wall_clock_s": [^,\n]*', '"wall_clock_s": 0', text)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_cli_case(case, tmp_path, capsys, monkeypatch):
    out = run_case(case, tmp_path, capsys, monkeypatch)
    if isinstance(case.out, Csv):
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == case.out.rows + 1
        assert all(len(row) == len(rows[0]) for row in rows)
    elif isinstance(case.out, Json):
        _strict_json(out)
    elif isinstance(case.out, Same):
        other = run_case(CASE_BY_NAME[case.out.name], tmp_path, capsys,
                         monkeypatch)
        if case.out.mask_clock:
            out, other = _mask_clock(out), _mask_clock(other)
        assert out == other
    else:
        assert out == case.out


def test_every_command_is_read_strictly_in_both_formats():
    # so that an edit of the table cannot drop a command's format unseen
    def fmt(argv):
        return (argv[argv.index("--format") + 1] if "--format" in argv
                else "csv")

    commands, = (action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert len(CASE_BY_NAME) == len(CASES)
    reads = {(case.argv[0], fmt(case.argv), type(case.out))
             for case in CASES if isinstance(case.out, (Csv, Json))}
    assert {(command, *kind) for command in commands
            for kind in (("csv", Csv), ("json", Json))} <= reads


class TestAnalytic:
    def test_columns(self, scan_cfg, capsys):
        assert main(["analytic", "--config", scan_cfg, "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            i1, i3 = float(cells[1]), float(cells[3])
            assert i1 + i3 == pytest.approx(1.0, abs=1e-11)
            assert cells[5] == "0" and cells[6] == "0"  # R13, R24


class TestSimulateAndScan:
    def test_scan_rows_and_rerun(self, scan_cfg, capsys):
        assert main(["scan", "--config", scan_cfg, "--quiet"]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert len(lines) == 6
        assert [float(l.split(",")[0]) for l in lines[1:]] == [
            -1e-6, -5e-7, 0.0, 5e-7, 1e-6]
        assert main(["scan", "--config", scan_cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, point_cfg, tmp_path, capsys):
        target = tmp_path / "run.csv"
        code = main(["simulate", "--config", point_cfg, "--quiet",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("tau21_s,")

    def test_json_is_strict_when_g2_is_undefined(self, tmp_path, capsys):
        # three slots at mu = 0.01 leave detectors dark: g2 is undefined
        path = tmp_path / "dark.cfg"
        path.write_text(POINT_CFG.replace("n_pairs = 20000", "n_pairs = 3\n"
                                          "mean_photon_number = 0.01")
                        + "mode = classical\n")
        code = main(["simulate", "--config", str(path), "--quiet",
                     "--format", "json"])
        assert code == 0
        row = _strict_json(capsys.readouterr().out)["rows"][0]
        for key in ("g2_13", "g2_13_err", "g2_24", "g2_24_err"):
            assert row[key] is None

    def test_json_manifest(self, point_cfg, capsys):
        code = main(["simulate", "--config", point_cfg, "--quiet",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["command"] == "simulate"
        assert payload["manifest"]["seed"] == 42
        assert len(payload["rows"]) == 1


#: (command, config, where the seed comes from): the seed of a JSON
#: run's manifest config is the one the run used
RERUN_CASES = [(command, text, seed_from)
               for command, text in (("simulate", POINT_CFG),
                                     ("scan", SCAN_CFG))
               for seed_from in ("file", "--seed", "COHOM_SEED")]
RERUN_CASES.append(("analytic", SCAN_CFG, "file"))


class TestRerunFromManifest:
    @pytest.mark.parametrize("mode", ["amplitude", "classical"])
    @pytest.mark.parametrize("command, text, seed_from", RERUN_CASES)
    def test_config_file_reruns_byte_identical_csv(
            self, tmp_path, capsys, monkeypatch, command, text, seed_from,
            mode):
        path = tmp_path / "run.cfg"
        path.write_text(text + f"mode = {mode}\n")
        argv = [command, "--config", str(path), "--quiet"]
        monkeypatch.delenv("COHOM_SEED", raising=False)
        if seed_from == "--seed":
            argv += ["--seed", "1234"]
        elif seed_from == "COHOM_SEED":
            monkeypatch.setenv("COHOM_SEED", "1234")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        if seed_from != "file":
            assert manifest["seed"] == 1234

        monkeypatch.delenv("COHOM_SEED", raising=False)
        rerun = tmp_path / "rerun.cfg"
        rerun.write_text(manifest["config_file"])
        assert main([command, "--config", str(rerun), "--quiet"]) == 0
        assert capsys.readouterr().out == first


class TestSeedPrecedence:
    def run_seed(self, cfg, capsys, extra=()):
        code = main(["simulate", "--config", cfg, "--quiet",
                     "--format", "json", *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)["manifest"]["seed"]

    def test_flag_beats_env_beats_file(self, point_cfg, capsys, monkeypatch):
        assert self.run_seed(point_cfg, capsys) == 42
        monkeypatch.setenv("COHOM_SEED", "99")
        assert self.run_seed(point_cfg, capsys) == 99
        assert self.run_seed(point_cfg, capsys, ("--seed", "7")) == 7

    @pytest.mark.parametrize("text, seed", [
        ("0x10", 16), ("010", 10), ("1_0", 10), ("1e3", 1000),
        ("09007199254740993", 9007199254740993)])
    def test_one_integer_grammar(self, point_cfg, tmp_path, capsys,
                                 monkeypatch, text, seed):
        path = tmp_path / "seeded.cfg"
        path.write_text(POINT_CFG.replace("seed = 42", f"seed = {text}"))
        assert self.run_seed(str(path), capsys) == seed
        assert self.run_seed(point_cfg, capsys, (f"--seed={text}",)) == seed
        monkeypatch.setenv("COHOM_SEED", text)
        assert self.run_seed(point_cfg, capsys) == seed


class TestErrors:
    @pytest.mark.parametrize("argv", [["-h"], ["simulate", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cohom")



#: the values of the config documents below: zero, the least subnormal,
#: the bench's own scales, and magnitudes at the top of the float range
EDGE_VALUES = (0.0, 5e-324, 1e-9, 1e-6, 1.0, 1e300, 1e307, 1.7e308)


@st.composite
def edge_documents(draw):
    """Every key but the mode at an edge value, scan bounds of either
    sign: ``(the keys of a single point, those of a scan, the rest)``."""
    def value(key, values=EDGE_VALUES):
        return f"{key} = {draw(st.sampled_from(values))!r}"

    bound = EDGE_VALUES + tuple(-v for v in EDGE_VALUES)
    bench = ["[bench]", value("sigma_f_hz"), value("tau1_s")]
    rest = ["[source]", value("mean_photon_number"),
            f"n_pairs = {draw(st.integers(1, 2000))}",
            value("higher_order_ratio"), "[detector]", value("pulse_sigma_s"),
            value("coincidence_window_s")]
    scan = [value("tau21_scan_start_s", bound),
            value("tau21_scan_stop_s", bound),
            f"tau21_scan_steps = {draw(st.integers(1, 3))}"]
    return bench + [value("tau2_s")], bench + scan, rest


def run_document(command: str, text: str) -> tuple:
    """``cohom <command>`` on ``text`` as its config file: the exit code
    and stderr.  A RuntimeWarning is raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edge.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--config", path, "--quiet"])
    return code, err.getvalue()


class TestAcceptedConfigsRun:
    @given(edge_documents(), st.sampled_from(["amplitude", "classical"]))
    @settings(max_examples=300, deadline=None)
    def test_what_the_parser_accepts_the_engines_run(self, documents, mode):
        point, scan, rest = documents
        for bench, commands in ((point, ["simulate"]),
                                (scan, ["analytic", "scan"])):
            text = "\n".join(bench + rest + ["[run]", f"mode = {mode}", ""])
            try:
                parse_config(text)
                expected = (0, "")
            except ConfigParseError as err:
                assert err.line is not None, text
                expected = (2, f"error: {err}\n")
            for command in commands:
                assert run_document(command, text) == expected, (command,
                                                                 text)


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("command", ["enumerate", "validate"])
def test_failed_stdout_write_exits_2(failing, command, monkeypatch, capsys):
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    stdout = io.StringIO()
    monkeypatch.setattr(stdout, failing, disk_full)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: <stdout>: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("target", ["full", "broken-pipe", "closed"])
@pytest.mark.parametrize("command", ["enumerate", "validate", "simulate"])
def test_failed_stdout_write_exits_2_at_interpreter_exit(command, target,
                                                         point_cfg):
    # run as the console script runs, sys.exit(main()): a block-buffered
    # stdout keeps the unwritten data, which the interpreter flushes again
    # at exit; that must not turn 2 into 120
    argv = [sys.executable, "-m", "cohom.cli", command, "--quiet"]
    if command == "simulate":
        argv += ["--config", point_cfg]
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    stdout = None
    if target == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
        expected = "[Errno 28] No space left on device"
    elif target == "broken-pipe":
        reader, stdout = os.pipe()
        os.close(reader)
        expected = "[Errno 32] Broken pipe"
    else:
        # with descriptor 1 closed at start-up, sys.stdout is None
        argv = ["/bin/sh", "-c", 'exec "$@" >&-', "sh", *argv]
        expected = "[Errno 9] Bad file descriptor"
    try:
        proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=60)
    finally:
        if stdout is not None:
            os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr == f"error: <stdout>: {expected}\n"


class TestAtomicOut:
    def test_failed_replace_keeps_target(self, point_cfg, tmp_path, capsys,
                                         monkeypatch):
        target = tmp_path / "run.csv"
        target.write_text("previous\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        code = main(["simulate", "--config", point_cfg, "--quiet",
                     "--out", str(target)])
        assert code == 2
        assert "run.csv" in capsys.readouterr().err
        assert target.read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["point.cfg", "run.csv"]

    def test_failed_write_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous\n")
        with pytest.raises(UnicodeEncodeError):
            _emit("half written \ud800", str(target))
        assert target.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_replaces_whole_target(self, tmp_path, capsys):
        target = tmp_path / "chart.csv"
        target.write_text("x" * 10_000)
        assert main(["chart", "--out", str(target)]) == 0
        assert main(["chart"]) == 0
        assert target.read_text() == capsys.readouterr().out
        assert os.listdir(tmp_path) == ["chart.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_pipe_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        assert main(["enumerate", "--out", str(pipe)]) == 0
        reader.join(10)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert received and received[0].startswith("path_1,path_2,")


class TestValidate:
    def test_report_and_exit_zero(self, capsys):
        assert main(["validate", "--quiet"]) == 0
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert lines[0] == "check,status,measured,tolerance,detail"
        assert len(lines) >= 15
        assert all(",pass," in line for line in lines[1:])
        assert out.err == ""  # --quiet silences progress

    def test_csv_detail_reads_back_whole(self, capsys):
        assert main(["validate", "--quiet"]) == 0
        rows = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
        details = {row[0]: row[4] for row in rows}
        assert "," in check_outcome_table().detail
        assert details["outcome-table"] == check_outcome_table().detail

    def test_perturbed_splitter_fails(self, capsys, break_splitter):
        break_splitter(1e-3)
        code = main(["validate", "--quiet"])
        assert code == 1
        report = capsys.readouterr().out
        assert "element-unitarity,fail," in report

    def test_nan_perturbation_fails(self, capsys, break_splitter):
        break_splitter(math.nan)
        code = main(["validate", "--quiet", "--format", "json"])
        assert code == 1
        payload = _strict_json(capsys.readouterr().out)
        check, = [c for c in payload["checks"]
                  if c["name"] == "element-unitarity"]
        assert check["status"] == "fail" and check["measured"] is None

    def test_nan_splitter_writes_full_report(self, capsys, break_splitter):
        # the fault also leaves amplitude on both arms of a splitter
        # output; stage-composition must fail, not raise
        break_splitter(math.nan)
        assert main(["validate"]) == 1
        out = capsys.readouterr()
        rows = out.out.strip().splitlines()[1:]
        assert len(rows) == 19
        failed = [row.split(",")[0] for row in rows if ",fail," in row]
        assert failed == ["element-unitarity", "stage-composition"]
        assert "stage-composition,fail,nan," in out.out
        assert "Traceback" not in out.err
        assert out.err.endswith("validate: 2 of 19 checks failed\n")

    def test_progress_on_stderr(self, capsys):
        assert main(["enumerate"]) == 0
        first = capsys.readouterr()
        assert first.err == ""  # table commands have no progress chatter

    def test_quiet_never_suppresses_data(self, capsys):
        assert main(["validate", "--quiet", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "element-unitarity" in names
        assert all("measured" in c and "tolerance" in c
                   for c in payload["checks"])


def test_import_skips_modules_only_some_commands_run(point_cfg):
    # validate imports its suite on demand, and enumerate, chart and
    # validate the pair combinatorics in optics: neither is loaded by the
    # import, nor by a simulate run after it
    code = ("import sys\n"
            "def loaded():\n"
            "    print(sorted(m for m in ('cohom.optics', 'cohom.validation',"
            " 'concurrent.futures') if m in sys.modules), file=sys.stderr)\n"
            "import cohom.cli\nloaded()\n"
            f"assert cohom.cli.main(['simulate', '--config', {point_cfg!r},"
            " '--quiet']) == 0\nloaded()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n[]\n"


def test_validate_loads_no_quadrature_pool_or_logging():
    # the quadrature reference needs no LAPACK eigensolver, and the
    # threaded scan in rerun-determinism no executor, which imports logging
    code = ("import sys\nfrom cohom.cli import main\n"
            "assert main(['validate', '--quiet']) == 0\n"
            "print(sorted(m for m in ('numpy.polynomial', 'concurrent.futures',"
            " 'logging') if m in sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_csv_scan_loads_neither_json_nor_decimal(scan_cfg):
    # a CSV run writes no JSON, and its integers are all written in digits
    code = ("import sys\nfrom cohom.cli import main\n"
            f"assert main(['scan', '--config', {scan_cfg!r}, '--quiet'])"
            " == 0\nprint(sorted(m for m in ('json', 'decimal')"
            " if m in sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
