"""Command-line behavior: exit codes, formats, seeds, stream separation."""

import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cohom
from cohom.analytic import pair_chart
from cohom.cli import _emit, main

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


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH,
    for running the CLI as a child process."""
    src = str(Path(cohom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
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


class TestTables:
    def test_enumerate_csv(self, capsys):
        assert main(["enumerate"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 17  # header + 16 rows
        assert lines[0].startswith("path_1,path_2,")
        kept = [l for l in lines[1:] if l.endswith("cross-path-kept")]
        assert len(kept) == 4

    def test_enumerate_json_is_array_of_16(self, capsys):
        assert main(["enumerate", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert isinstance(records, list) and len(records) == 16
        assert {r["classification"] for r in records} == {
            "cross-path-kept", "same-path-excluded", "single-port-excluded"}

    def test_chart_json_round_trips(self, capsys):
        assert main(["chart", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == pair_chart().to_dict()
        assert len(payload["cells"]) == 4
        assert all(len(row) == 4 for row in payload["cells"])

    def test_chart_csv_shape(self, capsys):
        assert main(["chart"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.count(",") == 4 for line in lines)


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

    def test_point_config_rejected(self, point_cfg, capsys):
        assert main(["analytic", "--config", point_cfg, "--quiet"]) == 2
        assert "tau21_scan_" in capsys.readouterr().err

    def test_takes_no_seed(self, scan_cfg, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analytic", "--config", scan_cfg, "--seed", "3"])
        assert err.value.code == 2


class TestSimulateAndScan:
    def test_same_seed_byte_identical(self, point_cfg, capsys):
        assert main(["simulate", "--config", point_cfg, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", point_cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_scan_rows_and_rerun(self, scan_cfg, capsys):
        assert main(["scan", "--config", scan_cfg, "--quiet"]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert len(lines) == 6
        assert [float(l.split(",")[0]) for l in lines[1:]] == [
            -1e-6, -5e-7, 0.0, 5e-7, 1e-6]
        assert main(["scan", "--config", scan_cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_scan_config_rejected_by_simulate(self, scan_cfg, capsys):
        assert main(["simulate", "--config", scan_cfg, "--quiet"]) == 2
        assert "tau2_s" in capsys.readouterr().err

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

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        row = json.loads(capsys.readouterr().out,
                         parse_constant=reject)["rows"][0]
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

    def test_bad_env_seed(self, point_cfg, capsys, monkeypatch):
        monkeypatch.setenv("COHOM_SEED", "lots")
        assert main(["simulate", "--config", point_cfg, "--quiet"]) == 2
        assert "COHOM_SEED" in capsys.readouterr().err

    def test_bad_env_seed_escaped(self, point_cfg, capsys, monkeypatch):
        monkeypatch.setenv("COHOM_SEED", "5\x01")
        assert main(["simulate", "--config", point_cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: COHOM_SEED: not an integer: '5\\x01'\n")

    def test_negative_flag_seed(self, point_cfg, capsys):
        code = main(["simulate", "--config", point_cfg, "--quiet",
                     "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --seed: must be a non-negative integer\n")

    def test_negative_env_seed(self, point_cfg, capsys, monkeypatch):
        monkeypatch.setenv("COHOM_SEED", "-1")
        assert main(["simulate", "--config", point_cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: COHOM_SEED: must be a non-negative integer\n")

    def test_negative_file_seed(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(POINT_CFG.replace("seed = 42", "seed = -1"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: line 10, column 8: seed: must be a non-negative integer\n")


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "no.cfg"),
                     "--quiet"])
        assert code == 2
        assert "no.cfg" in capsys.readouterr().err

    def test_config_value_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(POINT_CFG.replace("2.5e5", "-1"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert "sigma_f_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "-inf",
                                       str(2**63)])
    def test_unrepresentable_pair_count(self, tmp_path, capsys, value):
        path = tmp_path / "bad.cfg"
        path.write_text(POINT_CFG.replace("n_pairs = 20000",
                                          f"n_pairs = {value}"))
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 7, column 11" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analytic", "scan"])
    @pytest.mark.parametrize("key, value, where", [
        ("tau21_scan_start_s", "nan", "line 4, column 22"),
        ("tau21_scan_stop_s", "nan", "line 5, column 21"),
        ("tau21_scan_stop_s", "inf", "line 5, column 21"),
        ("tau21_scan_start_s", "-inf", "line 4, column 22"),
        ("tau21_scan_stop_s", "-5e-6", "line 5, column 21"),
    ])
    def test_bad_scan_bound_positioned(self, tmp_path, capsys, command, key,
                                       value, where):
        lines = [f"{key} = {value}" if line.startswith(key) else line
                 for line in SCAN_CFG.splitlines()]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_huge_scan_steps_positioned(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text(SCAN_CFG.replace("tau21_scan_steps = 5",
                                         "tau21_scan_steps = 1000000000000"))
        assert main([command, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 6, column 20: scan steps must be <= 1000000" in err
        assert "Traceback" not in err

    def test_non_utf8_config_positioned(self, tmp_path):
        # run as a script, so that a traceback would reach stderr
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[bench]\nsigma_f_hz = 2.5e5\xff\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cohom.cli", "simulate", "--config",
             str(path), "--quiet"],
            env=_package_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: line 2, column 19: not UTF-8: byte 0xff\n")
        assert "Traceback" not in proc.stderr

    def test_stray_line_break_positioned(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[bench]\nsigma_f_hz = 2.5e5\x0cx\ntau1_s = 1e-6\n")
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2, column 19: line break '\\x0c'")

    def test_control_character_positioned(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[bench]\nsigma_f_hz = 1e6\x1f\ntau1_s = 1e-6\n")
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: line 2, column 17: control character '\\x1f' in a line\n")

    def test_non_utf8_line_counts_only_newlines(self, tmp_path, capsys):
        # the form feed and NEL before the bad byte break no line
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[bench]\r\n# a\x0c b\xc2\x85 c\nsigma_f_hz = \xff\n")
        assert main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: line 3, column 14: not UTF-8: byte 0xff\n")

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--format", "xml"])
        assert err.value.code == 2

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x.csv"
        assert main(["enumerate", "--out", str(target)]) == 2
        assert "x.csv" in capsys.readouterr().err


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

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
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


def test_import_skips_modules_only_some_commands_run():
    # validate imports its suite on demand
    code = ("import sys, cohom.cli; print(sorted(m for m in "
            "('cohom.validation', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
