"""Config parsing and result persistence for the coincidence bench.

Configs are a strict, flat INI subset: ``[section]`` headers and
``key = value`` lines, ``#``/``;`` comment lines, no inline comments.
Every key is scalar and belongs to a closed schema; unknown sections or
keys, duplicates, type errors and range violations are rejected with the
line and column where they occur.  File quantities are SI (Hz, seconds);
the engine works in angular units, so ``sigma_f_hz`` is converted by 2*pi
on the way in.

Results are a fixed-order table, one row per scan point, written as CSV
(bit-stable across reruns with the same seed) or as JSON carrying the
same rows plus a run manifest (config echo, seed, engine versions,
wall clock).  Floats are rendered with 12 significant digits in both
formats; an undefined value (NaN, such as the g2 of a dead detector) is
``nan`` in CSV and ``null`` in JSON, which stays strict JSON.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

import numpy as np

from . import __version__
from .analytic import coincidence_r13, coincidence_r24, ensemble_intensity
from .montecarlo import ConfigError, RunConfig, g2_estimate

CSV_HEADER = ("tau21_s,I1,I2,I3,I4,R13,R24,"
              "g2_13,g2_13_err,g2_24,g2_24_err,n_coinc_13,n_coinc_24")

ENV_SEED = "COHOM_SEED"


class ConfigParseError(ValueError):
    """Config rejected; carries the offending line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        prefix = f"line {line}, column {column}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
        self.column = column


class BenchIOError(RuntimeError):
    """File I/O failure, annotated with the path it concerns."""


@dataclass(frozen=True)
class ScanSpec:
    """An inclusive sweep of the delay difference tau21 = tau2 - tau1."""

    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


_SCHEMA = {
    "bench": ("sigma_f_hz", "tau1_s", "tau2_s",
              "tau21_scan_start_s", "tau21_scan_stop_s", "tau21_scan_steps"),
    "source": ("mean_photon_number", "n_pairs", "higher_order_ratio"),
    "detector": ("pulse_sigma_s", "coincidence_window_s"),
    "run": ("seed", "mode", "heterodyne_filter"),
}

_SCAN_KEYS = ("tau21_scan_start_s", "tau21_scan_stop_s", "tau21_scan_steps")

#: engine field -> (section, file key); used to re-attach positions to
#: range errors raised by RunConfig validation.
_FIELD_TO_KEY = {
    "sigma_f": ("bench", "sigma_f_hz"),
    "tau1": ("bench", "tau1_s"),
    "tau2": ("bench", "tau2_s"),
    "mean_photon_number": ("source", "mean_photon_number"),
    "n_pairs": ("source", "n_pairs"),
    "higher_order_ratio": ("source", "higher_order_ratio"),
    "pulse_sigma": ("detector", "pulse_sigma_s"),
    "coincidence_window": ("detector", "coincidence_window_s"),
    "seed": ("run", "seed"),
    "mode": ("run", "mode"),
    "heterodyne_filter": ("run", "heterodyne_filter"),
}

_DEFAULTS = {
    ("source", "mean_photon_number"): "0.1",
    ("source", "n_pairs"): "100000",
    ("source", "higher_order_ratio"): "0.01",
    ("detector", "pulse_sigma_s"): "1e-9",
    ("detector", "coincidence_window_s"): "8e-9",
    ("run", "seed"): "0",
    ("run", "mode"): "amplitude",
    ("run", "heterodyne_filter"): "true",
}


def _tokenize(text: str) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        first_col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError("unterminated section header",
                                       lineno, first_col)
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigParseError(f"unknown section [{name}]",
                                       lineno, first_col)
            if name in sections:
                raise ConfigParseError(f"duplicate section [{name}]",
                                       lineno, first_col)
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", lineno, first_col)
        if current is None:
            raise ConfigParseError("key outside any [section]",
                                   lineno, first_col)
        key_part, _, value_part = raw.partition("=")
        key = key_part.strip()
        if not key:
            raise ConfigParseError("missing key before '='", lineno, first_col)
        if key not in _SCHEMA[current]:
            raise ConfigParseError(f"unknown key '{key}' in [{current}]",
                                   lineno, first_col)
        if key in sections[current]:
            raise ConfigParseError(f"duplicate key '{key}'", lineno, first_col)
        value = value_part.strip()
        eq_col = len(key_part) + 1
        value_col = (eq_col + 1 + (len(value_part) - len(value_part.lstrip()))
                     if value else eq_col)
        if not value:
            raise ConfigParseError(f"empty value for '{key}'", lineno, eq_col)
        sections[current][key] = _Token(value, lineno, value_col)
    return sections


def _as_float(tok: _Token) -> float:
    try:
        return float(tok.text)
    except ValueError:
        raise ConfigParseError(f"not a number: '{tok.text}'",
                               tok.line, tok.column) from None


def _as_int(tok: _Token) -> int:
    try:
        return int(tok.text, 0)
    except ValueError:
        pass
    try:
        as_float = float(tok.text)
    except ValueError:
        raise ConfigParseError(f"not an integer: '{tok.text}'",
                               tok.line, tok.column) from None
    if not (math.isfinite(as_float) and as_float.is_integer()):
        raise ConfigParseError(f"not an integer: '{tok.text}'",
                               tok.line, tok.column)
    return int(as_float)


def _as_bool(tok: _Token) -> bool:
    lowered = tok.text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigParseError(f"expected true or false, got '{tok.text}'",
                           tok.line, tok.column)


def parse_config(text: str):
    """Parse and validate a config document.

    Returns ``(RunConfig, ScanSpec or None)``.  ``tau2_s`` and the
    ``tau21_scan_*`` trio are mutually exclusive; with a scan, the
    returned config holds the first scan point's tau2.  Missing optional
    keys take the documented defaults.
    """
    sections = _tokenize(text)

    def lookup(section: str, key: str) -> Optional[_Token]:
        tok = sections.get(section, {}).get(key)
        if tok is None and (section, key) in _DEFAULTS:
            return _Token(_DEFAULTS[(section, key)], 0, 0)
        return tok

    def demand(section: str, key: str) -> _Token:
        tok = lookup(section, key)
        if tok is None:
            raise ConfigParseError(f"missing required key '{key}' in [{section}]")
        return tok

    sigma_f_hz = _as_float(demand("bench", "sigma_f_hz"))
    tau1 = _as_float(demand("bench", "tau1_s"))

    tau2_tok = sections.get("bench", {}).get("tau2_s")
    scan_toks = [sections.get("bench", {}).get(k) for k in _SCAN_KEYS]
    if tau2_tok is not None and any(scan_toks):
        offender = next(t for t in scan_toks if t is not None)
        raise ConfigParseError("tau21 scan keys are mutually exclusive "
                               "with tau2_s", offender.line, offender.column)
    scan = None
    if tau2_tok is not None:
        tau2 = _as_float(tau2_tok)
    else:
        missing = [k for k, t in zip(_SCAN_KEYS, scan_toks) if t is None]
        if missing:
            raise ConfigParseError(
                "either tau2_s or the full scan trio is required; missing: "
                + ", ".join(missing))
        start = _as_float(scan_toks[0])
        stop = _as_float(scan_toks[1])
        for key, tok, bound in zip(_SCAN_KEYS, scan_toks, (start, stop)):
            if not math.isfinite(bound):
                raise ConfigParseError(f"{key}: must be finite",
                                       tok.line, tok.column)
            if tau1 + bound < 0:
                raise ConfigParseError(
                    "scan would make tau2 = tau1 + tau21 negative",
                    tok.line, tok.column)
        steps = _as_int(scan_toks[2])
        if steps < 1:
            raise ConfigParseError("scan steps must be >= 1",
                                   scan_toks[2].line, scan_toks[2].column)
        scan = ScanSpec(start, stop, steps)
        tau2 = tau1 + start

    kwargs = dict(
        sigma_f=2.0 * math.pi * sigma_f_hz,
        tau1=tau1,
        tau2=tau2,
        mean_photon_number=_as_float(demand("source", "mean_photon_number")),
        n_pairs=_as_int(demand("source", "n_pairs")),
        higher_order_ratio=_as_float(demand("source", "higher_order_ratio")),
        pulse_sigma=_as_float(demand("detector", "pulse_sigma_s")),
        coincidence_window=_as_float(demand("detector", "coincidence_window_s")),
        seed=_as_int(demand("run", "seed")),
        mode=demand("run", "mode").text,
        heterodyne_filter=_as_bool(demand("run", "heterodyne_filter")),
    )
    try:
        config = RunConfig(**kwargs)
    except ConfigError as err:
        section, key = _FIELD_TO_KEY.get(err.field, (None, None))
        tok = sections.get(section, {}).get(key) if section else None
        detail = str(err)
        if key is not None and detail.startswith(f"{err.field}: "):
            detail = f"{key}: " + detail[len(err.field) + 2:]
        if tok is not None:
            raise ConfigParseError(detail, tok.line, tok.column) from None
        raise ConfigParseError(detail) from None
    return config, scan


def render_config(config: RunConfig, scan: Optional[ScanSpec] = None) -> str:
    """Render a config document that parses back to the same values.

    The only lossy step is the Hz <-> rad/s conversion of sigma_f (a
    divide-then-multiply round trip, accurate to a couple of ulp).
    """
    lines = ["[bench]", f"sigma_f_hz = {config.sigma_f / (2.0 * math.pi)!r}",
             f"tau1_s = {config.tau1!r}"]
    if scan is None:
        lines.append(f"tau2_s = {config.tau2!r}")
    else:
        lines.append(f"tau21_scan_start_s = {scan.start!r}")
        lines.append(f"tau21_scan_stop_s = {scan.stop!r}")
        lines.append(f"tau21_scan_steps = {scan.steps}")
    lines += [
        "",
        "[source]",
        f"mean_photon_number = {config.mean_photon_number!r}",
        f"n_pairs = {config.n_pairs}",
        f"higher_order_ratio = {config.higher_order_ratio!r}",
        "",
        "[detector]",
        f"pulse_sigma_s = {config.pulse_sigma!r}",
        f"coincidence_window_s = {config.coincidence_window!r}",
        "",
        "[run]",
        f"seed = {config.seed}",
        f"mode = {config.mode}",
        f"heterodyne_filter = {'true' if config.heterodyne_filter else 'false'}",
        "",
    ]
    return "\n".join(lines)


def read_config(path) -> tuple:
    """Load and parse a config file, annotating I/O errors with the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise BenchIOError(f"{path}: {exc}") from exc
    return parse_config(text)


def resolve_seed(cli_seed: Optional[int], environ, file_seed: int) -> int:
    """Apply the seed precedence: CLI flag > COHOM_SEED env var > config."""
    if cli_seed is not None:
        return int(cli_seed)
    raw = environ.get(ENV_SEED)
    if raw is not None:
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigParseError(
                f"{ENV_SEED}: not an integer: '{raw}'") from None
    return file_seed


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ResultRow:
    """One scan point in the fixed column order of :data:`CSV_HEADER`."""

    tau21_s: float
    i1: float
    i2: float
    i3: float
    i4: float
    r13: float
    r24: float
    g2_13: float
    g2_13_err: float
    g2_24: float
    g2_24_err: float
    n_coinc_13: int
    n_coinc_24: int


@dataclass(frozen=True)
class RunResult:
    rows: tuple
    manifest: dict


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _json_float(value: float) -> Optional[float]:
    """JSON value of a float: 12 significant digits, None (``null``) when
    not finite, since strict JSON has no NaN or infinity."""
    value = float(value)
    return float(_fmt(value)) if math.isfinite(value) else None


def analytic_rows(config: RunConfig, tau21_values) -> list:
    """Closed-form table rows: ensemble intensities and the exact
    coincidence rates (identically zero, hence zero counts and errors)."""
    rows = []
    for value in tau21_values:
        tau21 = float(value)
        tau2 = config.tau1 + tau21
        if tau2 < 0:
            raise ConfigError("tau2", "scan point yields negative tau2")
        i_k = [ensemble_intensity(k, config.sigma_f, config.tau1, tau2)
               for k in (1, 2, 3, 4)]
        rows.append(ResultRow(
            tau21_s=tau21,
            i1=i_k[0], i2=i_k[1], i3=i_k[2], i4=i_k[3],
            r13=float(coincidence_r13(config.sigma_f, config.tau1, tau2)),
            r24=float(coincidence_r24(config.sigma_f, config.tau1, tau2)),
            g2_13=0.0, g2_13_err=0.0, g2_24=0.0, g2_24_err=0.0,
            n_coinc_13=0, n_coinc_24=0,
        ))
    return rows


def simulation_rows(points) -> list:
    """Monte Carlo table rows from per-point count accumulators.

    Intensity columns are singles-rate estimates of the normalized port
    intensities: singles/(n*mu) in classical mode (per-slot Bernoulli
    sampling) and singles/n in amplitude mode (two photons per slot,
    flat at 1/2 in the wide-scan regime).  R columns are per-slot
    coincidence rates.
    """
    rows = []
    for point in points:
        counts = point.counts
        config = point.config
        n = counts.n_generated
        norm = n * (config.mean_photon_number
                    if config.mode == "classical" else 1.0)
        g2_13 = g2_estimate(counts, (1, 3))
        g2_24 = g2_estimate(counts, (2, 4))
        rows.append(ResultRow(
            tau21_s=point.tau21,
            i1=counts.singles[1] / norm,
            i2=counts.singles[2] / norm,
            i3=counts.singles[3] / norm,
            i4=counts.singles[4] / norm,
            r13=counts.coincidences[(1, 3)] / n,
            r24=counts.coincidences[(2, 4)] / n,
            g2_13=g2_13.value, g2_13_err=g2_13.stderr,
            g2_24=g2_24.value, g2_24_err=g2_24.stderr,
            n_coinc_13=counts.coincidences[(1, 3)],
            n_coinc_24=counts.coincidences[(2, 4)],
        ))
    return rows


def make_manifest(command: str, config: RunConfig,
                  scan: Optional[ScanSpec], wall_clock_s: float) -> dict:
    config_echo = {f.name: getattr(config, f.name)
                   for f in dataclass_fields(RunConfig)}
    return {
        "tool": "cohom",
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "mode": config.mode,
        "config": config_echo,
        "scan": (None if scan is None else
                 {"tau21_scan_start_s": scan.start,
                  "tau21_scan_stop_s": scan.stop,
                  "tau21_scan_steps": scan.steps}),
        "engines": {"python": platform.python_version(),
                    "numpy": np.__version__},
        "wall_clock_s": round(wall_clock_s, 6),
    }


def render_results_csv(result: RunResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(",".join([
            _fmt(row.tau21_s),
            _fmt(row.i1), _fmt(row.i2), _fmt(row.i3), _fmt(row.i4),
            _fmt(row.r13), _fmt(row.r24),
            _fmt(row.g2_13), _fmt(row.g2_13_err),
            _fmt(row.g2_24), _fmt(row.g2_24_err),
            str(row.n_coinc_13), str(row.n_coinc_24),
        ]))
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = CSV_HEADER.split(",")


def _row_dict(row: ResultRow) -> dict:
    return {
        "tau21_s": _json_float(row.tau21_s),
        "I1": _json_float(row.i1), "I2": _json_float(row.i2),
        "I3": _json_float(row.i3), "I4": _json_float(row.i4),
        "R13": _json_float(row.r13), "R24": _json_float(row.r24),
        "g2_13": _json_float(row.g2_13),
        "g2_13_err": _json_float(row.g2_13_err),
        "g2_24": _json_float(row.g2_24),
        "g2_24_err": _json_float(row.g2_24_err),
        "n_coinc_13": row.n_coinc_13, "n_coinc_24": row.n_coinc_24,
    }


def render_results_json(result: RunResult) -> str:
    payload = {
        "manifest": result.manifest,
        "rows": [_row_dict(row) for row in result.rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_results(result: RunResult, fmt: str) -> str:
    if fmt == "csv":
        return render_results_csv(result)
    if fmt == "json":
        return render_results_json(result)
    raise ValueError(f"unknown format '{fmt}'")


def _row_from_values(values: list) -> ResultRow:
    return ResultRow(
        tau21_s=float(values[0]),
        i1=float(values[1]), i2=float(values[2]),
        i3=float(values[3]), i4=float(values[4]),
        r13=float(values[5]), r24=float(values[6]),
        g2_13=float(values[7]), g2_13_err=float(values[8]),
        g2_24=float(values[9]), g2_24_err=float(values[10]),
        n_coinc_13=int(values[11]), n_coinc_24=int(values[12]),
    )


def parse_results_csv(text: str) -> list:
    """Read back a results CSV; the header must match exactly."""
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise BenchIOError("unrecognized results CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise BenchIOError(f"expected {len(_CSV_COLUMNS)} columns, "
                               f"got {len(parts)}")
        rows.append(_row_from_values(parts))
    return rows


def parse_results_json(text: str) -> RunResult:
    """Read back a results JSON document; ``null`` values become NaN."""
    payload = json.loads(text)
    rows = tuple(
        _row_from_values([math.nan if entry[name] is None else entry[name]
                          for name in _CSV_COLUMNS])
        for entry in payload["rows"]
    )
    return RunResult(rows=rows, manifest=payload["manifest"])
