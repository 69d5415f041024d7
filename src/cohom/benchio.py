"""Config parsing and result persistence for the coincidence bench.

Configs are a strict, flat INI subset: ``[section]`` headers and
``key = value`` lines, ``#``/``;`` comment lines, no inline comments.
A line ends at ``\\n`` or ``\\r\\n`` and nowhere else, and holds no control
character but tab.
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
import re
from dataclasses import MISSING, astuple, dataclass, fields as dataclass_fields
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .analytic import coincidence_r13, coincidence_r24, ensemble_intensity
from .montecarlo import ConfigError, RunConfig, g2_estimate

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


#: the characters besides "\n" that str.splitlines breaks lines at; a
#: config line ends only at "\n" (one "\r" before it is dropped), so
#: these are rejected where they stand
_STRAY_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: the stray line breaks, every C0 or C1 control character but tab and
#: "\n", and DEL: str.strip would drop some of them silently, and none
#: would show in a message
_FORBIDDEN = re.compile(f"[\x00-\x08\x0b-\x1f\x7f-\x9f{_STRAY_BREAKS}]")


def _lines(text: str) -> list:
    """The lines of a config: split at "\\n", one trailing "\\r" dropped."""
    return [line[:-1] if line.endswith("\r") else line
            for line in text.split("\n")]


def _tokenize(text: str) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(_lines(text), start=1):
        bad = _FORBIDDEN.search(raw)
        if bad:
            char = bad.group()
            message = (f"line break {char!r} inside a line; config lines "
                       "end at '\\n'" if char in _STRAY_BREAKS
                       else f"control character {char!r} in a line")
            raise ConfigParseError(message, lineno, bad.start() + 1)
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


def _as_text(tok: _Token) -> str:
    return tok.text


#: file key -> (section, RunConfig field, reader), in the order keys are
#: read.  A key the file omits takes the RunConfig default of its field;
#: the fields without a default are required.
_KEYS = {
    "sigma_f_hz": ("bench", "sigma_f", _as_float),
    "tau1_s": ("bench", "tau1", _as_float),
    "tau2_s": ("bench", "tau2", _as_float),
    "mean_photon_number": ("source", "mean_photon_number", _as_float),
    "n_pairs": ("source", "n_pairs", _as_int),
    "higher_order_ratio": ("source", "higher_order_ratio", _as_float),
    "pulse_sigma_s": ("detector", "pulse_sigma", _as_float),
    "coincidence_window_s": ("detector", "coincidence_window", _as_float),
    "seed": ("run", "seed", _as_int),
    "mode": ("run", "mode", _as_text),
    "heterodyne_filter": ("run", "heterodyne_filter", _as_bool),
}

#: the delay scan, ScanSpec's fields in order; exclusive with tau2_s
_SCAN_KEYS = ("tau21_scan_start_s", "tau21_scan_stop_s", "tau21_scan_steps")

#: largest scan; every point is held in memory at once
_MAX_SCAN_STEPS = 10**6

#: section -> its file keys, in rendering order
_SCHEMA = {
    section: tuple(key for key, spec in _KEYS.items() if spec[0] == section)
    + (_SCAN_KEYS if section == "bench" else ())
    for section, _, _ in _KEYS.values()
}

_REQUIRED = {f.name for f in dataclass_fields(RunConfig)
             if f.default is MISSING}


def _read_delay(bench: dict, tau1: float) -> tuple:
    """``(tau2, ScanSpec or None)`` from ``tau2_s`` or the scan trio."""
    tau2_tok = bench.get("tau2_s")
    scan_toks = [bench.get(k) for k in _SCAN_KEYS]
    if tau2_tok is not None and any(scan_toks):
        offender = next(t for t in scan_toks if t is not None)
        raise ConfigParseError("tau21 scan keys are mutually exclusive "
                               "with tau2_s", offender.line, offender.column)
    if tau2_tok is not None:
        return _as_float(tau2_tok), None
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
    steps_tok = scan_toks[2]
    steps = _as_int(steps_tok)
    if steps < 1:
        raise ConfigParseError("scan steps must be >= 1",
                               steps_tok.line, steps_tok.column)
    if steps > _MAX_SCAN_STEPS:
        raise ConfigParseError(f"scan steps must be <= {_MAX_SCAN_STEPS}",
                               steps_tok.line, steps_tok.column)
    return tau1 + start, ScanSpec(start, stop, steps)


def parse_config(text: str):
    """Parse and validate a config document.

    Returns ``(RunConfig, ScanSpec or None)``.  ``tau2_s`` and the
    ``tau21_scan_*`` trio are mutually exclusive; with a scan, the
    returned config holds the first scan point's tau2.  Missing optional
    keys take RunConfig's defaults.
    """
    sections = _tokenize(text)
    values = {}
    scan = None
    for key, (section, field, read) in _KEYS.items():
        tok = sections.get(section, {}).get(key)
        if key == "tau2_s":
            values[field], scan = _read_delay(sections.get(section, {}),
                                              values["tau1"])
        elif tok is not None:
            values[field] = read(tok)
        elif field in _REQUIRED:
            raise ConfigParseError(
                f"missing required key '{key}' in [{section}]")
    values["sigma_f"] *= 2.0 * math.pi  # the file gives Hz, the engine rad/s
    try:
        config = RunConfig(**values)
    except ConfigError as err:
        key = next(k for k, spec in _KEYS.items() if spec[1] == err.field)
        tok = sections.get(_KEYS[key][0], {}).get(key)
        line, column = (tok.line, tok.column) if tok else (None, None)
        detail = f"{key}: " + str(err).removeprefix(f"{err.field}: ")
        raise ConfigParseError(detail, line, column) from None
    return config, scan


def render_config(config: RunConfig, scan: Optional[ScanSpec] = None) -> str:
    """Render a config document that parses back to the same values.

    The only lossy step is the Hz <-> rad/s conversion of sigma_f (a
    divide-then-multiply round trip, accurate to a couple of ulp).
    """
    values = {key: getattr(config, field)
              for key, (_, field, _) in _KEYS.items()}
    values["sigma_f_hz"] = config.sigma_f / (2.0 * math.pi)
    if scan is not None:
        del values["tau2_s"]
        values.update(_scan_echo(scan))
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_config_value(values[key])}"
                  for key in keys if key in values]
        lines.append("")
    return "\n".join(lines)


def _config_value(value) -> str:
    # str() of a float is its repr, which parses back to the same float
    return str(value).lower() if isinstance(value, bool) else str(value)


def _scan_echo(scan: ScanSpec) -> dict:
    return dict(zip(_SCAN_KEYS, astuple(scan)))


def read_config(path) -> tuple:
    """Load and parse a config file, annotating I/O errors with the path.

    A file that is not UTF-8 is rejected at its first bad byte.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise BenchIOError(f"{path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the valid text before the bad byte, then a stand-in for it,
        # split into lines as parse_config splits them
        lines = _lines(data[:exc.start].decode("utf-8") + "?")
        raise ConfigParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}",
                               len(lines), len(lines[-1])) from None
    return parse_config(text)


def resolve_seed(cli_seed: Optional[int], environ, file_seed: int) -> int:
    """Apply the seed precedence: CLI flag > COHOM_SEED env var > config.

    A negative flag or variable is rejected under its own name; the file's
    seed is range-checked, with its position, by ``parse_config``.
    """
    if cli_seed is not None:
        source, seed = "--seed", int(cli_seed)
    elif (raw := environ.get(ENV_SEED)) is not None:
        try:
            source, seed = ENV_SEED, int(raw, 0)
        except ValueError:
            raise ConfigParseError(
                f"{ENV_SEED}: not an integer: {raw!r}") from None
    else:
        return file_seed
    if seed < 0:
        raise ConfigParseError(f"{source}: must be a non-negative integer")
    return seed


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ResultRow:
    """One scan point; the field order is the column order of the table."""

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


#: (column name, ResultRow field, its type: int for a count, else float),
#: in column order
_COLUMNS = tuple(
    (name, field, kind) for name, (field, kind) in zip(
        ("tau21_s", "I1", "I2", "I3", "I4", "R13", "R24", "g2_13",
         "g2_13_err", "g2_24", "g2_24_err", "n_coinc_13", "n_coinc_24"),
        get_type_hints(ResultRow).items(), strict=True)
)

CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


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
        "scan": None if scan is None else _scan_echo(scan),
        "engines": {"python": platform.python_version(),
                    "numpy": np.__version__},
        "wall_clock_s": round(wall_clock_s, 6),
    }


def render_results_csv(result: RunResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(",".join(
            str(getattr(row, field)) if kind is int
            else _fmt(getattr(row, field))
            for _, field, kind in _COLUMNS))
    return "\n".join(lines) + "\n"


def _row_dict(row: ResultRow) -> dict:
    return {name: getattr(row, field) if kind is int
            else _json_float(getattr(row, field))
            for name, field, kind in _COLUMNS}


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

