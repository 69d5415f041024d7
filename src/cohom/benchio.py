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
same rows plus a run manifest (seed, engine versions, wall clock, and
the run's config as the config text that re-runs it).  Floats are
rendered with 12 significant digits in both formats; an undefined value
(NaN, such as the g2 of a dead detector) is ``nan`` in CSV and ``null``
in JSON, which stays strict JSON.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import platform
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from . import __version__
from .analytic import coincidence_r13, coincidence_r24, ensemble_intensity
from .montecarlo import ConfigError, RunConfig, checked_tau21, g2_estimate

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


class ScanSpec(NamedTuple):
    """An inclusive sweep of the delay difference tau21 = tau2 - tau1."""

    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


class _Token(NamedTuple):
    """A value's text, and its line and column in the config file or the
    name of its source outside the file."""

    text: str
    line: Optional[int] = None
    column: Optional[int] = None
    source: str = ""

    def error(self, message: str) -> ConfigParseError:
        """This value's rejection, at its position or under its source."""
        prefix = f"{self.source}: " if self.source else ""
        return ConfigParseError(prefix + message, self.line, self.column)


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
        line = _Token(stripped, lineno, raw.index(stripped[0]) + 1)
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise line.error("unterminated section header")
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise line.error(f"unknown section [{name}]")
            if name in sections:
                raise line.error(f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise line.error("expected 'key = value'")
        if current is None:
            raise line.error("key outside any [section]")
        key_part, _, value_part = raw.partition("=")
        key = key_part.strip()
        if not key:
            raise line.error("missing key before '='")
        if key not in _SCHEMA[current]:
            raise line.error(f"unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise line.error(f"duplicate key '{key}'")
        value = value_part.strip()
        eq_col = len(key_part) + 1
        value_col = (eq_col + 1 + (len(value_part) - len(value_part.lstrip()))
                     if value else eq_col)
        if not value:
            raise ConfigParseError(f"empty value for '{key}'", lineno, eq_col)
        sections[current][key] = _Token(value, lineno, value_col)
    return sections


def _as_float(tok: _Token) -> float:
    if tok.text.isascii():  # float() also reads other scripts' digits
        with contextlib.suppress(ValueError):
            return float(tok.text)
    raise tok.error(f"not a number: '{tok.text}'")


def _as_int(tok: _Token) -> int:
    """Every integer from outside the program: a Python integer literal,
    ASCII digits, or a float form whose double is the integer written."""
    as_float = math.nan
    if tok.text.isascii():  # int() also reads other scripts' digits
        for base in (0, 10):  # base 0 refuses leading zeros, base 10 a prefix
            with contextlib.suppress(ValueError):
                return int(tok.text, base)
        with contextlib.suppress(ValueError):
            as_float = float(tok.text)
    if not (math.isfinite(as_float) and as_float.is_integer()):
        raise tok.error(f"not an integer: {tok.text!r}")
    # imported here so that a run whose integers are all digits skips it;
    # Decimal compares exactly and rejects an exponent too large for it
    import decimal

    with contextlib.suppress(decimal.InvalidOperation):
        if decimal.Decimal(tok.text) == decimal.Decimal(as_float):
            return int(as_float)
    raise tok.error(f"{tok.text!r} is not exactly a double; "
                    "write the integer in digits")


def _as_bool(tok: _Token) -> bool:
    lowered = tok.text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise tok.error(f"expected true or false, got '{tok.text}'")


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

_REQUIRED = {f.name for f in fields(RunConfig) if f.default is MISSING}


def _read_delay(bench: dict, tau1: float) -> tuple:
    """``(ends, ScanSpec or None)``: each end a tau2, its name and token."""
    tau2_tok = bench.get("tau2_s")
    scan_toks = [bench.get(k) for k in _SCAN_KEYS]
    if tau2_tok is not None and any(scan_toks):
        offender = next(t for t in scan_toks if t is not None)
        raise offender.error("tau21 scan keys are mutually exclusive "
                             "with tau2_s")
    if tau2_tok is not None:
        return [(_as_float(tau2_tok), "tau2_s", tau2_tok)], None
    missing = [k for k, t in zip(_SCAN_KEYS, scan_toks) if t is None]
    if missing:
        raise ConfigParseError(
            "either tau2_s or the full scan trio is required; missing: "
            + ", ".join(missing))
    start, stop = map(_as_float, scan_toks[:2])
    steps_tok = scan_toks[2]
    steps = _as_int(steps_tok)
    if steps < 1:
        raise steps_tok.error("scan steps must be >= 1")
    if steps > _MAX_SCAN_STEPS:
        raise steps_tok.error(f"scan steps must be <= {_MAX_SCAN_STEPS}")
    ends = [(tau1 + bound, f"tau2 = tau1_s + {key}", tok)
            for key, tok, bound in zip(_SCAN_KEYS, scan_toks, (start, stop))]
    return ends, ScanSpec(start, stop, steps)


@contextlib.contextmanager
def _rejected_at(where: dict):
    """Re-raise a RunConfig rejection by ``where[field]``'s token."""
    try:
        yield
    except ConfigError as err:
        name, tok = where[err.field]
        detail = str(err).removeprefix(f"{err.field}: ")
        raise tok.error(f"{name}: {detail}" if name else detail) from None


def parse_config(text: str):
    """Parse and validate a config document.

    Returns ``(RunConfig, ScanSpec or None)``.  ``tau2_s`` and the
    ``tau21_scan_*`` trio are mutually exclusive; with a scan, the
    returned config holds the first point's tau2, and both ends' tau2,
    which bound every point's, are checked.  Missing optional keys take
    RunConfig's defaults.
    """
    sections = _tokenize(text)
    values = {}
    where = {}
    for key, (section, field, read) in _KEYS.items():
        tok = sections.get(section, {}).get(key)
        # a key the file omits has no position
        where[field] = (key, tok or _Token(""))
        if key == "tau2_s":
            ends, scan = _read_delay(sections.get(section, {}), values["tau1"])
        elif tok is not None:
            values[field] = read(tok)
        elif field in _REQUIRED:
            raise ConfigParseError(
                f"missing required key '{key}' in [{section}]")
    values["sigma_f"] *= 2.0 * math.pi  # the file gives Hz, the engine rad/s
    where["sigma_f"] = ("sigma_f = 2*pi * sigma_f_hz", where["sigma_f"][1])
    configs = []
    for tau2, name, tok in ends:
        with _rejected_at(where | {"tau2": (name, tok)}):
            configs.append(RunConfig(**values, tau2=tau2))
    return configs[0], scan


def render_config(config: RunConfig, scan: Optional[ScanSpec] = None) -> str:
    """Render a config document that parses back to the same values.

    The only lossy step is the Hz <-> rad/s conversion of sigma_f: a
    sigma_f read from a file, 2*pi times its file value, comes back
    exactly; any other may move by an ulp.
    """
    values = {key: getattr(config, field)
              for key, (_, field, _) in _KEYS.items()}
    values["sigma_f_hz"] = config.sigma_f / (2.0 * math.pi)
    if scan is not None:
        del values["tau2_s"]
        values.update(zip(_SCAN_KEYS, scan))
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


def resolve_seed(config, cli_seed: Optional[str], environ) -> RunConfig:
    """``config`` with the seed of the precedence --seed > COHOM_SEED > file.

    The flag's and the variable's text are read as the file's integers
    are; a malformed or out-of-range one is rejected under its own name.
    """
    for source, text in (("--seed", cli_seed),
                         (ENV_SEED, environ.get(ENV_SEED))):
        if text is not None:
            tok = _Token(text, source=source)
            with _rejected_at({"seed": ("", tok)}):
                return replace(config, seed=_as_int(tok))
    return config


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ResultRow:
    """One scan point; the fields are the table's columns, in order."""

    tau21_s: float
    I1: float
    I2: float
    I3: float
    I4: float
    R13: float
    R24: float
    g2_13: float
    g2_13_err: float
    g2_24: float
    g2_24_err: float
    n_coinc_13: int
    n_coinc_24: int


#: column name -> its type: int for a count, else float; in column order
_COLUMNS = get_type_hints(ResultRow)


class RunResult(NamedTuple):
    rows: tuple
    manifest: Optional[dict]  # None when only the CSV is written


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _json_float(value: float) -> Optional[float]:
    """JSON value of a float: 12 significant digits, None (``null``) when
    not finite, since strict JSON has no NaN or infinity."""
    value = float(value)
    return float(_fmt(value)) if math.isfinite(value) else None


def analytic_rows(config: RunConfig, tau21_values) -> list:
    """Closed-form table rows: ensemble intensities and the exact
    coincidence rates (identically zero, hence zero counts and errors),
    each column computed in one call over the whole scan.

    Every delay passes :func:`cohom.montecarlo.checked_tau21`, the tau2
    rule a Monte Carlo scan checks, so a bad one raises its ConfigError."""
    tau21 = checked_tau21(config, tau21_values)
    bench = (config.sigma_f, config.tau1, config.tau1 + tau21)
    columns = (tau21, *(ensemble_intensity(k, *bench) for k in (1, 2, 3, 4)),
               coincidence_r13(*bench), coincidence_r24(*bench))
    # g2_13, g2_13_err, g2_24, g2_24_err, n_coinc_13, n_coinc_24
    return [ResultRow(*row, 0.0, 0.0, 0.0, 0.0, 0, 0)
            for row in zip(*(column.tolist() for column in columns))]


def simulation_rows(config: RunConfig, points) -> list:
    """Monte Carlo table rows from the run's config and its scan points.

    Intensity columns are singles-rate estimates of the normalized port
    intensities: singles/(n*mu) in classical mode (per-slot Bernoulli
    sampling) and singles/n in amplitude mode (two photons per slot,
    flat at 1/2 in the wide-scan regime).  R columns are per-slot
    coincidence rates.
    """
    scale = config.mean_photon_number if config.mode == "classical" else 1.0
    rows = []
    for point in points:
        counts = point.counts
        n = counts.n_generated
        norm = n * scale
        g2_13 = g2_estimate(counts, (1, 3))
        g2_24 = g2_estimate(counts, (2, 4))
        rows.append(ResultRow(
            tau21_s=point.tau21,
            I1=counts.singles[1] / norm,
            I2=counts.singles[2] / norm,
            I3=counts.singles[3] / norm,
            I4=counts.singles[4] / norm,
            R13=counts.coincidences[(1, 3)] / n,
            R24=counts.coincidences[(2, 4)] / n,
            g2_13=g2_13.value, g2_13_err=g2_13.stderr,
            g2_24=g2_24.value, g2_24_err=g2_24.stderr,
            n_coinc_13=counts.coincidences[(1, 3)],
            n_coinc_24=counts.coincidences[(2, 4)],
        ))
    return rows


def make_manifest(command: str, config: RunConfig,
                  scan: Optional[ScanSpec], wall_clock_s: float) -> dict:
    """The JSON run manifest; ``config_file`` is the config text that
    re-runs the command, with the seed the run used."""
    return {
        "tool": "cohom",
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "mode": config.mode,
        "config_file": render_config(config, scan),
        "engines": {"python": platform.python_version(),
                    "numpy": np.__version__},
        "wall_clock_s": round(wall_clock_s, 6),
    }


def csv_text(header, rows) -> str:
    """CSV text of a header and its rows, each line ending in "\\n".

    A field is quoted only when it holds a comma, a quote or a line
    break (RFC 4180).  Every CSV output of the bench is written here.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def json_text(payload) -> str:
    """Strict JSON text of ``payload``, indented by two, with a final
    newline; a NaN or infinity raises instead of being written.  Every
    JSON output of the bench is written here."""
    # imported here so that a CSV run skips its start-up cost
    import json

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_results(result: RunResult, fmt: str) -> str:
    """The result table as CSV, or as JSON with the run manifest."""
    if fmt == "csv":
        return csv_text(_COLUMNS, (
            [str(getattr(row, name)) if kind is int
             else _fmt(getattr(row, name)) for name, kind in _COLUMNS.items()]
            for row in result.rows))
    if fmt == "json":
        return json_text({
            "manifest": result.manifest,
            "rows": [{name: getattr(row, name) if kind is int
                      else _json_float(getattr(row, name))
                      for name, kind in _COLUMNS.items()}
                     for row in result.rows],
        })
    raise ValueError(f"unknown format '{fmt}'")
