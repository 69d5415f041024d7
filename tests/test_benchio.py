"""Config-file parsing, seed precedence, and result serialization."""

import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohom.analytic import ensemble_intensity
from cohom.benchio import (
    ConfigParseError,
    ResultRow,
    RunResult,
    ScanSpec,
    _COLUMNS,
    _MAX_SCAN_STEPS,
    _SCAN_KEYS,
    _SCHEMA,
    analytic_rows,
    make_manifest,
    parse_config,
    render_config,
    render_results,
    resolve_seed,
    simulation_rows,
)
from cohom.cli import build_parser
from cohom.montecarlo import (
    ConfigError,
    RunConfig,
    g2_estimate,
    scan_tau21,
    simulate_run,
)

#: the line breaks of str.splitlines other than "\n" and "\r\n"
STRAY_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: the C0 and C1 control characters and DEL that break no line, tab
#: excepted
CONTROL_CHARS = "".join(
    chr(code) for code in [*range(0x20), 0x7f, *range(0x80, 0xa0)]
    if chr(code) not in STRAY_BREAKS + "\t\n")

MINIMAL = """\
[bench]
sigma_f_hz = 1e6
tau1_s = 1e-6
tau2_s = 2e-6
"""

FULL = """\
# full configuration
[bench]
sigma_f_hz = 2.5e5
tau1_s = 1e-6
tau2_s = 1e-6

[source]
mean_photon_number = 0.5
n_pairs = 20000
higher_order_ratio = 0.0

[detector]
pulse_sigma_s = 1e-9
coincidence_window_s = 8e-9

[run]
seed = 77
mode = classical
heterodyne_filter = false
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        config, scan = parse_config(MINIMAL)
        assert scan is None
        assert config.sigma_f == pytest.approx(2 * math.pi * 1e6, rel=1e-15)
        assert config.tau1 == 1e-6
        assert config.tau2 == 2e-6
        assert config.mean_photon_number == 0.1
        assert config.n_pairs == 100_000
        assert config.higher_order_ratio == 0.01
        assert config.pulse_sigma == 1e-9
        assert config.coincidence_window == 8e-9
        assert config.seed == 0
        assert config.mode == "amplitude"
        assert config.heterodyne_filter is True

    def test_full_document(self):
        config, scan = parse_config(FULL)
        assert scan is None
        assert config.mode == "classical"
        assert config.heterodyne_filter is False
        assert config.seed == 77
        assert config.mean_photon_number == 0.5

    def test_scan_trio(self):
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "tau21_scan_start_s = -5e-7\n"
            "tau21_scan_stop_s = 5e-7\n"
            "tau21_scan_steps = 11",
        )
        config, scan = parse_config(text)
        assert scan == ScanSpec(-5e-7, 5e-7, 11)
        values = scan.values()
        assert len(values) == 11
        assert values[0] == -5e-7 and values[-1] == 5e-7
        assert config.tau2 == pytest.approx(1e-6 - 5e-7)

    def test_hz_to_angular_conversion(self):
        config, _ = parse_config(MINIMAL)
        assert config.sigma_f / (2 * math.pi) == pytest.approx(1e6, rel=1e-15)


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ConfigParseError) as excinfo:
            parse_config(text)
        return excinfo.value

    def test_unknown_key_position(self):
        err = self.err(MINIMAL + "tau_oops = 1\n")
        assert "tau_oops" in str(err)
        assert err.line == 5 and err.column == 1

    def test_unknown_key_indented_column(self):
        err = self.err(MINIMAL + "   tau_oops = 1\n")
        assert err.line == 5 and err.column == 4

    @pytest.mark.parametrize("line, message", [
        ("  [run", "unterminated section header"),
        ("  = 12", "missing key before '='"),
    ])
    def test_malformed_line_positioned(self, line, message):
        err = self.err(MINIMAL + line + "\n")
        assert str(err) == f"line 5, column 3: {message}"

    def test_unknown_section(self):
        err = self.err(MINIMAL + "[laser]\n")
        assert "laser" in str(err) and err.line == 5

    def test_duplicate_key(self):
        err = self.err(MINIMAL + "tau1_s = 3e-6\n")
        assert "duplicate" in str(err) and err.line == 5

    def test_duplicate_section(self):
        err = self.err(MINIMAL + "[bench]\n")
        assert "duplicate section" in str(err)

    def test_key_outside_section(self):
        err = self.err("sigma_f_hz = 1e6\n")
        assert "outside" in str(err) and err.line == 1

    def test_missing_equals(self):
        err = self.err(MINIMAL + "[run]\nseed 12\n")
        assert "key = value" in str(err) and err.line == 6

    def test_empty_value(self):
        err = self.err(MINIMAL + "[run]\nseed =\n")
        assert "empty value" in str(err) and err.line == 6

    def test_bad_float_value_position(self):
        err = self.err(MINIMAL.replace("1e6", "fast"))
        assert "not a number" in str(err)
        assert err.line == 2 and err.column == 14

    def test_crlf_lines_parse_as_lf_lines(self):
        assert parse_config(FULL.replace("\n", "\r\n")) == parse_config(FULL)

    @pytest.mark.parametrize("char", list(STRAY_BREAKS))
    def test_stray_line_break_positioned(self, char):
        err = self.err(MINIMAL.replace("1e6", "1e6" + char + "x"))
        assert "line break" in str(err)
        assert (err.line, err.column) == (2, 17)

    def test_stray_line_break_does_not_start_a_key(self):
        # before, str.splitlines read this one line as two keys
        err = self.err("[bench]\nsigma_f_hz = 1e6\n"
                       "tau1_s = 1e-6\x85tau2_s = 1e-6\n")
        assert (err.line, err.column) == (3, 14)

    def test_stray_line_break_in_a_comment(self):
        err = self.err("# note\u2028[bench]\n" + MINIMAL)
        assert (err.line, err.column) == (1, 7)

    @pytest.mark.parametrize("char", list(CONTROL_CHARS))
    def test_control_character_positioned(self, char):
        # str.strip alone would drop "\x1f" at a value's end unseen
        for text, where in ((MINIMAL.replace("1e6", "1e6" + char), (2, 17)),
                            ("# note" + char + "\n" + MINIMAL, (1, 7))):
            err = self.err(text)
            assert f"control character {char!r}" in str(err)
            assert (err.line, err.column) == where

    def test_tab_is_whitespace(self):
        assert parse_config(MINIMAL.replace(" = ", "\t=\t")) == (
            parse_config(MINIMAL))

    def test_bad_int(self):
        err = self.err(MINIMAL + "[source]\nn_pairs = 2.5\n")
        assert "not an integer" in str(err)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_int_position(self, value):
        err = self.err(MINIMAL + f"[source]\nn_pairs = {value}\n")
        assert "not an integer" in str(err)
        assert err.line == 6 and err.column == 11

    @pytest.mark.parametrize("section, key, value", [
        # each would run as a different integer through its double
        ("run", "seed", "9.007199254740993e15"),
        ("run", "seed", "1e30"),
        ("source", "n_pairs", "9.223372036854775807e18"),
        # an exponent too large for Decimal
        ("source", "n_pairs", "0e99999999999999999999"),
    ])
    def test_inexact_float_form_int_positioned(self, section, key, value):
        err = self.err(MINIMAL + f"[{section}]\n{key} = {value}\n")
        assert f"'{value}' is not exactly a double" in str(err)
        assert "in digits" in str(err)
        assert (err.line, err.column) == (6, len(key) + 4)

    def test_exact_float_form_int(self):
        config, _ = parse_config(MINIMAL + "[source]\nn_pairs = 1e5\n")
        assert config.n_pairs == 100_000

    @pytest.mark.parametrize("section, key", [("run", "seed"),
                                              ("source", "n_pairs")])
    def test_leading_zero_digits_read_exactly(self, section, key):
        # past 2**53, where its double would not be the integer written
        config, _ = parse_config(
            MINIMAL + f"[{section}]\n{key} = 09007199254740993\n")
        assert getattr(config, key) == 9007199254740993

    def test_bad_bool(self):
        err = self.err(MINIMAL + "[run]\nheterodyne_filter = maybe\n")
        assert "true or false" in str(err)

    def test_overflowing_sigma_f_names_the_conversion(self):
        # 1.7e308 Hz is finite; 2*pi times it is not
        err = self.err(MINIMAL.replace("sigma_f_hz = 1e6",
                                       "sigma_f_hz = 1.7e308"))
        assert str(err) == ("line 2, column 14: sigma_f = 2*pi * sigma_f_hz: "
                            "must be finite and >= 0")

    def test_range_violation_tagged_with_file_key(self):
        err = self.err(MINIMAL.replace("sigma_f_hz = 1e6",
                                       "sigma_f_hz = -1"))
        assert "sigma_f_hz" in str(err)
        assert err.line == 2 and err.column == 14

    def test_bad_mode_tagged(self):
        err = self.err(MINIMAL + "[run]\nmode = quantum\n")
        assert "mode" in str(err) and err.line == 6

    def test_missing_required(self):
        err = self.err("[bench]\nsigma_f_hz = 1e6\ntau2_s = 1e-6\n")
        assert "tau1_s" in str(err)
        assert err.line is None

    def test_tau2_and_scan_exclusive(self):
        err = self.err(MINIMAL + "tau21_scan_start_s = 0\n")
        assert "mutually exclusive" in str(err) and err.line == 5

    def test_scan_trio_incomplete(self):
        text = MINIMAL.replace("tau2_s = 2e-6", "tau21_scan_start_s = 0")
        err = self.err(text)
        assert "tau21_scan_stop_s" in str(err)
        assert "tau21_scan_steps" in str(err)

    def test_scan_steps_minimum(self):
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "tau21_scan_start_s = 0\ntau21_scan_stop_s = 1e-7\n"
            "tau21_scan_steps = 0",
        )
        assert "steps" in str(self.err(text))

    @pytest.mark.parametrize("value", [str(_MAX_SCAN_STEPS + 1), "1e12",
                                       str(2**63)])
    def test_scan_steps_maximum_position(self, value):
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "tau21_scan_start_s = 0\ntau21_scan_stop_s = 1e-7\n"
            f"tau21_scan_steps = {value}",
        )
        err = self.err(text)
        assert f"scan steps must be <= {_MAX_SCAN_STEPS}" in str(err)
        assert (err.line, err.column) == (6, 20)

    def test_scan_negative_tau2_edge(self):
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "tau21_scan_start_s = -5e-6\ntau21_scan_stop_s = 0\n"
            "tau21_scan_steps = 3",
        )
        err = self.err(text)
        assert str(err) == ("line 4, column 22: tau2 = tau1_s + "
                            "tau21_scan_start_s: must be finite and >= 0")

    @pytest.mark.parametrize("key, line, column", [
        ("tau21_scan_start_s", 4, 22), ("tau21_scan_stop_s", 5, 21)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_scan_bound_position(self, key, line, column, value):
        bounds = {"tau21_scan_start_s": "0", "tau21_scan_stop_s": "1e-7",
                  key: value}
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "".join(f"{k} = {v}\n" for k, v in bounds.items())
            + "tau21_scan_steps = 3")
        err = self.err(text)
        assert f"{key}: must be finite" in str(err)
        assert (err.line, err.column) == (line, column)

    @pytest.mark.parametrize("key, value, message", [
        ("tau1_s", "\u0663e-6", "not a number: '\u0663e-6'"),
        ("tau2_s", "\uff12e-6", "not a number: '\uff12e-6'"),
        ("n_pairs", "\uff11\uff10", "not an integer: '\uff11\uff10'"),
        ("seed", "\u0663", "not an integer: '\u0663'"),
    ])
    def test_non_ascii_digits_positioned(self, key, value, message):
        # float() and int() read the decimal digits of every script
        text = MINIMAL + "[source]\nn_pairs = 10\n[run]\nseed = 3\n"
        text = re.sub(f"^{key} = .*$", f"{key} = {value}", text,
                      flags=re.MULTILINE)
        err = self.err(text)
        line = text.split("\n").index(f"{key} = {value}") + 1
        assert str(err) == f"line {line}, column {len(key) + 4}: {message}"

    def test_scan_negative_tau2_at_stop(self):
        text = MINIMAL.replace(
            "tau2_s = 2e-6",
            "tau21_scan_start_s = 0\ntau21_scan_stop_s = -5e-6\n"
            "tau21_scan_steps = 3",
        )
        err = self.err(text)
        assert str(err) == ("line 5, column 21: tau2 = tau1_s + "
                            "tau21_scan_stop_s: must be finite and >= 0")


#: value tokens for numeric keys: plain numbers, the ones floats cannot
#: hold, and text that is no number at all
_NUMBER_TOKENS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400",
                     "1e-400", "0", "-0", "1", "-1", "0x10", "1_000",
                     "2.5", "9223372036854775808", "true", "amplitude",
                     "1e12", "1000001", "1000000"]),
    st.floats().map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.text(st.characters(blacklist_characters="\r\n"), min_size=1,
            max_size=8),
)


@st.composite
def config_documents(draw):
    """Documents over the config schema with arbitrary value tokens."""
    lines = []
    for section in draw(st.permutations(sorted(_SCHEMA))):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(_SCHEMA[section]),
                                 unique=True)):
            lines.append(f"{key} = {draw(_NUMBER_TOKENS)}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.text(st.characters(blacklist_characters="\r\n"),
                                  max_size=12)))
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = (text[:at] + draw(st.sampled_from(STRAY_BREAKS + CONTROL_CHARS))
                + text[at:])
    return text


@st.composite
def scan_documents(draw):
    """Valid documents with arbitrary tokens in the scan and delay keys."""
    base = render_config(RunConfig(sigma_f=1e6, tau1=1e-6, tau2=1e-6),
                         ScanSpec(0.0, 1e-7, 3)).splitlines()
    for key in ("tau1_s",) + _SCAN_KEYS:
        if draw(st.booleans()):
            at = next(i for i, line in enumerate(base)
                      if line.startswith(key + " "))
            base[at] = f"{key} = {draw(_NUMBER_TOKENS)}"
    return "\n".join(base) + "\n"


class TestParserFuzz:
    @given(st.one_of(config_documents(), scan_documents()))
    @settings(max_examples=400, deadline=None)
    def test_only_config_parse_errors(self, text):
        try:
            config, scan = parse_config(text)
        except ConfigParseError:
            return
        if scan is not None:
            assert math.isfinite(scan.start) and math.isfinite(scan.stop)
            assert config.tau1 + min(scan.start, scan.stop) >= 0
            assert 1 <= scan.steps <= _MAX_SCAN_STEPS


@st.composite
def valid_setups(draw):
    mode = draw(st.sampled_from(["amplitude", "classical"]))
    mu_cap = 1.0 if mode == "classical" else 5.0
    tau1 = draw(st.floats(0.0, 1e-3, allow_nan=False))
    use_scan = draw(st.booleans())
    if use_scan:
        start = draw(st.floats(-tau1, 1e-3, allow_nan=False))
        stop = draw(st.floats(-tau1, 1e-3, allow_nan=False))
        scan = ScanSpec(start, stop, draw(st.integers(1, 500)))
        tau2 = tau1 + start
    else:
        scan = None
        tau2 = draw(st.floats(0.0, 1e-3, allow_nan=False))
    config = RunConfig(
        sigma_f=2 * math.pi * draw(st.floats(0.0, 1e9, allow_nan=False)),
        tau1=tau1,
        tau2=tau2,
        mean_photon_number=draw(st.floats(1e-6, mu_cap, allow_nan=False)),
        n_pairs=draw(st.integers(1, 10**7)),
        higher_order_ratio=draw(st.floats(0.0, 0.99, allow_nan=False)),
        pulse_sigma=draw(st.floats(0.0, 1e-6, allow_nan=False)),
        coincidence_window=draw(st.floats(1e-12, 1e-6, allow_nan=False)),
        seed=draw(st.integers(0, 2**63 - 1)),
        mode=mode,
        heterodyne_filter=draw(st.booleans()),
    )
    return config, scan


class TestRoundTrip:
    @given(valid_setups())
    @settings(max_examples=200, deadline=None)
    def test_parse_render_round_trip(self, setup):
        config, scan = setup
        parsed, parsed_scan = parse_config(render_config(config, scan))
        # the Hz <-> rad/s divide/multiply is the only lossy step
        assert parsed.sigma_f == pytest.approx(config.sigma_f, rel=1e-15)
        assert parsed.tau1 == config.tau1
        assert parsed.mean_photon_number == config.mean_photon_number
        assert parsed.n_pairs == config.n_pairs
        assert parsed.higher_order_ratio == config.higher_order_ratio
        assert parsed.pulse_sigma == config.pulse_sigma
        assert parsed.coincidence_window == config.coincidence_window
        assert parsed.seed == config.seed
        assert parsed.mode == config.mode
        assert parsed.heterodyne_filter == config.heterodyne_filter
        assert parsed_scan == scan
        if scan is None:
            assert parsed.tau2 == config.tau2

    @given(valid_setups())
    @settings(max_examples=200, deadline=None)
    def test_manifest_config_file_reads_back_exactly(self, setup):
        # a sigma_f that is 2*pi times a file value survives the Hz
        # round trip exactly, so the manifest re-runs the same config
        config, scan = setup
        manifest = make_manifest("scan", config, scan, wall_clock_s=0.0)
        assert parse_config(manifest["config_file"]) == (config, scan)

    @given(section=st.sampled_from(sorted(_SCHEMA)),
           name=st.from_regex(r"[a-z][a-z0-9_]{0,14}", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_injected_unknown_keys_always_rejected(self, section, name):
        assume(name not in _SCHEMA[section])
        base = render_config(RunConfig(sigma_f=1e6, tau1=1e-6, tau2=1e-6))
        lines = base.splitlines()
        at = lines.index(f"[{section}]") + 1
        lines.insert(at, f"{name} = 1")
        with pytest.raises(ConfigParseError):
            parse_config("\n".join(lines))


class TestStrayLineBreaks:
    """A stray line break or any other control character but tab."""

    @given(setup=valid_setups(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejected_where_it_stands(self, setup, data):
        text = render_config(*setup)
        at = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from(STRAY_BREAKS + CONTROL_CHARS))
        # a "\r" that ends a line is the "\r" of a "\r\n" line end
        assume(char != "\r" or text[at:at + 1] not in ("\n", ""))
        with pytest.raises(ConfigParseError) as excinfo:
            parse_config(text[:at] + char + text[at:])
        line_start = text.rfind("\n", 0, at) + 1
        assert (excinfo.value.line, excinfo.value.column) == (
            text.count("\n", 0, at) + 1, at - line_start + 1)
        # the message shows the character escaped
        assert repr(char) in str(excinfo.value)


#: a config whose file seed is 1
SEEDED = RunConfig(sigma_f=1e6, tau1=1e-6, tau2=2e-6, seed=1)


class TestSeedPrecedence:
    def test_cli_wins(self):
        assert resolve_seed(SEEDED, "9", {"COHOM_SEED": "5"}).seed == 9

    def test_env_beats_file(self):
        assert resolve_seed(SEEDED, None, {"COHOM_SEED": "5"}).seed == 5

    def test_file_is_fallback(self):
        assert resolve_seed(SEEDED, None, {}) == SEEDED

    def test_bad_env_value(self):
        with pytest.raises(ConfigParseError) as err:
            resolve_seed(SEEDED, None, {"COHOM_SEED": "many"})
        assert "COHOM_SEED" in str(err.value)

    def test_bad_env_value_escaped(self):
        # a control character stays visible in the message
        with pytest.raises(ConfigParseError) as err:
            resolve_seed(SEEDED, None, {"COHOM_SEED": "5\x01"})
        assert str(err.value) == r"COHOM_SEED: not an integer: '5\x01'"


#: integer texts: literals of each base, leading zeros, float forms
#: exact and inexact, negatives, the digits of other scripts, and text
#: that is no integer at all
_INTEGER_TEXTS = st.one_of(
    st.sampled_from(["0x10", "010", "1_0", "1e3", "-1e3", "0x", "0b101",
                     "0o17", "-0", "+7", "09007199254740993",
                     "9.007199254740993e15", "1e30", "1e-400", "2.5", "nan",
                     "inf", "0e99999999999999999999", "1__0", "_1"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.text("0123456789+-._eExXoObBaf\u0663\u06f5\u0967\uff11\uff10",
            min_size=1, max_size=12),
)


def _seed_or_rejection(read, source: str):
    """The seed ``read`` returns, or its error message without the name
    or position of its source, and without the file's key."""
    try:
        return read()
    except ConfigParseError as err:
        return str(err).removeprefix(f"{source}: ").removeprefix("seed: ")


class TestOneIntegerGrammar:
    @given(_INTEGER_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_file_variable_and_flag_agree(self, text):
        def from_file():
            config, _ = parse_config(MINIMAL + f"[run]\nseed = {text}\n")
            return config.seed

        def from_flag():
            args = build_parser().parse_args(
                ["simulate", "--config", "x.cfg", f"--seed={text}"])
            return resolve_seed(SEEDED, args.seed, {}).seed

        outcome = _seed_or_rejection(from_file, "line 6, column 8")
        assert outcome == _seed_or_rejection(
            lambda: resolve_seed(SEEDED, None, {"COHOM_SEED": text}).seed,
            "COHOM_SEED")
        assert outcome == _seed_or_rejection(from_flag, "--seed")


def small_run(**overrides):
    params = dict(sigma_f=1.5e6, tau1=1e-6, tau2=1e-6, n_pairs=20_000,
                  higher_order_ratio=0.01, seed=5)
    params.update(overrides)
    config = RunConfig(**params)
    return config, simulate_run(config)


class TestRows:
    def test_analytic_rows_closed_form(self):
        config = RunConfig(sigma_f=2.5e5, tau1=1e-6, tau2=1e-6)
        taus = [-5e-7, 0.0, 5e-7]
        rows = analytic_rows(config, taus)
        assert [r.tau21_s for r in rows] == taus
        for row in rows:
            tau2 = config.tau1 + row.tau21_s
            assert row.I1 == pytest.approx(
                ensemble_intensity(1, config.sigma_f, config.tau1, tau2))
            assert row.I1 + row.I3 == pytest.approx(1.0, abs=1e-12)
            assert row.I2 + row.I4 == pytest.approx(1.0, abs=1e-12)
            assert row.R13 == 0.0 and row.R24 == 0.0
            assert row.n_coinc_13 == 0 and row.n_coinc_24 == 0

    @pytest.mark.parametrize("table", [analytic_rows, scan_tau21],
                             ids=["analytic_rows", "scan_tau21"])
    @pytest.mark.parametrize("tau1, tau21", [
        *((1e-7, tau21) for tau21 in (-5e-7, -math.inf, math.inf, math.nan)),
        (1e308, 1.7e308)])  # tau1 + tau21 overflows
    def test_analytic_rows_reject_negative_tau2(self, tau1, tau21, table):
        # scans and analytic tables check their delays through one rule
        config = RunConfig(sigma_f=2.5e5, tau1=tau1, tau2=tau1)
        with pytest.raises(ConfigError) as err:
            table(config, [tau21])
        assert err.value.field == "tau2"

    def test_simulation_rows_match_counts(self):
        config, _ = small_run()
        points = scan_tau21(config, [0.0, 1e-7])
        rows = simulation_rows(config, points)
        for row, point in zip(rows, points):
            counts = point.counts
            assert row.n_coinc_13 == counts.coincidences[(1, 3)]
            assert row.n_coinc_24 == counts.coincidences[(2, 4)]
            assert row.g2_13 == g2_estimate(counts, (1, 3)).value
            assert row.R13 == counts.coincidences[(1, 3)] / counts.n_generated
            assert row.I1 == counts.singles[1] / counts.n_generated

    def test_classical_rows_normalize_by_mu(self):
        config, counts = small_run(mode="classical", mean_photon_number=0.5)
        from cohom.montecarlo import ScanPoint

        row, = simulation_rows(config, [ScanPoint(0.0, counts)])
        assert row.I1 == counts.singles[1] / (counts.n_generated * 0.5)


def row_from_values(values: list) -> ResultRow:
    return ResultRow(**{name: kind(value) for (name, kind), value
                        in zip(_COLUMNS.items(), values)})


def parse_results_csv(text: str) -> list:
    """Oracle: read back a results CSV; the header must match exactly."""
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != ",".join(_COLUMNS):
        raise ValueError("unrecognized results CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} columns, "
                             f"got {len(parts)}")
        rows.append(row_from_values(parts))
    return rows


def parse_results_json(text: str) -> RunResult:
    """Oracle: read back a results JSON document; ``null`` becomes NaN."""
    payload = json.loads(text)
    rows = tuple(
        row_from_values([math.nan if entry[name] is None else entry[name]
                         for name in _COLUMNS])
        for entry in payload["rows"]
    )
    return RunResult(rows=rows, manifest=payload["manifest"])


SAMPLE_CONFIG = RunConfig(sigma_f=2.5e5, tau1=1e-6, tau2=1e-6, seed=11)


def sample_result() -> RunResult:
    rows = tuple(analytic_rows(SAMPLE_CONFIG, [-1e-7, 0.0, 1e-7]))
    return RunResult(rows=rows, manifest=make_manifest(
        "analytic", SAMPLE_CONFIG, None, wall_clock_s=0.25))


class TestResultsSerialization:
    def test_csv_header_exact(self):
        text = render_results(sample_result(), "csv")
        assert text.splitlines()[0] == (
            "tau21_s,I1,I2,I3,I4,R13,R24,g2_13,g2_13_err,"
            "g2_24,g2_24_err,n_coinc_13,n_coinc_24")

    def test_csv_round_trip(self):
        result = sample_result()
        text = render_results(result, "csv")
        rows = parse_results_csv(text)
        assert len(rows) == len(result.rows)
        for parsed, original in zip(rows, result.rows):
            assert parsed.tau21_s == pytest.approx(original.tau21_s, rel=1e-11)
            assert parsed.I1 == pytest.approx(original.I1, rel=1e-11)
            assert parsed.n_coinc_13 == original.n_coinc_13
        # a second render of the parsed rows is byte-identical
        again = render_results(RunResult(tuple(rows), {}), "csv")
        assert again == text

    def test_csv_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_results_csv("a,b,c\n1,2,3\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            render_results(sample_result(), "xml")

    def test_json_mirrors_rows_and_manifest(self):
        result = sample_result()
        parsed = parse_results_json(render_results(result, "json"))
        assert parsed.manifest["seed"] == 11
        assert parsed.manifest["tool"] == "cohom"
        assert parse_config(parsed.manifest["config_file"]) == (
            SAMPLE_CONFIG, None)
        csv_rows = parse_results_csv(render_results(result, "csv"))
        assert list(parsed.rows) == csv_rows

    def test_json_nan_is_null_and_round_trips(self):
        row = ResultRow(tau21_s=0.0, I1=0.5, I2=0.0, I3=0.5, I4=0.0,
                        R13=0.0, R24=0.0, g2_13=0.25, g2_13_err=0.1,
                        g2_24=math.nan, g2_24_err=math.nan,
                        n_coinc_13=1, n_coinc_24=0)
        result = RunResult((row,), sample_result().manifest)
        text = render_results(result, "json")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rendered = json.loads(text, parse_constant=reject)["rows"][0]
        assert rendered["g2_24"] is None and rendered["g2_24_err"] is None
        assert rendered["g2_13"] == 0.25
        parsed, = parse_results_json(text).rows
        assert math.isnan(parsed.g2_24) and math.isnan(parsed.g2_24_err)
        assert parsed.g2_13 == 0.25
        # CSV keeps writing nan, and both formats read back the same row
        csv_row, = parse_results_csv(render_results(result, "csv"))
        assert render_results(RunResult((parsed,), {}), "csv") == \
            render_results(RunResult((csv_row,), {}), "csv")

    def test_float_rendering_significant_digits(self):
        row = ResultRow(tau21_s=1.23456789012345e-7, I1=0.5, I2=0.5, I3=0.5,
                        I4=0.5, R13=0.0, R24=0.0, g2_13=0.0, g2_13_err=0.0,
                        g2_24=0.0, g2_24_err=0.0, n_coinc_13=0, n_coinc_24=0)
        line = render_results(RunResult((row,), {}), "csv").splitlines()[1]
        assert line.split(",")[0] == "1.23456789012e-07"


#: ResultRow with every float hypothesis draws (NaN, +-inf and -0.0
#: included) and counts anywhere in [0, 2**63 - 1], near its top too
result_rows = st.builds(
    ResultRow,
    **{name: st.one_of(st.integers(0, 2**63 - 1),
                       st.integers(2**63 - 2**12, 2**63 - 1))
       for name in ("n_coinc_13", "n_coinc_24")})


def assert_read_back(parsed, original, *, infinity_is_nan=False):
    """``parsed`` holds ``original`` to the 12 rendered digits."""
    for name in _COLUMNS:
        got, want = getattr(parsed, name), getattr(original, name)
        if isinstance(want, int):
            assert got == want and isinstance(got, int), name
        elif math.isnan(want) or (infinity_is_nan and math.isinf(want)):
            assert math.isnan(got), name
        else:
            assert got == pytest.approx(want, rel=1e-11), name
            assert math.copysign(1.0, got) == math.copysign(1.0, want), name


class TestResultsRoundTrip:
    @given(st.lists(result_rows, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_csv(self, rows):
        text = render_results(RunResult(tuple(rows), {}), "csv")
        parsed = parse_results_csv(text)
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            assert_read_back(got, want)
        assert render_results(RunResult(tuple(parsed), {}), "csv") == text

    @given(st.lists(result_rows, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_json(self, rows):
        text = render_results(RunResult(tuple(rows), {"seed": 1}), "json")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        json.loads(text, parse_constant=reject)
        parsed = parse_results_json(text)
        assert parsed.manifest == {"seed": 1}
        assert len(parsed.rows) == len(rows)
        for got, want in zip(parsed.rows, rows):
            # strict JSON has no infinity; null stands for it, read as NaN
            assert_read_back(got, want, infinity_is_nan=True)


PINNED_ROWS = (
    ResultRow(tau21_s=-1e-07, I1=0.5, I2=0.123456789012345, I3=1 / 3,
              I4=0.0, R13=0.0, R24=2.5e-05, g2_13=0.0, g2_13_err=0.000125,
              g2_24=math.nan, g2_24_err=math.nan, n_coinc_13=0,
              n_coinc_24=5),
    ResultRow(tau21_s=-0.0, I1=1.0, I2=12345678.9, I3=math.inf,
              I4=-math.inf, R13=1e-300, R24=0.1 + 0.2, g2_13=0.5,
              g2_13_err=0.0125, g2_24=1.0, g2_24_err=5e-324,
              n_coinc_13=2**63 - 1, n_coinc_24=42),
)

PINNED_CSV = """\
tau21_s,I1,I2,I3,I4,R13,R24,g2_13,g2_13_err,g2_24,g2_24_err,n_coinc_13,n_coinc_24
-1e-07,0.5,0.123456789012,0.333333333333,0,0,2.5e-05,0,0.000125,nan,nan,0,5
-0,1,12345678.9,inf,-inf,1e-300,0.3,0.5,0.0125,1,4.94065645841e-324,9223372036854775807,42
"""

PINNED_JSON = """\
{
  "manifest": {
    "command": "scan",
    "seed": 3
  },
  "rows": [
    {
      "tau21_s": -1e-07,
      "I1": 0.5,
      "I2": 0.123456789012,
      "I3": 0.333333333333,
      "I4": 0.0,
      "R13": 0.0,
      "R24": 2.5e-05,
      "g2_13": 0.0,
      "g2_13_err": 0.000125,
      "g2_24": null,
      "g2_24_err": null,
      "n_coinc_13": 0,
      "n_coinc_24": 5
    },
    {
      "tau21_s": -0.0,
      "I1": 1.0,
      "I2": 12345678.9,
      "I3": null,
      "I4": null,
      "R13": 1e-300,
      "R24": 0.3,
      "g2_13": 0.5,
      "g2_13_err": 0.0125,
      "g2_24": 1.0,
      "g2_24_err": 5e-324,
      "n_coinc_13": 9223372036854775807,
      "n_coinc_24": 42
    }
  ]
}
"""


def test_pinned_result_text():
    result = RunResult(PINNED_ROWS, {"command": "scan", "seed": 3})
    assert render_results(result, "csv") == PINNED_CSV
    assert render_results(result, "json") == PINNED_JSON
