"""The README's config and library examples work as written, its
report header is the renderer's, and the flags it names are the
parser's."""

import argparse
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from cohom.benchio import parse_config
from cohom.cli import build_parser, render_report
from cohom.montecarlo import RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def code_blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_has_examples():
    assert code_blocks("ini") and code_blocks("python")


@pytest.mark.parametrize("text", code_blocks("ini"), ids=lambda _: "ini")
def test_config_example_parses_at_defaults(text):
    config, scan = parse_config(text)
    assert scan is None
    for field in fields(RunConfig):
        if field.default is not MISSING:
            assert getattr(config, field.name) == field.default, field.name
    # the commented-out scan trio parses in place of tau2_s
    scan_text = re.sub(r"^tau2_s .*\n", "", text, flags=re.M)
    scan_text = re.sub(r"^# (tau21_scan_)", r"\1", scan_text, flags=re.M)
    _, scan = parse_config(scan_text)
    assert scan is not None and scan.steps > 1


@pytest.mark.parametrize("code", code_blocks("python"),
                         ids=lambda _: "python")
def test_library_example_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_report_header_is_the_renderers():
    example, = code_blocks("csv")
    assert (example.splitlines()[0]
            == render_report([], "csv").splitlines()[0])


def test_named_flags_are_the_parsers():
    # flags of other programs, such as `pip install --no-build-isolation`
    cohom_text = re.sub(r"^pip .*$", "", README, flags=re.M)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cohom_text))
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {option
               for sub in subparsers.choices.values()
               for action in sub._actions
               for option in action.option_strings
               if option.startswith("--")}
    assert named == options - {"--help"}
