"""The command-line surface, pinned: every help text, byte for byte.

``tests/golden/help.json`` holds the 21 help texts of ``repro``: the
top-level parser, each subcommand and ``cache stats|gc``, formatted at
80 columns.  A flag added, removed, renamed or given a new default or
help text shows up here as a diff.  argparse's layout differs between
Python versions, so the texts hold for the major.minor recorded in the
file and the suite skips elsewhere.  ``--regen-golden`` rewrites the
file; say in CHANGES.md which texts moved and why.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.cli import build_parser

HELP_PATH = Path(__file__).parent / "golden" / "help.json"


def _python() -> str:
    major, minor, _ = platform.python_version_tuple()
    return f"{major}.{minor}"


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, Any]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def help_texts() -> Dict[str, str]:
    """Every help text of the parser tree, keyed by its command line."""
    texts = {}
    pending = [("repro", build_parser())]
    while pending:
        prog, parser = pending.pop(0)
        texts[prog] = parser.format_help()
        pending += [(f"{prog} {name}", child)
                    for name, child in _subcommands(parser).items()]
    return texts


def test_help_texts_match_the_snapshot(monkeypatch, request):
    monkeypatch.setenv("COLUMNS", "80")
    texts = help_texts()
    if request.config.getoption("--regen-golden"):
        HELP_PATH.write_text(json.dumps(
            {"python": _python(), "columns": 80, "help": texts},
            indent=2) + "\n")
        return
    stored = json.loads(HELP_PATH.read_text())
    if stored["python"] != _python():
        pytest.skip(f"help texts are pinned to Python {stored['python']}; "
                    f"this is Python {_python()}")
    assert list(texts) == list(stored["help"])
    for prog, text in texts.items():
        assert text == stored["help"][prog], prog
