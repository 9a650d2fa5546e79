"""README lists that the code also states: each test fails when one side
changes without the other."""

from __future__ import annotations

import pathlib
import re

from softtopo import cli
from softtopo.fuzzing.registry import REGISTRY

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)


def _between(start: str, end: str) -> str:
    head = README.index(start) + len(start)
    return README[head:README.index(end, head)]


def test_readme_case_table_is_the_registry():
    table = _between("| id | statement under test |", "\n\n")
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", table, re.MULTILINE)
    assert rows == [(case.case_id, case.description) for case in REGISTRY.values()]


def test_readme_check_usage_lists_every_property():
    usage = _between("softtopo check PROPERTY FILE", "\nsofttopo compute")
    assert usage.replace(",", " ").split() == list(cli._PROPERTIES)
