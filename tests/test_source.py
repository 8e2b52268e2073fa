"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gradedit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_has_no_assert_statements(path):
    # `python -O` strips asserts, so an invariant resting on one vanishes
    # there; every check must raise an error of its own
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


def test_sources_are_found():
    assert "cli.py" in {p.name for p in SOURCES}
