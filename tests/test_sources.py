"""Checks on the package's source files themselves."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nmwaves")
                 .glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml promises Python 3.10; a newer syntax form would only
    # fail on an interpreter that old
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
