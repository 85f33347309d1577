"""Guards on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import octicount

SOURCES = sorted(Path(octicount.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a correctness check written as
    # one silently disappears; the package raises explicit exceptions instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves():
    unresolved = []
    for path in SOURCES:
        name = "octicount" if path.stem == "__init__" else f"octicount.{path.stem}"
        module = importlib.import_module(name)
        unresolved += [f"{path.name}:{attr}" for attr in getattr(module, "__all__", ())
                       if not hasattr(module, attr)]
    assert unresolved == []
