"""The package's public surface: one sorted list of names, each of which resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import spikelab


def test_all_is_sorted_and_unique():
    names = spikelab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_every_exported_name_resolves():
    missing = [name for name in spikelab.__all__ if not hasattr(spikelab, name)]
    assert missing == []


def test_no_assert_in_the_library():
    # python -O strips assert statements; every self-check must be a raise
    package = Path(spikelab.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) >= 8 and found == []
