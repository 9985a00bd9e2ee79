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


def test_every_private_module_name_is_used_in_the_library():
    # a private helper, class or constant that nothing in the package reads
    # is a leftover of a removed route
    package = Path(spikelab.__file__).resolve().parent
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in package.rglob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(private) >= 10 and sorted(private - used) == []
