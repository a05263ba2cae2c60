"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import podag

PACKAGE = Path(podag.__file__).resolve().parent


def private_definitions(tree):
    """Names of the private module-level functions, private methods and UPPER_CASE constants."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_"):
                    if not item.name.endswith("__"):
                        yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id


def uses(tree):
    """Every name the code reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    used = {name for tree in trees.values() for name in uses(tree)}
    unused = [
        f"{module}: {name}"
        for module, tree in sorted(trees.items())
        for name in private_definitions(tree)
        if name not in used
    ]
    assert len(trees) > 1
    assert unused == []


def test_every_exported_name_resolves():
    # a deleted function must not leave its name in __all__, where
    # ``from podag.<module> import *`` would raise
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("podag" if path.stem == "__init__" else f"podag.{path.stem}")
        stale += [f"{path.name}: {name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
