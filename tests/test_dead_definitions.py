"""The package holds only what it runs: every top-level function and class in
src/ahsabr is referenced somewhere in the package or exported by its
__init__.  A kernel that only the tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

import ahsabr

PACKAGE = Path(ahsabr.__file__).parent


def _references(tree) -> set:
    """Names loaded, attributes read and names imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_definition_is_used():
    # __init__'s imports count: an export is used
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = set().union(*map(_references, trees.values()))
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unused, f"defined in src/ahsabr but never used: {unused}"
