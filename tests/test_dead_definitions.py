"""The package holds only what it runs: every top-level function, class and
constant in src/ahsabr is referenced somewhere in the package or exported by
its __init__, which names its exports in __all__ and loads them on first use.
A kernel that only the tests call belongs in tests/oracles.py."""

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


def _defined(node) -> list:
    """Names a top-level statement defines: a function, a class, or an
    assigned name, other than a dunder such as __version__ or __getattr__,
    which Python reads itself."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        names = [
            name.id
            for name in ast.walk(node)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        ]
    else:
        return []
    return [name for name in names if not name.startswith("__")]


def test_every_export_resolves():
    assert sorted(ahsabr.__all__) == sorted(set(ahsabr.__all__))
    for name in ahsabr.__all__:
        getattr(ahsabr, name)
    assert set(ahsabr.__all__) <= set(dir(ahsabr))


def test_every_top_level_definition_is_used():
    # __init__'s exports count: an export is used
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = set().union(*map(_references, trees.values()), ahsabr.__all__)
    unused = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        for name in _defined(node)
        if name not in used
    ]
    assert not unused, f"defined in src/ahsabr but never used: {unused}"
