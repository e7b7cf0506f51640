"""The package's modules import one another without a cycle: every relative
import, a function-level one included, points down a fixed order of
modules.  A cycle that an import inside a function hides still ties two
modules together, and moving one of them breaks the other at run time."""

import ast
from pathlib import Path

import ahsabr

PACKAGE = Path(ahsabr.__file__).parent


def _imports(tree, modules) -> set:
    """Package modules that a module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a module, or a name of __init__
                found.update(
                    alias.name if alias.name in modules else "__init__"
                    for alias in node.names
                )
    return found


def _cycle(graph) -> list:
    """One cycle of the graph as a path that closes on itself, or []."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for target in sorted(graph.get(node, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        found = visit(node)
        if found:
            return found
    return []


def test_package_imports_form_no_cycle():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {
        path.stem: _imports(ast.parse(path.read_text()), modules)
        for path in PACKAGE.glob("*.py")
    }
    assert "ah_engine" in graph["analytic_calib"]  # the walk sees imports
    cycle = _cycle(graph)
    assert not cycle, f"src/ahsabr imports in a cycle: {' -> '.join(cycle)}"
