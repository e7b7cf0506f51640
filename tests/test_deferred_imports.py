"""The package defers a relative import into a function only where that
keeps a module from loading: the CLI's price and density never load the
calibration or the Hagan reference.  Each such import is listed here, and
none of them names a module that its own module's top-level imports load
anyway."""

import ast
from pathlib import Path

import ahsabr

PACKAGE = Path(ahsabr.__file__).parent

# (module, function, imported module)
ALLOWED = [
    ("cli", "cmd_calibrate", "analytic_calib"),
    ("cli", "cmd_recalibrate", "analytic_calib"),
    ("cli", "cmd_recalibrate", "hagan_ref"),
]


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _deferred(node, function=None):
    """(function, imported module) of each relative import made inside a
    function, named by the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _deferred(child, child.name)
        elif (isinstance(child, ast.ImportFrom) and child.level == 1
                and function is not None):
            yield function, child.module
        else:
            yield from _deferred(child, function)


def _top_level(tree) -> set:
    """Package modules a module imports at its top level."""
    return {node.module.split(".")[0] for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is not None}


def test_deferred_imports_are_the_allowed_sites():
    sites = [(module, *site) for module, tree in _trees().items()
             for site in _deferred(tree)]
    assert sorted(sites) == sorted(ALLOWED)


def test_no_deferred_import_of_a_module_already_loaded():
    trees = _trees()
    graph = {module: _top_level(tree) for module, tree in trees.items()}

    def loaded(module) -> set:
        seen, todo = set(), [module]
        while todo:
            for target in graph.get(todo.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        return seen

    assert "market_io" in loaded("cli")  # the walk follows imports
    for module, tree in trees.items():
        for function, target in _deferred(tree):
            assert target not in loaded(module), (
                f"{module}.{function} defers {target}, which {module} "
                "loads at import anyway"
            )
