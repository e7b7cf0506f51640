"""Every pytest.approx in the suite states its absolute bound.  With rel=
alone, approx also accepts any difference up to 1e-12, so a relative bound
on a value much smaller than 1e-12 / rel checks nothing; abs=0.0 makes the
relative bound the whole check."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _is_approx(node) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "approx") or (
        isinstance(func, ast.Name) and func.id == "approx"
    )


def test_every_approx_states_abs():
    missing = [
        f"{path.name}:{node.lineno}"
        for path in sorted(TESTS.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _is_approx(node)
        and not any(kw.arg == "abs" for kw in node.keywords)
    ]
    assert not missing, f"pytest.approx without abs=: {missing}"
