"""The package spells each normal-model constant once: pi enters through
numerics alone, whose atm_normal_vol is the one conversion between the ATM
price and the ATM vol.  A module that reads math.pi writes its own."""

import ast
from pathlib import Path

import ahsabr

PACKAGE = Path(ahsabr.__file__).parent


def _reads_pi(tree) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "pi"
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "pi" for alias in node.names):
            return True
    return False


def test_only_numerics_reads_math_pi():
    readers = sorted(
        path.stem for path in PACKAGE.glob("*.py")
        if path.stem != "numerics" and _reads_pi(ast.parse(path.read_text()))
    )
    assert not readers, f"modules other than numerics read math.pi: {readers}"
