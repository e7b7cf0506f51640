"""The README states the size of the package: "`src/` holds N lines of
Python".  N must be the line count of src/ahsabr/*.py, so a change that
grows or shrinks the package updates the number with it."""

import re
from pathlib import Path

import ahsabr

PACKAGE = Path(ahsabr.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_states_the_package_line_count():
    stated = re.findall(r"`src/` holds (\d+) lines of Python", README.read_text())
    lines = sum(path.read_text().count("\n") for path in PACKAGE.glob("*.py"))
    assert stated == [str(lines)], f"README states {stated}, src/ holds {lines}"
