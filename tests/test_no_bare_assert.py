"""`python -O` strips assert statements, so the package raises named errors
(InvariantViolated, ValueError) instead; this pins that for every module."""

import ast
from pathlib import Path

import irrdec

PACKAGE = Path(irrdec.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_every_module_is_found():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"__init__.py", "exact.py", "cli/__init__.py", "factor_solver/__init__.py"} <= names


def test_no_assert_statements():
    found = [f"{path}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
