"""The exact factor search is a loop that its node budget bounds, so no
result depends on the interpreter's recursion limit: no module names
RecursionError or reads or sets that limit."""

import ast
from pathlib import Path

import irrdec

PACKAGE = Path(irrdec.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
FORBIDDEN = {"RecursionError", "getrecursionlimit", "setrecursionlimit"}


def _names(tree) -> set:
    """Every name a tree reads, every attribute it takes and every name it imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_the_check_sees_each_form():
    for source in ("try:\n    f()\nexcept RecursionError:\n    pass",
                   "import sys\nsys.setrecursionlimit(10 ** 6)",
                   "import sys\nlimit = sys.getrecursionlimit()",
                   "from sys import setrecursionlimit"):
        assert _names(ast.parse(source)) & FORBIDDEN, source


def test_no_module_reads_the_recursion_limit():
    assert any(p.as_posix().endswith("factor_solver/__init__.py") for p in MODULES)
    found = [f"{path.relative_to(PACKAGE)}: {sorted(names)}" for path in MODULES
             if (names := _names(ast.parse(path.read_text(), filename=str(path))) & FORBIDDEN)]
    assert found == []
