"""The package stays pure Python with no runtime dependencies: every module
of src/toyshtlab imports only the package itself and the standard library,
so sympy, hypothesis and numpy stay test-only."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toyshtlab"


def imported_modules(tree):
    """The top-level module name of every import in the tree; None for a
    relative import, which stays inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_package_and_the_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = {name for name in imported_modules(tree)
               if name not in (None, "toyshtlab") and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import fractions\nfrom sympy import GF\nfrom . import gf\n")
    assert list(imported_modules(tree)) == ["fractions", "sympy", None]
