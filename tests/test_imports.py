"""The package depends on numpy and the standard library only.

Every import statement in src/inpo is read with ast, so a module that
imports anything else fails here even when the import is never executed.
"""
import ast
import pathlib
import sys

import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "inpo"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "inpo"}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules a source file imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_guard_sees_every_kind_of_import():
    src = "import os.path, scipy\nfrom numpy import linalg\nfrom . import x\ndef f():\n    import torch\n"
    assert imported_roots(src) == {"os", "scipy", "numpy", "torch"}


@pytest.mark.parametrize("path", sorted(PKG.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    extra = imported_roots(path.read_text()) - ALLOWED
    assert not extra, f"{path.name} imports {sorted(extra)}"
