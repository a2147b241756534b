"""The package exports only what the command line and the README's library
example use, and the README names only what exists.

``inpo.__all__`` holds every name the README's ``from inpo import (...)``
block imports, and no name beyond those and the names ``cli.py`` imports
from the package's modules. Every other name is reached by its module path,
so every backticked dotted ``inpo.`` name in the README must resolve.
"""
import ast
import importlib
import pathlib
import re

import inpo
from inpo.config import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CLI = ROOT / "src" / "inpo" / "cli.py"


def from_imports(source: str, relative: bool, module: str | None = None) -> set[str]:
    """Names bound by ``from ... import`` statements: relative ones, or
    absolute ones from ``module``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 if relative else node.level == 0 and node.module == module):
            found |= {alias.name for alias in node.names}
    return found


def readme_library_names() -> set[str]:
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    return set().union(*(from_imports(b, relative=False, module="inpo") for b in blocks))


def resolve(dotted: str):
    """The object a dotted name refers to: the longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_the_guard_reads_relative_and_package_imports():
    src = "from .a import x, y\nfrom inpo import z\nfrom inpo.data import w\nimport inpo\n"
    assert from_imports(src, relative=True) == {"x", "y"}
    assert from_imports(src, relative=False, module="inpo") == {"z"}


def test_readme_imports_its_library_names_from_the_package():
    assert {"align", "make_preference_pairs", "win_rate"} <= readme_library_names()


def test_exports_are_the_readme_names_and_the_cli_imports():
    exported = set(inpo.__all__)
    readme = readme_library_names()
    cli = from_imports(CLI.read_text(), relative=True)
    assert not readme - exported, f"README imports unexported {sorted(readme - exported)}"
    extra = exported - readme - cli
    assert not extra, f"exported but used by neither the README nor the CLI: {sorted(extra)}"


def test_every_dotted_inpo_name_in_the_readme_resolves():
    names = set(re.findall(r"`(inpo(?:\.\w+)+)`", README))
    assert "inpo.preference.make_targets" in names
    for name in sorted(names):
        resolve(name)


def test_the_readme_config_table_lists_every_registry_key():
    section = README.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = {key for cell in rows for key in re.findall(r"`([\w.]+)`", cell)}
    assert keys == set(REGISTRY)


def test_the_readme_config_table_shows_every_key_bound():
    # a row's cells list its keys' values in order, split by " / " or ", "; a
    # time's "and ≤ T" is checked against the model, not by the registry
    section = README.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    shown = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys_cell, _, bound_cell = (cell.strip() for cell in line.split("|")[1:4])
        keys = re.findall(r"`([\w.]+)`", keys_cell)
        if len(keys) == 1 or not bound_cell:
            bounds = [bound_cell] * len(keys)
        else:
            bounds = bound_cell.split(" / " if " / " in bound_cell else ", ")
        assert len(bounds) == len(keys), line
        for key, bound in zip(keys, bounds):
            text = bound.replace("≥", ">=").removesuffix(" and ≤ T")
            shown[key] = None if text in ("", "—") else text
    assert shown == {key: bound for key, (_, _, bound) in REGISTRY.items()}
