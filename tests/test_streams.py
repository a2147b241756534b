"""Every random stream the package draws from is made by denoiser._stream,
the stream of SeedSequence([seed, key, ...]) (or of one of its spawned
children), so the seed-to-stream policy lives in one place.

The policy is checked on the source: every module in src/inpo is read
with ast, and a name of numpy.random anywhere outside _stream, or an import
of the standard library's random, fails here even when it is never
executed.
"""
import ast
import pathlib

import numpy as np
import pytest

import inpo.denoiser as denoiser_mod

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "inpo"
STREAM = "_stream"


def random_uses(source: str) -> list[int]:
    """The lines in ``source``, outside a function named _stream, that name
    numpy.random: ``np.random`` or ``numpy.random`` (under any name numpy is
    imported as), ``import numpy.random``, ``from numpy import random`` or
    ``from numpy.random import ...``; and those that import the standard
    library's random."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == STREAM for node in ast.walk(fn)}
    numpy_names = {"np", "numpy"} | {alias.asname or "numpy" for node in ast.walk(tree)
                                     if isinstance(node, ast.Import)
                                     for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute):
            if node.attr == "random" and isinstance(node.value, ast.Name) \
                    and node.value.id in numpy_names:
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name in ("random", "numpy.random") or alias.name.startswith("numpy.random.")
                   for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module in ("random", "numpy.random") or module.startswith("numpy.random.") \
                    or (module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append(node.lineno)
    return sorted(set(found))


def test_the_guard_sees_every_kind_of_random_name():
    src = "\n".join([
        'rng = np.random.default_rng(0)',              # 1
        'g: numpy.random.Generator',                   # 2
        'import numpy.random',                         # 3
        'import numpy.random as npr',                  # 4
        'from numpy import random',                    # 5
        'from numpy import linalg, random as r',       # 6
        'from numpy.random import SeedSequence',       # 7
        'import random',                               # 8
        'from random import shuffle',                  # 9
        'import numpy as xp',                          # 10: binds numpy as xp
        'xp.random.seed(1)',                           # 11
        'rng.random(3)',                               # a generator's method
        'from numpy import linalg',
        'from .random import x',
        'def _stream(seed):',
        '    return np.random.default_rng(seed)',
    ])
    assert random_uses(src) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11]


@pytest.mark.parametrize("path", sorted(PKG.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_names_numpy_random_outside_the_one_stream_function(path):
    lines = random_uses(path.read_text())
    assert not lines, f"{path.name} names a random module outside {STREAM} at {lines}"


def test_the_one_stream_function_is_denoisers():
    makers = [path.name for path in sorted(PKG.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == STREAM]
    assert makers == ["denoiser.py"]


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_a_spawned_stream_is_that_of_the_spawned_child(seed):
    children = np.random.SeedSequence([seed, 0x9A12]).spawn(8)
    for i, child in enumerate(children):
        want = np.random.default_rng(child).standard_normal((4, 2))
        got = denoiser_mod._stream(seed, 0x9A12, spawn_key=(i,)).standard_normal((4, 2))
        assert got.tobytes() == want.tobytes()
