"""Smoke tests of the scripts under tools/: the code-line counter counts a
fixed snippet exactly, and the artifact-hash chain runs and prints one
digest per artifact."""
import importlib.util
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

SNIPPET = '''"""A module docstring,
over two lines."""
# a comment line

x = 1  # a trailing comment
y = (x +
     2)


def f():
    """A function docstring."""
    return y
'''


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_code_lines_counts_only_code():
    # x = 1, both lines of y's continued expression, def f() and its return
    assert load_tool("code_lines").code_lines(SNIPPET) == 5


def test_artifact_hashes_prints_every_artifact():
    run = subprocess.run([sys.executable, str(TOOLS / "artifact_hashes.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 26
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    digest = {path: h for h, path in (line.split("  ") for line in lines)}
    # dpo is inpo with the gaussian strategy, byte for byte
    assert digest["align/dpo/aligned.params"] == digest["align/gaussian/aligned.params"]
