"""Smoke tests of the scripts under tools/: the code-line counter counts a
fixed snippet exactly, the artifact-hash chain runs and prints the BLAS
core and then one digest per artifact, a tree compared against itself
shows no difference under either tool, and the step A/B runs a tree
against itself at tiny sizes."""
import importlib.util
import os
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


def test_code_lines_against_its_own_tree_changes_nothing():
    # one row per module and one for the total: count there, count here, change
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), "--against",
                          str(ROOT / "src")], cwd=ROOT, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    rows = [line.split(None, 3) for line in run.stdout.splitlines()]
    modules = sorted(str(p.relative_to(ROOT / "src" / "inpo"))
                     for p in (ROOT / "src" / "inpo").rglob("*.py"))
    assert [r[3] for r in rows] == [*modules, "src/inpo (total)"]
    assert all(was == now and change == "+0" for was, now, change, _ in rows), rows
    assert int(rows[-1][1]) == sum(int(r[1]) for r in rows[:-1])


def test_artifact_hashes_prints_every_artifact():
    run = subprocess.run([sys.executable, str(TOOLS / "artifact_hashes.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    core, *lines = run.stdout.splitlines()
    assert core == f"# blas core: {load_tool('artifact_hashes').blas_core()}"
    assert len(lines) == 26
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    digest = {path: h for h, path in (line.split("  ") for line in lines)}
    # dpo is inpo with the gaussian strategy, byte for byte
    assert digest["align/dpo/aligned.params"] == digest["align/gaussian/aligned.params"]


def test_artifact_hashes_against_its_own_tree_prints_nothing():
    run = subprocess.run([sys.executable, str(TOOLS / "artifact_hashes.py"),
                          "--against", str(ROOT / "src")], cwd=ROOT, capture_output=True,
                         text=True, timeout=240)
    assert (run.returncode, run.stdout) == (0, ""), run.stderr


def test_blas_core_names_the_kernel_openblas_was_told_to_run():
    # OPENBLAS_CORETYPE picks the kernel when numpy loads the library; the
    # tool reports the name that library gives, and "unknown" for any BLAS
    # that is not numpy's bundled scipy-openblas
    here = load_tool("artifact_hashes").blas_core()
    assert here
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import artifact_hashes as a; " \
           "print(a.blas_core())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ("unknown" if here == "unknown" else "Haswell")


def test_step_ab_against_its_own_tree_prints_one_row_per_method():
    # tiny sizes: the run checks both trees' bases, pair sets and each
    # method's output bytes, then prints each method's per-step medians and
    # paired ratio
    run = subprocess.run([sys.executable, str(TOOLS / "step_ab.py"), "--against",
                          str(ROOT / "src"), "--batch", "4", "--reps", "3", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, columns, *rows = run.stdout.splitlines()
    assert header.startswith("# batch 4, 2 steps x 3 reps, one BLAS thread")
    assert columns.split() == ["method", "this_ms", "other_ms", "ratio", "q1", "q3",
                               "this_faster"]
    assert [r.split()[0] for r in rows] == ["inversion_n10", "dpo", "sft", "ddim_sample",
                                            "roundtrip_n10"]
    for row in rows:
        _, this, other, ratio, q1, q3, faster = row.split()
        assert float(this) > 0 and float(other) > 0
        assert float(q1) <= float(ratio) <= float(q3)
        assert re.fullmatch(r"[0-3]/3", faster)
