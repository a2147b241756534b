"""Every artifact is written by denoiser._write_file: whole, into a
temporary file beside its path that is then renamed over it, so a reader
sees the old bytes or the new ones, never a part. CSV tables are
formatted by denoiser._csv_rows with csv.writer's bytes.

The write policy is checked on the source: every module in src/inpo is
read with ast, and a call that opens a file for writing anywhere outside
_write_file fails here, even when it is never executed.
"""
import ast
import csv
import io
import os
import pathlib

import pytest

from inpo.denoiser import DenoiserArch, _csv_rows, _write_file, init_denoiser, save_params

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "inpo"
WRITER = "_write_file"


def _mode(call: ast.Call):
    """The mode node of an open call, or None for the default read mode:
    its mode keyword, else builtin open's second argument, else for a
    method ``x.open(...)`` a first argument that is a mode string
    (Path.open) or the second one (io.open, gzip.open)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    args = call.args
    if isinstance(call.func, ast.Attribute) and args and isinstance(args[0], ast.Constant) \
            and isinstance(args[0].value, str) and set(args[0].value) <= set("rwxabt+"):
        return args[0]
    return args[1] if len(args) > 1 else None


def write_calls(source: str) -> list[int]:
    """The lines of the calls in ``source``, outside a function named
    _write_file, that open a file for writing: an ``open`` whose mode holds
    w, a, x or + (or is not a constant string, so it may), or a
    write_text / write_bytes call."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == WRITER for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open" and (mode := _mode(node)) is not None:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                found.append(node.lineno)
    return sorted(found)


def test_the_guard_sees_every_kind_of_write():
    src = "\n".join([
        'open(p, "w")',                      # 1
        'open(p, "ab", newline="")',         # 2
        'open(p, mode="x")',                 # 3
        'open(p, "r+")',                     # 4
        'open(p, m)',                        # 5: a mode it cannot read
        'pathlib.Path(p).write_text(s)',     # 6
        'p.write_bytes(b)',                  # 7
        'p.open("w")',                       # 8
        'gzip.open(p, "wt")',                # 9
        'open(p)',                           # reads
        'open(p, "rb")',
        'p.open()',
        'gzip.open(p, "rt")',
        'def _write_file(path, data):',
        '    open(path + ".tmp", "wb")',
    ])
    assert write_calls(src) == list(range(1, 10))


@pytest.mark.parametrize("path", sorted(PKG.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_writes_a_file_outside_the_one_writer(path):
    lines = write_calls(path.read_text())
    assert not lines, f"{path.name} opens a file for writing outside {WRITER} at {lines}"


def test_the_one_writer_is_denoisers():
    writers = [path.name for path in sorted(PKG.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == WRITER]
    assert writers == ["denoiser.py"]


@pytest.mark.parametrize("data, want", [
    (b"\x00\x01\r\n", b"\x00\x01\r\n"),
    ("a,b\r\nc\n", b"a,b\r\nc\n"),
], ids=["bytes", "text"])
def test_a_write_lands_whole_with_its_bytes_as_given(tmp_path, data, want):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    _write_file(path, data)
    assert path.read_bytes() == want
    assert os.listdir(tmp_path) == ["artifact"]


def test_a_write_that_raises_midway_leaves_the_old_bytes_and_no_temporary(tmp_path):
    # an int is no bytes-like object: the write raises after the
    # temporary file is opened
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        _write_file(path, 12345)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["artifact"]


def test_save_params_whose_rename_fails_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "base.params"
    save_params(path, init_denoiser(DenoiserArch(2, (4,), 2, 4), 0), "cosine", 100)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no room")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no room"):
        save_params(path, init_denoiser(DenoiserArch(2, (4,), 2, 4), 1), "cosine", 100)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["base.params"]


def test_csv_rows_have_csv_writers_bytes():
    rows = [("step", "lr", "loss", "config_id"), (0, 1e-3, -0.1, "roundtrip_n5"),
            (12, 5e-324, 1.7976931348623157e308, "win_rate"), (-3, 0.1 + 0.2, float("inf"), "x"),
            (7, 2.5, 1.0, "sft")]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    assert _csv_rows(rows) == buf.getvalue()
