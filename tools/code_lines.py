"""Count the code lines of a Python package, module by module.

A code line holds at least one token other than a comment: blank lines,
comment lines and docstrings (the string that opens a module, class or
function body) are not counted. A line that carries code and a trailing
comment counts.

``--against OTHER_SRC`` compares the package with the one of the same name
under another tree's source directory: per module (a module only one side
has counts 0 on the other) and for the total, it prints OTHER_SRC's count,
this package's count and the change from the first to the second, so a
change's line claim takes one command:

    python tools/code_lines.py --against OTHER_TREE/src

Usage: python tools/code_lines.py [PACKAGE_DIR] [--against OTHER_SRC]
(PACKAGE_DIR defaults to src/inpo)
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_lines(root: Path) -> dict[str, int]:
    """Each module's code lines, keyed by its path under ``root``."""
    return {str(path.relative_to(root)): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default="src/inpo", type=Path)
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC")
    args = parser.parse_args(argv[1:])
    root = args.package
    lines = package_lines(root)
    if args.against is None:
        for module, n in lines.items():
            print(f"{n:6d}  {module}")
        print(f"{sum(lines.values()):6d}  {root} (total)")
        return 0
    if not (args.against / root.name).is_dir():
        parser.error(f"no package {root.name} under {args.against}")
    other = package_lines(args.against / root.name)
    rows = [(other.get(m, 0), lines.get(m, 0), m) for m in sorted(lines.keys() | other.keys())]
    rows.append((sum(other.values()), sum(lines.values()), f"{root} (total)"))
    for was, now, module in rows:
        print(f"{was:6d}  {now:6d}  {now - was:+6d}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
