"""Count the code lines of Python sources, per file and in total.

Run from anywhere:

    python3 tools/count_lines.py                  # src/mvgrover/*.py
    python3 tools/count_lines.py path/a.py path/b.py

A code line is a line that holds a token other than a comment and lies
outside the docstrings of the module, its classes and its functions.  Blank
lines, comment lines and docstrings do not count; every line of a
statement that spans several lines does, and so does every line of a
string that is no docstring.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="Python files (default: src/mvgrover/*.py)")
    args = parser.parse_args(argv)
    paths = args.paths or sorted((ROOT / "src" / "mvgrover").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
