"""Count the physical and code lines of each module of a package.

Code lines leave out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body); they are the lines
that hold a token of the parsed source (``tokenize``), less those held only
by a docstring (``ast``).  Physical lines are newline characters, as
``wc -l`` counts them.  Usage, from the repository root::

    python tools/count_lines.py [package directory]

The directory defaults to ``src/maxvariety``.  One line per module, then
the total: physical lines, code lines, name.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring in ``source``."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """Physical and code lines of one module's source text."""
    spans = _docstrings(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or any(
                start <= token.start and token.end <= end
                for start, end in spans):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> None:
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parents[1] / "src" / "maxvariety")
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{physical:6d} {code:6d}  {path.name}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
