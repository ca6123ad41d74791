"""Print the code lines of each module of ``src/spintail`` and their total.

A code line holds a token other than a comment, a newline or indentation,
outside module, class and function docstrings; blank lines, comment lines
and docstring lines do not count.  Run from anywhere::

    python tests/code_lines.py

This is a script, not a test: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "spintail")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(x for x in range(tok.start[0], tok.end[0] + 1) if x not in docs)
    return len(lines)


def main() -> int:
    total = 0
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{name}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
