"""Count the code lines of each module of a package.

A code line holds a token other than a comment and lies outside every module,
class and function docstring; blank lines, comment lines and docstrings are not
counted.  Run from the repository root:

    python3 tools/code_lines.py [DIRECTORY]

It prints one line per module of DIRECTORY (``src/lumascore`` by default) and
their total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that lay out the code rather than hold any of it
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/lumascore")
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
