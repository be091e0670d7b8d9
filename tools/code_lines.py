"""Count code lines: non-blank lines outside comments and docstrings.

    python3 tools/code_lines.py src/chancap
    python3 tools/code_lines.py src/chancap/backward_em.py tools

Prints each module's count, then the total over every .py file under the
paths given.  A line counts when it holds a token other than a comment; a
docstring (the leading string of a module, class or function) counts for
none of its lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = sorted(f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
