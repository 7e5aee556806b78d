"""Count the code lines of Python files.

A code line holds a token other than a comment or layout (newlines and
indentation); the lines of module, class and function docstrings are left
out.  Prints one count per file and the total.

    python tools/codelines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
the repository's src/plantsim, wherever the tool is run from.  A missing
PATH ends the run with a message and exit code 2.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings under tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    # the repository root, as a path relative to the current directory
    root = Path(os.path.relpath(Path(__file__).resolve().parent.parent))
    paths = [Path(a) for a in argv] or [root / "src" / "plantsim"]
    files = []
    for p in paths:
        if not p.exists():
            print(f"codelines: no such file or directory: {p}", file=sys.stderr)
            return 2
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
