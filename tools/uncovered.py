"""Print the statements of src/plantsim that the test suite never runs.

    python tools/uncovered.py [PYTEST ARG ...]

It reads the text of every file of src/plantsim, sets a line tracer
(sys.settrace) before plantsim is imported, runs pytest.main on tests/ in
this process, with any extra arguments, and prints per file each
statement of src/plantsim that never ran, by line number and first line.
Statements are parsed from the text read at the start, so a file edited
while the suite runs cannot shift their line numbers.  A statement counts
as run when any line of its own span ran.  For a compound statement
(def, class, if, for, while, with, try) that span is its header: the
lines before its body, and a definition's decorators.  Docstrings and
global or nonlocal declarations are not statements here.

It exits 0 whatever the tests do, and is not part of the test suite.
Tracing slows the suite several times over, so a test that holds a time
budget, as several acceptance criteria do, can fail under it on a slow
host (criterion 2's has); its statements are counted all the same.
Code run in another thread or process is not seen.  Standard library
only, besides pytest itself.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plantsim"
_COMPOUND = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, span) of each statement under tree, in line order."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.add(first)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skip:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(node, "decorator_list", [])
        start = min([node.lineno] + [d.lineno for d in decorators])
        end = node.end_lineno
        if isinstance(node, _COMPOUND):
            end = max(node.lineno, node.body[0].lineno - 1)
        out.append((node.lineno, range(start, end + 1)))
    return sorted(out)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}  # co_filename in the package -> lines run
    ours: dict[str, bool] = {}  # co_filename -> whether it is in the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(prefix)
            if mine:
                ran[name] = set()
        return local if mine else None

    os.chdir(ROOT)
    sources = {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    import pytest  # plantsim is first imported by the tests

    sys.settrace(trace)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "tests", *argv])
    finally:
        sys.settrace(None)

    lines: dict[Path, set[int]] = {}
    for name, hit in ran.items():
        lines.setdefault(Path(os.path.realpath(name)), set()).update(hit)
    print(f"\npytest exit code {int(code)}; statements of src/plantsim never run:")
    total = 0
    for path, source in sources.items():
        text = source.splitlines()
        hit = lines.get(path, set())
        missed = [
            line
            for line, span in statements(ast.parse(source, str(path)))
            if hit.isdisjoint(span)
        ]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)}")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
