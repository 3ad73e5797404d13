"""Count engine code lines per Python file.

An engine code line is a line that is not blank, not a ``#`` comment, not
part of a docstring and not inside a top-level ``*_sql`` function (the
DuckDB twins are SQL text, not engine code). Docstrings and functions are
found with ``ast``, so a ``#`` inside a string still counts as code.

Usage: python scripts/engine_loc.py FILE [FILE ...]
Prints ``<engine lines>  <total lines>  <file>`` per file and a total.
"""

from __future__ import annotations

import ast
import sys


def _skipped_lines(tree: ast.Module) -> set[int]:
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_sql"):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, node.end_lineno + 1))
    return skip


def engine_lines(path: str) -> tuple[int, int]:
    """(engine code lines, total lines) of one Python file."""
    with open(path, encoding="utf-8") as f:
        src = f.read()
    skip = _skipped_lines(ast.parse(src))
    lines = src.splitlines()
    n = sum(
        1
        for i, line in enumerate(lines, start=1)
        if i not in skip and line.strip() and not line.strip().startswith("#")
    )
    return n, len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__)
        return 2
    total = 0
    for p in paths:
        n, lines = engine_lines(p)
        total += n
        print(f"{n:6d} {lines:6d}  {p}")
    print(f"{total:6d}         total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
