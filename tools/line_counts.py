"""Count the lines of Python files as docstring, comment, blank and code lines.

Run from the repository root:

    python3 tools/line_counts.py src/risim

Each path is a Python file or a directory, searched for ``*.py`` files
(default: ``src/risim``). Every line of a file falls in exactly one class:

- docstring: a line of a module, class or function docstring, blank lines
  inside it included;
- comment: a line that holds only a comment;
- blank: an empty or whitespace-only line outside a docstring;
- code: every other line.

It prints one row per file, in path order, and a total row, each as the
four counts and their sum.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """The docstring, comment, blank and code line counts of source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(paths) -> list[Path]:
    """The .py files that paths name or hold, sorted, each once."""
    files = set()
    for path in paths:
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files)


def _row(name: str, cells) -> str:
    return f"{name:<40}" + "".join(f" {cell:>9}" for cell in cells)


def render(rows) -> str:
    """A table of (name, counts) rows, each with its sum, and a total row."""
    total = dict.fromkeys(KINDS, 0)
    lines = [_row("file", KINDS + ("total",))]
    for name, counts in rows:
        for kind in KINDS:
            total[kind] += counts[kind]
        lines.append(_row(name, [counts[kind] for kind in KINDS] + [sum(counts.values())]))
    lines.append(_row("total", [total[kind] for kind in KINDS] + [sum(total.values())]))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/risim")], help="files or directories")
    args = parser.parse_args(argv)
    rows = [(str(path), count_lines(path.read_text(encoding="utf-8"))) for path in python_files(args.paths)]
    print(render(rows), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
