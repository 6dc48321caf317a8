#!/usr/bin/env python3
"""Print the design counts of the gpdext package: for each module of
``src/gpdext``, its lines (as ``wc -l`` counts them), its ``def``s and its
settable options, then the totals.

A ``def`` is a function or a method, nested ones included.  A settable
option is a parameter with a default, over every ``def``.  Both are counted
by a walk of the module's syntax tree.

Example:
    python scripts/design_counts.py
"""

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpdext"


def _defs(source: str) -> list:
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def def_count(source: str) -> int:
    """The functions and methods defined in the source, nested ones included."""
    return len(_defs(source))


def settable_options(source: str) -> int:
    """The parameters with a default over every def in the source."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in _defs(source)
    )


def design_counts() -> list[tuple[str, int, int, int]]:
    """(module, lines, defs, settable options) for each module, by file name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        out.append((path.name, text.count("\n"), def_count(text), settable_options(text)))
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    rows = design_counts()
    width = max(len(row[0]) for row in rows)
    columns = ("lines", "defs", "options")
    print(f"{'module':<{width}}" + "".join(f"  {c:>7}" for c in columns))
    totals = ("total", *(sum(column) for column in list(zip(*rows))[1:]))
    for name, *counts in [*rows, totals]:
        print(f"{name:<{width}}" + "".join(f"  {n:>7}" for n in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
