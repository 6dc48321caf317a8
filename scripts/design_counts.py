#!/usr/bin/env python3
"""Print the design counts of the gpdext package: for each module of
``src/gpdext``, its lines (as ``wc -l`` counts them) and its settable
options, then the totals.

A settable option is a parameter with a default, over every ``def``
(functions and methods alike), counted by a walk of the module's syntax tree.

Example:
    python scripts/design_counts.py
"""

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpdext"


def settable_options(source: str) -> int:
    """The parameters with a default over every def in the source."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def design_counts() -> list[tuple[str, int, int]]:
    """(module, lines, settable options) for each module, by file name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        out.append((path.name, text.count("\n"), settable_options(text)))
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    rows = design_counts()
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'options':>7}")
    for name, lines, options in rows:
        print(f"{name:<{width}}  {lines:>6}  {options:>7}")
    total_lines = sum(lines for _, lines, _ in rows)
    total_options = sum(options for _, _, options in rows)
    print(f"{'total':<{width}}  {total_lines:>6}  {total_options:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
