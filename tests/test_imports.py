import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "gpdext").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    # every dependency of a module shows at its top; none hides in a body
    tree = ast.parse(path.read_text())
    local = [
        f"{path.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local


ROOT = Path(__file__).parents[1]
BENCHMARK = "perfbench"
# a module path or a file path into the benchmark directory
INTO_BENCHMARK = re.compile(rf"(^|[\\/]){BENCHMARK}([\\/.]|$)")
# this file names the directory it looks for, so it is not searched
TIER_ONE = sorted(
    path
    for part in ("src", "tests", "scripts")
    for path in (ROOT / part).rglob("*.py")
    if path != Path(__file__)
)


@pytest.mark.parametrize("path", TIER_ONE, ids=[str(p.relative_to(ROOT)) for p in TIER_ONE])
def test_no_tier_one_file_reads_the_benchmark(path):
    # the library, its tests and its scripts run from a checkout without the
    # benchmark directory: none imports it, and no string outside a
    # docstring names a path into it
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [] if id(node) in docstrings else [node.value]
        else:
            continue
        found += [f"{path.name}:{node.lineno}" for name in names if INTO_BENCHMARK.search(name)]
    assert not found


def _package_imports(tree: ast.Module) -> set[str]:
    """The gpdext modules a module's syntax tree imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gpdext.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "gpdext"):
            inner = node.module if node.level else None
            found |= {inner.split(".")[0]} if inner else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gpdext."):
            found.add(node.module.split(".")[1])
    return found


def test_the_oracle_imports_only_exact_cocycle_and_groupoid():
    # the oracle shares no code with the graded model, so that agreement
    # between the two is evidence: of the package it reads only the exact
    # arithmetic, the cocycle and the groupoid
    tree = ast.parse((ROOT / "src" / "gpdext" / "cyclic_oracle.py").read_text())
    assert _package_imports(tree) == {"exact", "cocycle", "groupoid"}


def test_the_import_pin_sees_every_form_of_import():
    forms = (
        "from .algebra import fibers",
        "from . import algebra",
        "from gpdext.algebra import fibers",
        "from gpdext import algebra",
        "import gpdext.algebra",
    )
    for source in forms:
        assert _package_imports(ast.parse(source)) == {"algebra"}, source
    assert _package_imports(ast.parse("import numpy as np\nfrom math import prod")) == set()
