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
