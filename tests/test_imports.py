"""No module of tests/ imports a test module.  Shared test code lives in
tests/oracles.py (reference implementations and property checks) and
tests/strategies.py (case generators), so each test module, and any checker
built on the oracles, loads no other test module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imports_of_test_modules(path, test_modules):
    """'importer -> imported' for each import of a test module in path, at any
    depth, written .test_x, tests.test_x, from . import test_x or import tests.test_x."""
    edges = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        edges.update(f"{path.stem} -> {part}" for name in names for part in name.split(".") if part in test_modules)
    return edges


def test_no_module_of_tests_imports_a_test_module():
    test_modules = {path.stem for path in TESTS.glob("test_*.py")}
    edges = sorted(edge for path in TESTS.glob("*.py") for edge in imports_of_test_modules(path, test_modules))
    assert not edges, f"{len(edges)} imports of a test module: " + "; ".join(edges)
