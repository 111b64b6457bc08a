"""Import guards, read from the source with ast.

No module of tests/ imports a test module.  Shared test code lives in
tests/oracles.py (reference implementations and property checks) and
tests/strategies.py (case generators), so each test module, and any checker
built on the oracles, loads no other test module.

The core modules of agq, codes, fields and quantum, import neither
constructions nor cli: a code, its field and its certificate stand without
the pipelines that build them or the command line that prints them."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
AGQ = TESTS.parent / "src" / "agq"


def imported_names(path):
    """Every name that path imports, at any depth, dotted: a.b for import a.b,
    a.b.c for from a.b import c, and .b.c or .c for from .b import c or
    from . import c."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (f"{node.module}." if node.module else "")
            yield from (base + alias.name for alias in node.names)


def imports_of_test_modules(path, test_modules):
    """'importer -> imported' for each import of a test module in path, at any
    depth, written .test_x, tests.test_x, from . import test_x or import tests.test_x."""
    return {
        f"{path.stem} -> {part}" for name in imported_names(path) for part in name.split(".") if part in test_modules
    }


def test_no_module_of_tests_imports_a_test_module():
    test_modules = {path.stem for path in TESTS.glob("test_*.py")}
    edges = sorted(edge for path in TESTS.glob("*.py") for edge in imports_of_test_modules(path, test_modules))
    assert not edges, f"{len(edges)} imports of a test module: " + "; ".join(edges)


def test_core_modules_import_no_construction_or_cli():
    """agq/codes.py, agq/fields.py and agq/quantum.py import nothing from
    agq.constructions or agq.cli, relatively or by the package's name."""
    edges = sorted(
        f"{stem} -> {name}"
        for stem in ("codes", "fields", "quantum")
        for name in (("agq" + n if n.startswith(".") else n) for n in imported_names(AGQ / f"{stem}.py"))
        if any(name == upper or name.startswith(upper + ".") for upper in ("agq.constructions", "agq.cli"))
    )
    assert not edges, f"{len(edges)} imports of an upper module: " + "; ".join(edges)
