"""The package depends on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import kahlerdiff

PACKAGE = Path(kahlerdiff.__file__).parent


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in _imported_roots(tree):
            assert root in sys.stdlib_module_names or root == "kahlerdiff", (
                f"{path.name} imports {root!r}, which is not in the standard library"
            )
