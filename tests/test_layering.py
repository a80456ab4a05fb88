"""The KKT modules and `verify` import package modules only at module level.

A function-local `from . import` is how an import cycle between `lower`,
`optimality` and `sensitivity` gets hidden; this guard keeps them out.
"""

import ast
from pathlib import Path

import pytest

import bilevelkit

PACKAGE_DIR = Path(bilevelkit.__file__).parent


@pytest.mark.parametrize("module", ["lower", "optimality", "sensitivity", "verify"])
def test_no_function_local_package_imports(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    offenders = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            offenders += [
                f"{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, ast.ImportFrom) and node.level > 0
            ]
    assert not offenders, f"function-local package imports in {module}.py: {offenders}"
