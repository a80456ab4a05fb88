"""Structural guards on the KKT modules.

They and `verify` import package modules only at module level: a
function-local `from . import` is how an import cycle between `lower`,
`optimality` and `sensitivity` gets hidden.  And the lower KKT system's
Jacobian (K and B) is built only in `lower`, so no other KKT module asks an
evaluation record for the lower Lagrangian's Hessian blocks.  `optimality`
builds no expression tree: its Hessians come from the tables that `expr`
keeps, so no symbolic work runs per call.
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


@pytest.mark.parametrize("module", ["optimality", "sensitivity", "alm"])
def test_lagrangian_hessian_blocks_only_requested_in_lower(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lagrangian"
        and any(isinstance(arg, ast.Constant) and arg.value in ("hess_yy", "hess_xy")
                for arg in node.args)
    ]
    assert not offenders, f"Lagrangian Hessian blocks requested in {module}.py at lines {offenders}"


TREE_BUILDERS = {"compile_expr", "add", "mul", "Const"}


def test_optimality_builds_no_expression_trees():
    tree = ast.parse((PACKAGE_DIR / "optimality.py").read_text())
    modules, builders = set(), set()  # local names bound to expr and to its tree builders
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None and alias.name == "expr":
                    modules.add(alias.asname or alias.name)
                elif node.module == "expr" and alias.name in TREE_BUILDERS:
                    builders.add(alias.asname or alias.name)
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id in builders)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in TREE_BUILDERS
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules))
    ]
    assert not offenders, f"expression trees built in optimality.py at lines {offenders}"
