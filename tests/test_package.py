"""The package namespace: one declaration per public name."""

import ast
import importlib
import inspect

import pytest

import activeflux

MODULES = ("checks", "operators", "reconstruction", "solver", "spectral", "symbols")


def _top_level_names(module):
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_exactly_its_public_names(name):
    module = importlib.import_module(f"activeflux.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == _top_level_names(module)


def test_package_all_is_the_union_of_the_module_lists():
    union = {n for name in MODULES for n in importlib.import_module(f"activeflux.{name}").__all__}
    assert activeflux.__all__ == sorted(union | {"__version__"})
    for name in activeflux.__all__:
        assert hasattr(activeflux, name), name
    for name in ("symbol", "RK4X2", "resolve_method", "interleave", "DENSE_LIMIT"):
        assert name in activeflux.__all__
    assert activeflux.RK4X2 is activeflux.solver.RK4X2
    assert activeflux.symbol is activeflux.spectral.symbol
