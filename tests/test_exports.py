"""Export lists: every name a module or the package advertises exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import certitrain

MODULES = sorted(m.name for m in pkgutil.iter_modules(certitrain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"certitrain.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from certitrain.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_exist():
    tree = ast.parse(Path(certitrain.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 10
    assert [n for n in names if not hasattr(certitrain, n)] == []
