"""Export lists: every name a module or the package advertises exists; and
the allocator setting the package makes at import, which must not fail off
glibc."""

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


class _Libc:
    """A C library whose ``mallopt``, if any, is the given callable."""

    def __init__(self, mallopt=None):
        if mallopt is not None:
            self.mallopt = mallopt


@pytest.mark.parametrize("libc", [_Libc(), _Libc(lambda param, value: 0)],
                         ids=["no-mallopt", "mallopt-refuses"])
def test_allocator_setting_is_skipped_off_glibc(monkeypatch, libc):
    monkeypatch.setattr(certitrain.ctypes, "CDLL", lambda name: libc)
    assert certitrain._keep_freed_pages() is None


def test_allocator_setting_reports_what_it_applied(monkeypatch):
    calls = []
    monkeypatch.setattr(certitrain.ctypes, "CDLL",
                        lambda name: _Libc(lambda *a: calls.append(a) or 1))
    assert certitrain._keep_freed_pages() == {"mmap_threshold": 32 << 20,
                                              "trim_threshold": 1 << 30}
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]
