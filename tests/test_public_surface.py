"""Public surface: every exported name resolves, with one object per name."""

import importlib
import pkgutil

import pytest

import cyclolcm

# __main__ is the process entry, not a library module.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(cyclolcm.__path__) if info.name != "__main__"
)


def test_every_module_is_listed():
    # perfbench/tracer.py imports these nine by name.
    assert MODULES == [
        "cli", "constants", "cover", "cyclotomic", "exact_arith",
        "growth", "patterns", "stochastic", "verify",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cyclolcm.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_are_the_defining_modules_objects():
    assert len(set(cyclolcm.__all__)) == len(cyclolcm.__all__)
    for attr in cyclolcm.__all__:
        obj = getattr(cyclolcm, attr)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("cyclolcm."), attr
        assert attr in home.__all__, (attr, home.__name__)
        assert getattr(home, attr) is obj, attr
