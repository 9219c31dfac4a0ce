"""Public surface: every exported name resolves, with one object per name."""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

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


EXCEPTION_NAMES = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


@pytest.mark.parametrize("path", sorted(Path(cyclolcm.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_refusal_is_a_plain_value_error(path):
    # one refusal path: no module exits the process itself, and none defines
    # its own exception type for callers to catch
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "SystemExit" not in names
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
            assert bases.isdisjoint(EXCEPTION_NAMES), (node.name, bases)


@pytest.mark.parametrize(
    "path",
    sorted(path for path in Path(cyclolcm.__file__).parent.glob("*.py")
           if path.name not in ("cli.py", "__main__.py")),
    ids=lambda path: path.name,
)
def test_only_the_cli_formats_output(path):
    # the library returns records; cli.py prints them, so no other module
    # prints, writes to a stream or loads json
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            assert not (isinstance(func, ast.Name) and func.id == "print"), node.lineno
            assert not (isinstance(func, ast.Attribute) and func.attr == "write"), node.lineno
        elif isinstance(node, ast.Import):
            assert "json" not in {alias.name for alias in node.names}, node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "json", node.lineno
