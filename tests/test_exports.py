import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import maskspectra

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(maskspectra.__path__) if info.name != "__main__"
)
PACKAGE_DIR = Path(maskspectra.__file__).resolve().parent
BENCHMARKS_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def test_package_exports_resolve():
    assert len(set(maskspectra.__all__)) == len(maskspectra.__all__)
    for name in maskspectra.__all__:
        assert hasattr(maskspectra, name), name


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_exports_resolve(module_name):
    module = importlib.import_module(f"maskspectra.{module_name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name}"
        # each function or class has one public home, the module defining it
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{module_name}.{name} is {obj.__module__}.{name}"


def test_star_import():
    for module in [maskspectra] + [importlib.import_module(f"maskspectra.{name}") for name in SUBMODULES]:
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(getattr(module, "__all__", ())) <= namespace.keys(), module.__name__


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names and attribute names that a module's code reads. The __all__
    list does not count, nor does a top-level definition's use of its own
    name."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            continue
        loaded = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.attr)
        loaded.discard(getattr(node, "name", None))  # a def or class naming itself
        names |= loaded
    return names


@functools.cache
def _code_references() -> frozenset[str]:
    files = [path for path in PACKAGE_DIR.rglob("*.py") if path.name != "__init__.py"]
    files += BENCHMARKS_DIR.rglob("*.py")
    names = set()
    for path in files:
        names |= _loaded_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return frozenset(names)


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_export_has_a_caller(module_name):
    # the package ships what its commands and the benchmark run: a public
    # name that only tests call is a test oracle and lives in tests/oracles.py
    exported = getattr(importlib.import_module(f"maskspectra.{module_name}"), "__all__", [])
    unused = sorted(set(exported) - _code_references())
    assert not unused, f"maskspectra.{module_name} exports names no package or benchmark code uses: {unused}"
