import importlib
import inspect
import pkgutil

import pytest

import maskspectra

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(maskspectra.__path__) if info.name != "__main__"
)


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
