"""Each module's `__all__` names what the module defines, and lists every
public top-level function and class of it."""

import importlib
import inspect
import pkgutil

import pytest

import gigkdv

EXPORTING = [module for info in pkgutil.iter_modules(gigkdv.__path__)
             if hasattr(module := importlib.import_module(f"gigkdv.{info.name}"),
                        "__all__")]


def test_library_modules_export():
    assert {m.__name__ for m in EXPORTING} >= {
        f"gigkdv.{name}" for name in
        ("balance", "dist", "ks", "lattice", "maps", "matrix", "rng", "specfun")}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_matches_the_module(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert sorted(public - set(module.__all__)) == []
