"""Every name a module exports in __all__ exists."""
import importlib
import pkgutil

import pytest

import eigensel

MODULES = ["eigensel"] + [f"eigensel.{m.name}"
                          for m in pkgutil.iter_modules(eigensel.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
