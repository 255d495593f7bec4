import importlib
import pkgutil

import pytest

import charflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(charflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a deleted function left in __all__ breaks only ``from charflow.<name> import *``
    module = importlib.import_module(f"charflow.{name}")
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == [], f"charflow.{name}.__all__ names missing objects: {stale}"
