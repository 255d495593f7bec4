import ast
import glob
import importlib
import os
import pkgutil

import pytest

import charflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(charflow.__path__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a deleted function left in __all__ breaks only ``from charflow.<name> import *``
    module = importlib.import_module(f"charflow.{name}")
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == [], f"charflow.{name}.__all__ names missing objects: {stale}"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demos_import_public_names_only(path):
    # a demo is a user of the package: it may import only what a module exports
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charflow."):
            exports = importlib.import_module(node.module).__all__
            private += [f"{node.module}.{a.name}" for a in node.names if a.name not in exports]
    assert private == [], f"{os.path.basename(path)} imports names outside __all__: {private}"
