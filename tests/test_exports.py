import ast
import functools
import glob
import importlib
import os
import pkgutil

import pytest

import charflow

ROOT = os.path.join(os.path.dirname(__file__), "..")
MODULES = sorted(info.name for info in pkgutil.iter_modules(charflow.__path__))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
# exported names that only tests read, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "oracle.conditional_cov_exact": "the closed-form cov(X_1 | X_t = x), kept as a test "
                                    "reference for the posterior's covariance envelope",
    "sampler.load_trajectories": "the reader of trajectories.bin, which bench/tracing.py wraps "
                                 "by its name as a string",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a deleted function left in __all__ breaks only ``from charflow.<name> import *``
    module = importlib.import_module(f"charflow.{name}")
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == [], f"charflow.{name}.__all__ names missing objects: {stale}"


@functools.lru_cache(maxsize=None)
def _names_loaded_outside_tests():
    """Every name and attribute that package modules, demos and bench scripts read."""
    paths = [path for path in glob.glob(os.path.join(ROOT, "src", "charflow", "*.py"))
             if os.path.basename(path) != "__init__.py"]
    paths += DEMOS + [path for path in glob.glob(os.path.join(ROOT, "bench", "*.py"))
                      if not os.path.basename(path).startswith("test_")]
    loaded = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return frozenset(loaded)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller_outside_tests(name):
    # a name is matched bare: a load of any attribute or variable of that name counts
    exports = getattr(importlib.import_module(f"charflow.{name}"), "__all__", ())
    uncalled = sorted(f"{name}.{export}" for export in exports
                      if export not in _names_loaded_outside_tests())
    exempt = sorted(dotted for dotted in TEST_ONLY_EXPORTS if dotted.split(".")[0] == name)
    assert uncalled == exempt, (f"exports read only by tests: {uncalled}; "
                                f"exempt in TEST_ONLY_EXPORTS: {exempt}")


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
