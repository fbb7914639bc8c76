"""Documentation quality gate: every public item carries a docstring.

Deliverable (e) requires doc comments on every public item; this test
makes the requirement executable so it cannot silently regress.
"""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.flow",
    "repro.hierarchy",
    "repro.decomposition",
    "repro.hgpt",
    "repro.core",
    "repro.baselines",
    "repro.streaming",
    "repro.bench",
    "repro.utils",
]


def _all_modules():
    mods = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        mods.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name == "__main__":
                    continue  # importing it would run the CLI
                mods.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    mods.append(importlib.import_module("repro.cli"))
    mods.append(importlib.import_module("repro.viz"))
    mods.append(importlib.import_module("repro.errors"))
    return {m.__name__: m for m in mods}.values()


@pytest.mark.parametrize("module", _all_modules(), ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", _all_modules(), ids=lambda m: m.__name__)
def test_public_items_documented(module):
    missing = []
    for name in dir(module):
        if name.startswith("_"):
            continue
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    missing.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                        if mname.startswith("_"):
                            continue
                        if meth.__qualname__.split(".")[0] != obj.__name__:
                            continue  # inherited
                        if not (meth.__doc__ and meth.__doc__.strip()):
                            missing.append(
                                f"{module.__name__}.{name}.{mname}"
                            )
    assert not missing, f"undocumented public items: {missing}"
