"""Every exported name resolves."""

import importlib
import pkgutil

import bfre


def test_all_names_resolve():
    # A stale ``__all__`` entry fails only on ``import *``, so check each name.
    modules = [bfre] + [
        importlib.import_module(f"bfre.{info.name}")
        for info in pkgutil.iter_modules(bfre.__path__)
    ]
    assert len(modules) > 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
