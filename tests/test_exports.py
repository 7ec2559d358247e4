"""Every exported name resolves: no stale entry survives a deletion."""

import importlib
import pkgutil

import pytest

import decobath

MODULES = [name for name in sorted(f"decobath.{m.name}"
                                   for m in pkgutil.iter_modules(decobath.__path__))
           if hasattr(importlib.import_module(name), "__all__")]


def test_package_exports_resolve():
    missing = [name for name in decobath.__all__ if not hasattr(decobath, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
