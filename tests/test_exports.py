"""Every exported name resolves: no stale entry survives a deletion."""

import importlib
import pkgutil
import re
from pathlib import Path

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


SUBMODULES = {m.name for m in pkgutil.iter_modules(decobath.__path__)}
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("source", ["README.md", "decobath.cli"])
def test_names_the_docs_cite_resolve(source):
    """Every backticked ``module.NAME`` of a decobath module in the docs exists."""
    from decobath import cli

    text = README.read_text(encoding="utf-8") if source == "README.md" else cli.__doc__
    cited = set(re.findall(r"`((?:decobath\.)?[A-Za-z_]\w*(?:\.\w+)+)`", text))
    stale = []
    for name in sorted(cited):
        module, *attrs = name.removeprefix("decobath.").split(".")
        if module not in SUBMODULES:
            continue  # a config key such as grid.steps, or another package
        obj = importlib.import_module(f"decobath.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            stale.append(name)
    assert cited and stale == []
