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


_ROLE = re.compile(r":(?:func|class|meth|data|mod|exc):`~?([\w.]+)`")


def _resolves(module, name: str) -> bool:
    """``name`` of a role in ``module``'s source names an object.

    A dotted name from ``decobath`` (``~decobath.errors.ConfigError``, or
    ``.qstate`` for a module) is looked up from the package; any other
    first in the module, then in each class the module defines.
    """
    if name.startswith((".", "decobath.")):
        scopes, name = [decobath], name.removeprefix("decobath").lstrip(".")
    else:
        scopes = [module, *(obj for obj in vars(module).values()
                            if isinstance(obj, type) and obj.__module__ == module.__name__)]
    for scope in scopes:
        obj = scope
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


@pytest.mark.parametrize("name", ["decobath", *(f"decobath.{m}" for m in sorted(SUBMODULES))])
def test_names_the_sources_cite_resolve(name):
    """Every :func:, :class:, :meth:, :data:, :mod: and :exc: name in a module's
    source, docstrings and comments alike, resolves."""
    module = importlib.import_module(name)
    cited = _ROLE.findall(Path(module.__file__).read_text(encoding="utf-8"))
    assert [ref for ref in cited if not _resolves(module, ref)] == []
