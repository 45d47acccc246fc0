"""Every name a module exports in `__all__` exists, so no stale export survives."""

import importlib
import pkgutil

import pytest

import cosmopair

# `cosmopair.__main__` runs the CLI when imported, and exports nothing.
MODULES = ["cosmopair"] + sorted(
    m.name for m in pkgutil.iter_modules(cosmopair.__path__, "cosmopair.")
    if m.name != "cosmopair.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)
