"""`__all__` is each module's complete list of public names, and every module imports alone."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

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


# `cli` is the command-line driver: it has no `__all__`, and no module imports from it.
@pytest.mark.parametrize("name", [m for m in MODULES if m != "cosmopair.cli"])
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    defined = [
        n for n, v in vars(module).items()
        if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == name
    ]
    unlisted = [n for n in defined if n not in getattr(module, "__all__", ())]
    assert unlisted == []


def test_every_module_imports_alone():
    # A module that leans on a sibling something else happened to import
    # first fails here: each import starts with no cosmopair module loaded.
    code = textwrap.dedent("""
        import importlib, sys
        for name in sys.argv[1:]:
            for loaded in [m for m in sys.modules if m.split(".")[0] == "cosmopair"]:
                del sys.modules[loaded]
            importlib.import_module(name)
    """)
    src = str(Path(cosmopair.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code, *MODULES], env=env, check=True)
