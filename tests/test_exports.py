"""Every exported name resolves, so a deletion cannot leave a stale export behind.

The package root declares no name of its own: it re-exports the `__all__`
of its six library modules, and leaves `acceptance` and `cli` unloaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import treeprotect

MODULES = ["treeprotect"] + [
    f"treeprotect.{info.name}" for info in pkgutil.iter_modules(treeprotect.__path__)
]

LIBRARY = ("asymptotics", "exact", "mellin", "sampler", "series", "trees")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)
    assert len(set(exported)) == len(exported), name


def test_root_reexports_the_library_modules():
    modules = [importlib.import_module(f"treeprotect.{name}") for name in LIBRARY]
    assert treeprotect.__all__ == [attr for module in modules for attr in module.__all__]
    for module in modules:
        for attr in module.__all__:
            assert getattr(treeprotect, attr) is getattr(module, attr), (module.__name__, attr)


def test_root_import_leaves_acceptance_and_cli_unloaded():
    code = (
        "import sys, treeprotect; "
        "print(sorted({'treeprotect.acceptance', 'treeprotect.cli'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(treeprotect.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
