"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import treeprotect

MODULES = ["treeprotect"] + [
    f"treeprotect.{info.name}" for info in pkgutil.iter_modules(treeprotect.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)
    assert len(set(exported)) == len(exported), name
