"""Every exported name resolves, so a deletion cannot leave a stale export behind.

The package root declares no name of its own: it re-exports the `__all__`
of its six library modules, and leaves `acceptance` and `cli` unloaded.
Names that only criterion 1, the tests and the benchmark use stay defined
in their modules but off the root.
Each library module imports only the siblings that keep its routes
independent of the engines they check, and no module enforces an
invariant with `assert`, which `python -O` strips.
"""

import ast
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

# the siblings each library module may import, and which of their names (None: any)
SIBLING_IMPORTS = {
    "asymptotics": {},
    "exact": {},
    "mellin": {},
    "sampler": {"trees": None},
    "series": {"exact": {"catalan", "central_binomials"}},
    "trees": {},
}


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


# names that only criterion 1, the tests and the benchmark's tracer use: each
# stays defined in its module but is not re-exported (ProtectionProfile is gone)
MODULE_LEVEL = {
    "exact": (
        "central_binomials",
        "catalan_power_coeffs",
        "r_survival_column",
        "root_protection_totals",
    ),
    "series": ("TruncatedPowerSeries",),
    "trees": ("protection_profile", "leaf_count"),
    "sampler": ("sample_tree",),
}


def test_test_only_names_stay_off_the_root():
    assert len(treeprotect.__all__) == 40
    for module_name, names in MODULE_LEVEL.items():
        module = importlib.import_module(f"treeprotect.{module_name}")
        for name in names:
            assert name not in treeprotect.__all__, name
            assert name not in module.__all__, (module_name, name)
            assert not hasattr(treeprotect, name), name
            assert getattr(module, name, None) is not None, (module_name, name)
    assert "ProtectionProfile" not in treeprotect.__all__
    assert not hasattr(importlib.import_module("treeprotect.trees"), "ProtectionProfile")


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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on first use, when a sample draws, so that no other
    # subcommand pays for its import at start-up
    code = "import sys, treeprotect.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(treeprotect.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def _package_imports(name):
    """{sibling: imported names} for every import of the package in one module's source.

    A whole module, as in `from . import trees`, is recorded as the name "*".
    """
    source = (Path(treeprotect.__file__).parent / f"{name}.py").read_text()
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                package, _, module = module.partition(".")
                if package != "treeprotect":
                    continue
            if module:
                found.setdefault(module, set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "treeprotect":
                    found.setdefault(module or package, set()).add("*")
    return found


def test_library_modules_import_only_their_allowed_siblings():
    assert sorted(SIBLING_IMPORTS) == sorted(LIBRARY)
    for name, allowed in SIBLING_IMPORTS.items():
        for sibling, names in _package_imports(name).items():
            assert sibling in allowed, (name, sibling)
            assert allowed[sibling] is None or names <= allowed[sibling], (name, sibling, names)


def test_no_module_holds_an_assert_statement():
    # invariants are explicit raises, which hold under `python -O` too
    package = Path(treeprotect.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
