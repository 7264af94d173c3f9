"""The benchmark's tracer wraps package names from outside; they must all resolve.

`bench/spans.py` is executed from its source text rather than imported, so
no bytecode is written beside it, and this guard sees exactly the names
the traced benchmark pass looks up.
"""

import importlib
import types
from pathlib import Path

import pytest

from treeprotect import asymptotics, exact
from treeprotect.series import TruncatedPowerSeries

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrapped_layer_function_resolves(spans):
    for layer, funcs in spans._LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"treeprotect.{spans._MODULE_OF_LAYER[layer]}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{module.__name__}.{func}"


def test_every_wrapped_series_method_is_defined_on_the_class(spans):
    for method in spans.SERIES_METHODS:
        assert method in TruncatedPowerSeries.__dict__, method


def test_every_cached_kernel_reports_cache_info(spans):
    for name in spans.CACHED_KERNELS:
        assert callable(getattr(getattr(exact, name), "cache_info", None)), name
    assert callable(asymptotics.constant.cache_info)
