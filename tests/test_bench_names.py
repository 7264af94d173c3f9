"""The benchmark looks up package names from outside; they must all resolve.

`bench/spans.py` (the tracer) and `bench/jobs.py` (the job lists) are
executed from their source text rather than imported, so no bytecode is
written beside them, and this guard sees exactly the names the benchmark
looks up.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import treeprotect
from treeprotect import asymptotics, exact
from treeprotect.series import TruncatedPowerSeries

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _exec_source(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    # dataclass() reads the module of the class it decorates from sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def spans():
    return _exec_source("spans")


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


def test_every_library_job_resolves_on_the_package():
    # bench/child.py runs a "lib" job as getattr(treeprotect, name)(*args)
    jobs = _exec_source("jobs")
    for workload in jobs.WORKLOADS:
        for job in jobs.make_jobs(workload, 0):
            if job.kind == "lib":
                assert callable(getattr(treeprotect, job.call[0], None)), (workload, job.call)
