"""Span recording for the traced benchmark pass, and per-layer arithmetic.

Tracing wraps the public functions of every treeprotect module and the
arithmetic of ``TruncatedPowerSeries`` from outside the package.  Each
wrapper is installed at every name a caller looks up (``cli`` imports
``dist_Y_exact`` by name, so both ``treeprotect.exact.dist_Y_exact`` and
``treeprotect.cli.dist_Y_exact`` are replaced).  Spans are kept in memory
as ``[name, start, end, parent, job, extra]`` lists and written out when
the pass ends.

A span's self time is its duration minus the durations of its direct
children.  Every job runs under a root span named ``job``, so within a
job the self times of all spans add up to the job's duration; the root's
own self time is the untraced remainder.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
import tracemalloc

# span name -> layer; names are "module.function" except the series
# operators ("series.__mul__") and the job root
_LAYER_FUNCTIONS = {
    "trees": (
        "enumerate_trees",
        "leaf_count",
        "oracle_r",
        "oracle_s",
        "protection_number",
        "protection_profile",
    ),
    "exact.tables": ("dist_X_exact", "dist_Y_exact"),
    "exact.kernel": (
        "r_explicit",
        "s_explicit",
        "r_survival_column",
        "root_protection_totals",
        "catalan_power_coeffs",
        "central_binomials",
    ),
    "exact.point": ("survival_X_exact", "survival_Y_exact", "mean_X_exact", "mean_Y_exact"),
    "asymptotics.constant": ("constant",),
    "asymptotics.closed_form": (
        "asym_P_X_ge",
        "asym_P_Y_ge",
        "limit_pmf_X",
        "limit_pmf_Y",
        "asym_moments_X",
        "asym_moments_Y",
    ),
    "mellin": (
        "eval_F",
        "eval_G",
        "check_F_functional_eq",
        "check_G_functional_eq",
        "mean_constant_from_F",
        "second_moment_constant_from_G",
        "reflection_term_F",
        "reflection_term_G",
    ),
    "sampler": ("estimate_survival", "sample_tree", "make_rng"),
    "cli": ("main",),
}

_MODULE_OF_LAYER = {
    "trees": "trees",
    "exact.tables": "exact",
    "exact.kernel": "exact",
    "exact.point": "exact",
    "asymptotics.constant": "asymptotics",
    "asymptotics.closed_form": "asymptotics",
    "mellin": "mellin",
    "sampler": "sampler",
    "cli": "cli",
}

SERIES_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__pow__",
    "shifted",
    "truncated",
)

LAYERS = ("series",) + tuple(_LAYER_FUNCTIONS) + ("remainder",)

# every module whose namespace may hold a traced name
_TRACED_MODULES = (
    "trees", "series", "exact", "asymptotics", "mellin", "sampler", "cli", "acceptance"
)

CACHED_KERNELS = ("r_survival_column", "root_protection_totals", "central_binomials")


def layer_of(name: str) -> str:
    """The layer a span name belongs to; the job root is the remainder."""
    if name == "job":
        return "remainder"
    module, _, func = name.partition(".")
    if module == "series":
        return "series"
    for layer, funcs in _LAYER_FUNCTIONS.items():
        if _MODULE_OF_LAYER[layer] == module and func in funcs:
            return layer
    raise KeyError(name)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn, extra=None):
        """A wrapper recording one span per call of ``fn``.

        ``extra(args, kwargs, result, span_extra)``, if given, fills the
        span's extra dict after the call, so work counts are not timed.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[5] = {}
                extra(args, kwargs, result, record[5])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_job(self, job_id: int, fn):
        """Run ``fn()`` under a root span for job ``job_id``."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = -1


def _series_products(args, kwargs, result, extra) -> None:
    # coefficient products from operand orders, as the loops in series.py do them
    left, right = args[0], args[1] if len(args) > 1 else None
    n = left.order
    if hasattr(right, "order"):
        n = min(n, right.order)
        extra["products"] = (n + 1) * (n + 2) // 2
    else:
        extra["products"] = n + 1


def _division_products(args, kwargs, result, extra) -> None:
    n = min(args[0].order, args[1].order) if hasattr(args[1], "order") else 0
    extra["products"] = n * (n + 1) // 2


def install(recorder: Recorder, package) -> None:
    """Wrap every traced name of ``package``, the imported treeprotect."""
    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in _TRACED_MODULES}
    cls = modules["series"].TruncatedPowerSeries
    counts = {
        "__mul__": _series_products,
        "__rmul__": _series_products,
        "__truediv__": _division_products,
    }
    for method in SERIES_METHODS:
        wrapped = recorder.wrap(f"series.{method}", cls.__dict__[method], counts.get(method))
        setattr(cls, method, wrapped)

    seen_sizes: set[int] = set()

    def oracle_extra(args, kwargs, result, extra):
        # the first call per n enumerates; later ones read lru-cached tallies
        n = args[0]
        if n not in seen_sizes:
            seen_sizes.add(n)
            extra["trees"] = math.comb(2 * n - 2, n - 1) // n

    def constant_extra(args, kwargs, result, extra):
        extra["bits"] = max(
            part.bit_length()
            for bound in (result.lower, result.upper)
            for part in (bound.numerator, bound.denominator)
        )

    peaks: list[int] = []

    def sampler_extra(args, kwargs, result, extra):
        extra["trials"] = result.trials
        extra["peak_alloc"] = peaks.pop()

    extras = {
        "oracle_r": oracle_extra,
        "oracle_s": oracle_extra,
        "constant": constant_extra,
        "estimate_survival": sampler_extra,
    }
    replacements = {}
    for layer, funcs in _LAYER_FUNCTIONS.items():
        module_name = _MODULE_OF_LAYER[layer]
        for func in funcs:
            original = getattr(modules[module_name], func)
            target = _alloc_peak(original, peaks) if func == "estimate_survival" else original
            wrapped = recorder.wrap(f"{module_name}.{func}", target, extras.get(func))
            replacements[id(original)] = wrapped
    for namespace in [package, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if id(value) in replacements:
                setattr(namespace, attr, replacements[id(value)])


def _alloc_peak(fn, peaks: list[int]):
    """Run ``fn`` under tracemalloc and append its peak; numpy reports its buffers."""

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def job_splits(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per job: self time of each layer, and "total", the job's duration."""
    out: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        split = out.setdefault(span[4], {})
        layer = layer_of(span[0])
        split[layer] = split.get(layer, 0.0) + own
        if span[0] == "job":
            split["total"] = split.get("total", 0.0) + span[2] - span[1]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[list],
    groups: dict[int, str],
    caches: dict[str, tuple[int, int]],
    bytes_out: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``groups`` maps job id to job group, ``caches`` maps a cached function
    to its (hits, misses) after the pass, ``bytes_out`` is the CLI output.
    """
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    work = {"products": 0, "trees": 0, "bits": 0}
    constant_calls = 0
    bulk_trials = bulk_s = 0.0
    sparse_s: list[float] = []
    peak_alloc = 0
    job_s = 0.0
    for span, self_s in zip(spans, own):
        name, start, end, _, job, extra = span
        layer = layer_of(name)
        busy[layer] += self_s
        calls[layer] += 1
        extra = extra or {}
        work["products"] += extra.get("products", 0)
        work["trees"] += extra.get("trees", 0)
        work["bits"] = max(work["bits"], extra.get("bits", 0))
        if name == "job":
            job_s += end - start
        elif name == "asymptotics.constant":
            constant_calls += 1
        elif name == "sampler.estimate_survival":
            peak_alloc = max(peak_alloc, extra.get("peak_alloc", 0))
            if groups[job] == "sample.bulk":
                bulk_trials += extra.get("trials", 0)
                bulk_s += end - start
            elif groups[job] == "sample.sparse":
                sparse_s.append(end - start)

    metrics = {
        "series.calls": calls["series"],
        "series.busy_s": busy["series"],
        "series.coeff_products": work["products"],
        "series.products_per_s": _ratio(work["products"], busy["series"]),
        "trees.calls": calls["trees"],
        "trees.busy_s": busy["trees"],
        "trees.trees_enumerated": work["trees"],
        "trees.trees_per_s": _ratio(work["trees"], busy["trees"]),
        "exact.tables.busy_s": busy["exact.tables"],
        "exact.kernel.busy_s": busy["exact.kernel"],
        "exact.point.busy_s": busy["exact.point"],
    }
    for func in CACHED_KERNELS:
        hits, misses = caches[func]
        metrics[f"exact.cache_hit_ratio.{func}"] = _ratio(hits, hits + misses)
        metrics[f"exact.cache_lookups.{func}"] = hits + misses
    hits, misses = caches["constant"]
    metrics |= {
        "asymptotics.constant.calls": constant_calls,
        "asymptotics.constant.busy_s": busy["asymptotics.constant"],
        "asymptotics.constant.cache_hit_ratio": _ratio(hits, hits + misses),
        "asymptotics.constant.cache_lookups": hits + misses,
        "asymptotics.enclosure_bits": work["bits"],
        "asymptotics.closed_form.busy_s": busy["asymptotics.closed_form"],
        "mellin.calls": calls["mellin"],
        "mellin.busy_s": busy["mellin"],
        "sampler.busy_s": busy["sampler"],
        "sampler.bulk.trials_per_s": _ratio(bulk_trials, bulk_s),
        "sampler.sparse.job_s": statistics.median(sparse_s) if sparse_s else 0.0,
        "sampler.peak_alloc_mib": peak_alloc / 2**20,
        "cli.self_s": busy["cli"],
        "cli.bytes_out": bytes_out,
        "cli.bytes_per_s": _ratio(bytes_out, busy["cli"]),
        "remainder.self_s": busy["remainder"],
        "trace.job_s": job_s,
    }
    return metrics
