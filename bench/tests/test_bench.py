"""The benchmark's own tests: job generator, output checks, span arithmetic.

Run from the repository root:  python3 -m pytest bench/tests
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import spans
import treeprotect
import treeprotect.cli
from jobs import WORKLOADS, Job, make_jobs

BENCH = Path(__file__).resolve().parents[1]
PINS = json.loads((BENCH / "pins.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_in_its_seed(workload):
    for seed in range(20):
        assert make_jobs(workload, seed) == make_jobs(workload, seed)
    assert make_jobs(workload, 1) != make_jobs(workload, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_repeats_no_call_and_work_is_fixed(workload):
    shapes = set()
    for seed in range(50):
        jobs = make_jobs(workload, seed)
        assert len({job.key for job in jobs}) == len(jobs)
        shapes.add(tuple(sorted((job.check, job.group) for job in jobs)))
    assert len(shapes) == 1


def test_every_generated_exact_job_is_pinned():
    for seed in range(300):
        for workload in ("tables", "convergence"):
            for job in make_jobs(workload, seed):
                if job.check == "table":
                    assert f"{job.call[1]}:{job.call[2]}" in PINS["tables"]
                elif job.check == "survival":
                    name, n, k = job.call
                    assert f"{name.split('_')[1]}:{n}:{k}" in PINS["survival"]
                elif job.check == "mean":
                    name, n = job.call
                    assert f"{name.split('_')[1]}:{n}" in PINS["mean"]


def _cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert treeprotect.cli.main(list(argv)) == 0
    return {"status": "ok", "exit": 0, "out": buffer.getvalue(), "stderr": ""}


def _edit_rows(result, edit):
    rows = checks.jsonl(result["out"])
    edit(rows)
    return result | {"out": "".join(json.dumps(row) + "\n" for row in rows)}


def _problems(job, result):
    return checks.check(job, result, PINS, treeprotect)


def test_table_check_catches_a_count_off_by_one():
    job = Job("cli", ("exact-dist", "Y", "12", "oracle"), "table", "oracle")
    result = _cli(job.call)
    assert _problems(job, result) == []

    def bump(rows):
        row = next(r for r in rows if r["kind"] == "survival" and r["k"] == 3)
        row["value_num"] = str(int(row["value_num"]) + 1)

    assert _problems(job, _edit_rows(result, bump))


def test_point_checks_catch_a_wrong_numerator():
    job = Job("lib", ("survival_X_exact", 800, 2), "survival", "survival")
    value = treeprotect.survival_X_exact(800, 2)
    good = {"status": "ok", "out": [str(value.numerator), str(value.denominator)]}
    assert _problems(job, good) == []
    bad = {"status": "ok", "out": [str(value.numerator + 1), str(value.denominator)]}
    assert _problems(job, bad)


def test_constant_check_catches_a_flipped_digit():
    job = Job("cli", ("constants", "c3", "d0", "--digits", "40"), "constants", "constants")
    result = _cli(job.call)
    assert _problems(job, result) == []

    def flip(rows):
        text = rows[0]["decimal"]
        rows[0]["decimal"] = text[:-5] + str((int(text[-5]) + 1) % 10) + text[-4:]

    assert _problems(job, _edit_rows(result, flip))


def test_constant_check_rejects_an_enclosure_that_is_too_wide():
    job = Job("cli", ("constants", "d1", "--digits", "30"), "constants", "constants")

    def widen(rows):
        rows[0]["upper_num"] = str(int(rows[0]["upper_num"]) * 2)

    assert _problems(job, _edit_rows(_cli(job.call), widen))


def test_monte_carlo_check_catches_a_count_moved_far_off():
    job = Job("cli", ("sample", "Y", "10", "--trials", "3000", "--seed", "11"), "sample", "bulk")
    result = _cli(job.call)
    assert _problems(job, result) == []

    def move(rows):
        row = next(r for r in rows if r["kind"] == "survival" and r["k"] == 2)
        row["count"] = str(int(row["count"]) + 150)

    assert _problems(job, _edit_rows(result, move))


def test_binomial_tail_is_negligible_only_far_from_the_mean():
    assert checks.binomial_tail_p(500, 1000, 0.5) > 0.4
    assert checks.binomial_tail_p(600, 1000, 0.5) < checks.MC_ALPHA


def test_limit_and_mellin_checks_pass_on_real_output():
    for job in (
        Job("cli", ("limit-dist", "X", "--k", "0:6"), "limit", "limit"),
        Job("cli", ("limit-dist", "Y", "--k", "0:6"), "limit", "limit"),
        Job("cli", ("mellin-check",), "mellin", "mellin"),
    ):
        assert _problems(job, _cli(job.call)) == []


def test_failed_jobs_are_problems():
    job = Job("cli", ("exact-dist", "X", "12"), "table", "series")
    assert _problems(job, {"status": "error", "error": "ValueError: boom"})
    assert _problems(job, {"status": "ok", "exit": 2, "out": "", "stderr": "usage"})


# a job of 10 s: series [1, 4] holding a kernel call [2, 3], then a table
# assembly [5, 9]
SYNTHETIC = [
    ["job", 0.0, 10.0, -1, 0, None],
    ["series.__mul__", 1.0, 4.0, 0, 0, {"products": 6}],
    ["exact.r_explicit", 2.0, 3.0, 1, 0, None],
    ["exact.dist_X_exact", 5.0, 9.0, 0, 0, None],
]


def test_self_time_arithmetic_on_a_nested_trace():
    assert spans.self_times(SYNTHETIC) == [3.0, 2.0, 1.0, 4.0]
    split = spans.job_splits(SYNTHETIC)[0]
    assert split == {"remainder": 3.0, "series": 2.0, "exact.kernel": 1.0,
                     "exact.tables": 4.0, "total": 10.0}
    assert sum(v for k, v in split.items() if k != "total") == split["total"]


def test_layer_metrics_on_a_nested_trace():
    caches = {name: (1, 3) for name in spans.CACHED_KERNELS + ("constant",)}
    metrics = spans.layer_metrics(SYNTHETIC, {0: "series"}, caches, bytes_out=500)
    assert metrics["series.busy_s"] == 2.0
    assert metrics["series.coeff_products"] == 6
    assert metrics["series.products_per_s"] == 3.0
    assert metrics["exact.kernel.busy_s"] == 1.0
    assert metrics["exact.tables.busy_s"] == 4.0
    assert metrics["remainder.self_s"] == 3.0
    assert metrics["trace.job_s"] == 10.0
    assert metrics["exact.cache_hit_ratio.central_binomials"] == 0.25
    assert metrics["cli.bytes_per_s"] == 0.0


def test_recorder_nests_real_calls_and_adds_up():
    recorder = spans.Recorder()
    inner = recorder.wrap("exact.r_explicit", lambda: sum(range(10_000)))
    outer = recorder.wrap("exact.dist_X_exact", lambda: [inner() for _ in range(3)])
    recorder.run_job(0, outer)
    names = [s[0] for s in recorder.spans]
    assert names == ["job", "exact.dist_X_exact"] + ["exact.r_explicit"] * 3
    assert [s[3] for s in recorder.spans] == [-1, 0, 1, 1, 1]
    split = spans.job_splits(recorder.spans)[0]
    layers = sum(v for k, v in split.items() if k != "total")
    assert layers == pytest.approx(split["total"], rel=1e-12)


def test_install_wraps_every_lookup_name():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import contextlib, io, json, treeprotect, spans\n"
        "r = spans.Recorder(); spans.install(r, treeprotect)\n"
        "assert treeprotect.cli.dist_X_exact is treeprotect.exact.dist_X_exact\n"
        "assert treeprotect.dist_X_exact is treeprotect.exact.dist_X_exact\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    r.run_job(0, lambda: treeprotect.cli.main(['exact-dist', 'X', '6']))\n"
        "print(json.dumps(sorted({s[0] for s in r.spans})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(BENCH.parent / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    names = json.loads(out)
    assert {"job", "cli.main", "exact.dist_X_exact", "series.__truediv__",
            "series.__rsub__", "series.shifted"} <= set(names)
