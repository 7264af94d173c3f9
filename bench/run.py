"""Benchmark driver for treeprotect: end-to-end and per-layer metrics.

    python3 bench/run.py --workload tables|convergence|sample|all
                         --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from the ``src`` next to
this directory.  Each pass runs one workload's seeded job list in a fresh,
single-threaded child process with its address space capped, one child
at a time.  Passes repeat until ``--seconds`` of measuring is spent, and
metrics are medians over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: wall_s
(jobs only, output checks excluded), peak_rss_mib (the child's
ru_maxrss) and setup_s (import plus parser in a fresh interpreter, also
sampled by set-up-only children).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, including
trace.overhead, and writes each traced job's layer split to
``.bench_trace/``.  Every output is checked (checks.py); the last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

SETUP_SAMPLES_PER_PASS = 4
# below the 7 GB machine; today's largest pass peaks at 1.7 GiB resident
MEMORY_CAP = 4 << 30
# every child is killed in time for the run to end within 180 s
DEADLINE_S = 165.0

import checks  # noqa: E402
import spans  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run child.py to completion; (report, "") or (None, reason)."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(ROOT), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
        preexec_fn=_cap_memory,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"child killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {err.decode(errors='replace')[-800:]}"
    return json.loads(out), ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _trace_file(workload: str, seed: int, traced_passes: list[dict]) -> Path:
    out = ROOT / ".bench_trace" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(traced_passes, indent=1))
    return out


def time_to_solution(job_times: list[list[float]]) -> float:
    """Sum over jobs of each job's median time across passes.

    A pass holds every job once, so this is a pass's wall time with each
    job's host noise damped by the median; shared-host slowdowns last
    seconds and rarely hit one job in most passes.
    """
    return sum(statistics.median(times) for times in zip(*job_times))


def _setup_sample() -> float:
    report, error = run_child([], 60.0)
    if report is None:
        raise SystemExit(f"set-up failed: {error}")
    return report["setup_s"]


def _check_pass(jobs, results, pins, package) -> list[list[str]]:
    """The problems of each job of one pass."""
    problems = []
    for job, result in zip(jobs, results):
        try:
            problems.append(checks.check(job, result, pins, package))
        except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append([f"{' '.join(map(str, job.call))}: malformed output ({exc!r})"])
    return problems


def _trace_record(jobs, report) -> dict:
    """Per-layer metrics and per-job layer splits of one traced pass."""
    results = report["results"]
    groups = {i: job.group for i, job in enumerate(jobs)}
    bytes_out = sum(
        len(result.get("out", "").encode())
        for job, result in zip(jobs, results)
        if job.kind == "cli"
    )
    caches = {name: tuple(info) for name, info in report["caches"].items()}
    splits = spans.job_splits(report["spans"])
    return {
        "layers": spans.layer_metrics(report["spans"], groups, caches, bytes_out),
        "jobs": [{"call": list(job.key)} | splits[i] for i, job in enumerate(jobs)],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, pins: dict, package) -> dict:
    jobs = make_jobs(workload, seed)
    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    _setup_sample()  # compiles bytecode and warms the file cache; not counted

    setups: list[float] = []
    passes: list[dict] = []
    probes: list[float] = []
    durations: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    measuring = time.perf_counter()
    for traced in itertools.cycle([False, True] if trace else [False]):
        started = time.perf_counter()
        probes.append(host_probe())
        # set-up samples spread over the run, so one slow host phase
        # cannot set them all
        setups.extend(_setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS))
        args = [workload, str(seed), "1" if traced else "0"]
        report, error = run_child(args, deadline - time.perf_counter())
        attempted += len(jobs)
        if report is None:
            failed += len(jobs)
            problems.append(error)
            break
        setups.append(report["setup_s"])
        for issues in _check_pass(jobs, report["results"], pins, package):
            failed += bool(issues)
            problems.extend(issues)
        record = {
            "traced": traced,
            "wall_s": report["wall_s"],
            "job_s": [result["job_s"] for result in report["results"]],
            "rss": report["peak_rss_mib"],
        }
        if traced:
            record |= _trace_record(jobs, report)
        passes.append(record)
        durations.append(time.perf_counter() - started)
        typical = statistics.median(durations)
        kinds = {p["traced"] for p in passes}
        spent = time.perf_counter() - measuring
        if len(kinds) == 1 + trace and spent + typical / 2 >= seconds:
            break
        if time.perf_counter() + typical > deadline:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "run_s": time.perf_counter() - begin,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "peak_rss_mib": [p["rss"] for p in untraced],
        "setup_s": setups,
        "host_probe_s": probes,
        "problems": problems[:20],
    }
    metrics: dict[str, float] = {}
    if untraced:
        metrics = {
            "wall_s": time_to_solution([p["job_s"] for p in untraced]),
            "peak_rss_mib": statistics.median(summary["peak_rss_mib"]),
            "setup_s": statistics.median(setups),
        }
    if trace:
        per_layer: dict[str, float] = {}
        if traced_passes and untraced:
            layers = [p["layers"] for p in traced_passes]
            per_layer = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
            traced_wall = time_to_solution([p["job_s"] for p in traced_passes])
            per_layer["trace.wall_s"] = traced_wall
            per_layer["trace.overhead"] = traced_wall / metrics["wall_s"] - 1
            jobs_out = [p["jobs"] for p in traced_passes]
            summary["trace_file"] = str(_trace_file(workload, seed, jobs_out))
        metrics = per_layer
    return {"summary": summary, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_summary(result: dict, units: dict[str, str]) -> None:
    s = result["summary"]
    print(f"{s['workload']} seed {s['seed']}: {s['passes']} passes of {s['jobs_per_pass']} jobs "
          f"in {s['run_s']:.1f} s")
    metrics = result["metrics"]
    for name, samples, what in (
        ("wall_s", s["pass_wall_s"], "pass wall"),
        ("peak_rss_mib", s["peak_rss_mib"], "pass"),
        ("setup_s", s["setup_s"], "set-up"),
    ):
        if samples and name in metrics:
            q1, median, q3 = _quartiles(samples)
            print(f"  {name:<14}{metrics[name]:12.4f} {units[name]:<4} {what} median {median:.4f}"
                  f"  q1 {q1:.4f}  q3 {q3:.4f}  ({len(samples)} samples)")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'fail_ratio':<14}{ratio:12.4f} 1    ({result['failed']} of {result['attempted']} jobs)")
    for problem in s["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    if "trace_file" in s:
        for name, value in metrics.items():
            print(f"  {name:<44}{value:16.6g} {units.get(name, '')}")
        print(f"  per-job layer splits: {s['trace_file']}")
    diagnostics = {k: s[k] for k in ("host_probe_s", "pass_wall_s", "run_s")}
    print("# diagnostics " + json.dumps(diagnostics))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "treeprotect" / "__init__.py").is_file():
        print(f"error: no treeprotect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    pins = json.loads((BENCH / "pins.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.set_int_max_str_digits(0)
    import treeprotect

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), pins, treeprotect)
        _print_summary(result, units)
        if sorted(result["metrics"]) != sorted(expected):
            print(f"error: {workload} measured {sorted(result['metrics'])}, expected {expected}",
                  file=sys.stderr)
            status = 1
            continue
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                        for name in expected},
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
