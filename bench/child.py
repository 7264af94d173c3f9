"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py ROOT                         set-up only
    python3 bench/child.py ROOT WORKLOAD SEED TRACE     set-up, then every job

Set-up is ``import treeprotect`` plus ``cli.build_parser()`` from
ROOT/src with every cache cold.  The timed phase runs the jobs one after
another; output conversion happens after it.  The pass is written to
stdout as one JSON object: ``setup_s``, and for a workload ``wall_s``,
``peak_rss_mib`` (this process's ru_maxrss), the job results with each
job's time ``job_s`` and, when TRACE is 1, the spans and cache counters.
"""

import sys
import time


def _setup(root: str):
    start = time.perf_counter()
    sys.path.insert(0, root + "/src")
    import treeprotect
    import treeprotect.cli

    treeprotect.cli.build_parser()
    return treeprotect, time.perf_counter() - start


def _run(package, job) -> dict:
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    try:
        if job.kind == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = package.cli.main(list(job.call))
                except SystemExit as exc:
                    code = exc.code
            return {"status": "ok", "exit": code, "out": out.getvalue(), "stderr": err.getvalue()}
        name, *args = job.call
        return {"status": "ok", "value": getattr(package, name)(*args)}
    except Exception as exc:  # a failed job is counted, the pass goes on
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _plain(value):
    """Exact results as decimal strings: a Fraction becomes [num, den]."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return [str(value.numerator), str(value.denominator)]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    raise TypeError(f"unexpected result type {type(value).__name__}")


def main() -> int:
    root = sys.argv[1]
    package, setup_s = _setup(root)
    import json
    import os

    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(root, "src", "treeprotect"):
        print(f"treeprotect imported from {package.__file__}, not {root}/src", file=sys.stderr)
        return 3
    if len(sys.argv) == 2:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return 0

    import functools
    import resource

    from jobs import make_jobs

    workload, seed, traced = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    jobs = make_jobs(workload, seed)
    recorder = None
    if traced:
        import spans

        cached = {name: getattr(package.exact, name) for name in spans.CACHED_KERNELS}
        cached["constant"] = package.asymptotics.constant
        recorder = spans.Recorder()
        spans.install(recorder, package)

    results = []
    clock = time.perf_counter
    start = clock()
    for index, job in enumerate(jobs):
        run = functools.partial(_run, package, job)
        began = clock()
        results.append(recorder.run_job(index, run) if recorder else run())
        results[-1]["job_s"] = clock() - began
    wall_s = clock() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sys.set_int_max_str_digits(0)
    for result in results:
        if "value" in result:
            try:
                result["out"] = _plain(result.pop("value"))
            except TypeError as exc:
                result.update(status="error", error=str(exc))
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "results": results,
    }
    if recorder:
        report["spans"] = recorder.spans
        report["caches"] = {name: fn.cache_info()[:2] for name, fn in cached.items()}
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
