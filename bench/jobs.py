"""Seeded job lists for the three benchmark workloads.

A job is either a CLI invocation, run in-process through
``treeprotect.cli.main(argv)``, or a call of a public library function
where no subcommand exists.  The seed picks the job order, Monte Carlo
seeds, ``k`` ranges and each ``n`` inside a narrow band; the size classes
are fixed, so the work per pass barely depends on the seed.

No (function, arguments) pair appears twice in one list, so every
``lru_cache`` hit inside a pass is genuine shared work: the X and Y oracle
tables at one ``n`` share one enumeration, the mean jobs at one ``n`` share
one totals table, and the survival jobs of one size class share their
central binomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("tables", "convergence", "sample")

# size bands as (centre, half width) or (low, high); pin.py pins every n in them
TABLE_BANDS = ((70, 2), (100, 2), (125, 1))
EXPLICIT_BANDS = ((150, 212), (213, 275), (276, 338), (339, 400))
ORACLE_SIZES = (11, 12, 13)
# (centre, half width, statistics, levels k): the cost of a survival value
# falls steeply with k, so the levels are fixed and only n moves
SURVIVAL_BANDS = (
    (800, 3, "XY", (1, 2, 3)),
    (1600, 3, "XY", (2, 3)),
    (2200, 3, "Y", (1,)),
)
MEAN_BAND = (2000, 2)
BULK_SIZES = (10, 50, 200)
SPARSE_SIZE = 1000


def band(centre: int, half: int) -> range:
    return range(centre - half, centre + half + 1)


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``kind`` is "cli" (``call`` is the argv) or "lib" (``call`` is the
    function name followed by its arguments).  ``check`` names the output
    check in checks.py and ``group`` the job class used by the per-layer
    metrics.
    """

    kind: str
    call: tuple
    check: str
    group: str

    @property
    def key(self) -> tuple:
        return (self.kind,) + self.call


def _tables(rng: random.Random) -> list[Job]:
    jobs = []
    # one n per size class, shared by X and Y; Y costs about twice X
    for centre, half in TABLE_BANDS:
        n = rng.choice(band(centre, half))
        for stat in "XY":
            jobs.append(Job("cli", ("exact-dist", stat, str(n)), "table", "series"))
    # explicit X tables: one n from each quarter of 150..400
    for low, high in EXPLICIT_BANDS:
        n = rng.randint(low, high)
        jobs.append(Job("cli", ("exact-dist", "X", str(n), "explicit"), "table", "explicit"))
    # X and Y oracle tables at one n share one enumeration
    for n in ORACLE_SIZES:
        for stat in "XY":
            jobs.append(Job("cli", ("exact-dist", stat, str(n), "oracle"), "table", "oracle"))
    return jobs


def _convergence(rng: random.Random) -> list[Job]:
    jobs = []
    for centre, half, stats, ks in SURVIVAL_BANDS:
        n = rng.choice(band(centre, half))
        for stat in stats:
            for k in ks:
                jobs.append(Job("lib", (f"survival_{stat}_exact", n, k), "survival", "survival"))
    n = rng.choice(band(*MEAN_BAND))
    for stat in "XY":
        jobs.append(Job("lib", (f"mean_{stat}_exact", n), "mean", "mean"))
        jobs.append(Job("lib", (f"asym_moments_{stat}", n), "asym_moments", "asym_moments"))
    digits = 100 + rng.randint(-2, 2)
    jobs.append(Job("cli", ("constants", "--digits", str(digits)), "constants", "constants"))
    digits = 130 + rng.randint(-2, 2)
    jobs.append(
        Job("cli", ("constants", "c3", "d3", "--digits", str(digits)), "constants", "constants")
    )
    jobs.append(Job("cli", ("mellin-check",), "mellin", "mellin"))
    top = rng.randint(10, 12)
    for stat in "XY":
        jobs.append(Job("cli", ("limit-dist", stat, "--k", f"0:{top}"), "limit", "limit"))
    return jobs


# bulk trials stay below three 16,384-row sampler batches, sparse ones
# below one, so the seed never changes the number of batches
def _sample(rng: random.Random) -> list[Job]:
    jobs = []
    for n in BULK_SIZES:
        for stat in "XY":
            trials = rng.randint(45_000, 49_000)
            jobs.append(_sample_job(rng, stat, n, trials, "sample.bulk"))
    for stat in "XY":
        jobs.append(_sample_job(rng, stat, SPARSE_SIZE, rng.randint(100, 1000), "sample.sparse"))
    return jobs


def _sample_job(rng: random.Random, stat: str, n: int, trials: int, group: str) -> Job:
    seed = rng.randrange(1, 2**31)
    argv = ("sample", stat, str(n), "--trials", str(trials), "--seed", str(seed))
    return Job("cli", argv, "sample", group)


_BUILDERS = {"tables": _tables, "convergence": _convergence, "sample": _sample}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The shuffled job list of one workload; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate job in {workload} seed {seed}")
    return jobs
