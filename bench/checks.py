"""Output checks for benchmark jobs; they run outside the timed phase.

Each check takes the job and its output and returns a list of problems,
empty when the output is right.  The CLI's ``elapsed_s``, ``params`` and
``provenance`` fields are never compared.

* Exact tables, survival values and means are compared with SHA-256
  digests in pins.json, pinned from two agreeing routes (see pin.py).
* Constant enclosures must be valid (lower <= upper, width below
  10^-digits, the printed decimal the truncation of both bounds) and the
  decimal must match the pinned 200-digit truncation.  The published
  c3/d3 strings are known to be wrong and are never used.
* Limit laws are compared with consecutive differences of the survival
  expansions, a route other than the closed forms limit-dist prints.
* Monte Carlo survival counts must pass an exact two-sided binomial tail
  test at MC_ALPHA against the pinned exact probabilities.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# false-alarm rate per count; a run checks about 100 counts and the
# steadiness evidence about 10,000, so a correct sampler is never flagged
MC_ALPHA = 1e-9

# probabilities below this are pinned as absent: a count there is an error
MC_NEGLIGIBLE = 1e-30


def digest(value) -> str:
    """SHA-256 of the compact JSON form of ``value``."""
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def table_content(rows: list[dict]) -> list[list]:
    """The mathematical content of exact-dist rows, without stamps."""
    return [
        [row["kind"], row.get("k", row.get("name")), row["value_num"], row["value_den"],
         row["value_decimal"]]
        for row in rows
    ]


def truncate(value: Fraction, digits: int) -> str:
    """Truncate toward zero to ``digits`` fractional digits."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    whole, frac = divmod(scaled.numerator // scaled.denominator, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def truncate_decimal(text: str, digits: int) -> str:
    """Truncate a decimal string toward zero to ``digits`` fractional digits."""
    whole, frac = text.split(".")
    if len(frac) < digits:
        raise ValueError(f"only {len(frac)} digits pinned")
    return f"{whole}.{frac[:digits]}"


def _fraction(pair: list[str]) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _pinned(pins: dict, table: str, key: str, actual: str) -> list[str]:
    expected = pins[table].get(key)
    if expected is None:
        return [f"no pinned {table} value for {key}"]
    if expected != actual:
        return [f"{table} {key}: digest {actual[:12]} != pinned {expected[:12]}"]
    return []


def check_table(job, out, pins, package) -> list[str]:
    stat, n = job.call[1], int(job.call[2])
    rows = jsonl(out)
    if len(rows) != 2 * n + 3:
        return [f"exact-dist {stat} {n}: {len(rows)} rows, expected {2 * n + 3}"]
    return _pinned(pins, "tables", f"{stat}:{n}", digest(table_content(rows)))


def check_survival(job, out, pins, package) -> list[str]:
    name, n, k = job.call
    stat = "X" if "_X_" in name else "Y"
    return _pinned(pins, "survival", f"{stat}:{n}:{k}", digest(out))


def check_mean(job, out, pins, package) -> list[str]:
    name, n = job.call
    stat = "X" if "_X_" in name else "Y"
    return _pinned(pins, "mean", f"{stat}:{n}", digest(out))


def check_asym_moments(job, out, pins, package) -> list[str]:
    name, n = job.call
    lead = "c" if name.endswith("X") else "d"
    problems = []
    for index, value in enumerate(out):
        first, second = (f"{lead}{2 * index}", f"{lead}{2 * index + 1}")
        target = Fraction(pins["constants"][first]) + Fraction(pins["constants"][second]) / n
        if abs(_fraction(value) - target) > Fraction(1, 10**29):
            problems.append(f"{name}({n})[{index}] is off the pinned {first} + {second}/n")
    return problems


def check_constants(job, out, pins, package) -> list[str]:
    argv = list(job.call)
    digits = int(argv[argv.index("--digits") + 1])
    names = argv[1 : argv.index("--digits")] or sorted(pins["constants"])
    rows = jsonl(out)
    if sorted(row["name"] for row in rows) != sorted(names):
        return [f"constants: got {[row['name'] for row in rows]}, asked {names}"]
    problems = []
    for row in rows:
        name = row["name"]
        lower = Fraction(int(row["lower_num"]), int(row["lower_den"]))
        upper = Fraction(int(row["upper_num"]), int(row["upper_den"]))
        if row["digits"] != digits:
            problems.append(f"{name}: digits {row['digits']} != {digits}")
        if not lower <= upper:
            problems.append(f"{name}: lower bound above upper bound")
        if upper - lower >= Fraction(1, 10**digits):
            problems.append(f"{name}: enclosure wider than 10^-{digits}")
        if not row["decimal"] == truncate(lower, digits) == truncate(upper, digits):
            problems.append(f"{name}: decimal is not the truncation of both bounds")
        if row["decimal"] != truncate_decimal(pins["constants"][name], digits):
            problems.append(f"{name}: decimal differs from the pinned digits")
    return problems


def check_mellin(job, out, pins, package) -> list[str]:
    rows = jsonl(out)
    problems = []
    at_log2 = None
    equations = [row for row in rows if row["kind"] == "functional_eq"]
    if len(equations) != 7:
        problems.append(f"mellin-check: {len(equations)} functional equations, expected 7")
    for row in equations:
        if max(row["F_residual"], row["G_residual"]) > 1e-12:
            problems.append(f"mellin-check x={row['x']}: residual above 1e-12")
        if max(row["F_tail_bound"], row["G_tail_bound"]) >= 1e-14:
            problems.append(f"mellin-check x={row['x']}: tail bound not below 1e-14")
        if row["x"] == math.log(2.0):
            at_log2 = row
    if at_log2 is None:
        return problems + ["mellin-check: no evaluation at log 2"]
    x = math.log(2.0)
    c0 = float(Fraction(pins["constants"]["c0"]))
    d0 = Fraction(pins["constants"]["d0"])
    second_y = float(Fraction(pins["constants"]["d2"]) + d0 * d0)
    expected = {
        "mean_constant_from_F": (c0, 1e-12),
        "second_moment_constant_from_G": (second_y, 1e-12),
        "reflection_term_F_at_log2": (1 / (4 * x) - at_log2["F_value"], 1e-13),
        "reflection_term_G_at_log2": (
            math.pi**2 / (24 * x * x) + 1 / 24 - at_log2["G_value"],
            1e-13,
        ),
    }
    links = {row["name"]: row["value"] for row in rows if row["kind"] == "cross_link"}
    if sorted(links) != sorted(expected):
        return problems + [f"mellin-check: cross links {sorted(links)}"]
    for name, (value, tol) in expected.items():
        if abs(links[name] - value) > tol:
            problems.append(f"mellin-check {name}: {links[name]!r} vs {value!r}")
    return problems


def check_limit(job, out, pins, package) -> list[str]:
    stat, top = job.call[1], int(job.call[3].split(":")[1])
    survival = package.asym_P_X_ge if stat == "X" else package.asym_P_Y_ge
    lead = [Fraction(1)] + [survival(k).leading for k in range(1, top + 2)]
    corr = [Fraction(0)] + [survival(k).correction for k in range(1, top + 2)]
    expected = {}
    for k in range(top + 1):
        expected[("leading", k)] = lead[k] - lead[k + 1]
        expected[("correction", k)] = corr[k] - corr[k + 1]
    rows = jsonl(out)
    got = {(row["kind"], row["k"]): row for row in rows}
    if sorted(got) != sorted(expected):
        return [f"limit-dist {stat}: rows {sorted(got)[:4]}..."]
    problems = []
    for key, value in expected.items():
        row = got[key]
        if (row["value_num"], row["value_den"]) != (str(value.numerator), str(value.denominator)):
            problems.append(f"limit-dist {stat} {key}: value differs")
        elif row["value_decimal"] != truncate(value, 30):
            problems.append(f"limit-dist {stat} {key}: decimal differs")
    return problems


def binomial_tail_p(count: int, trials: int, p: float) -> float:
    """The smaller exact tail probability of ``count`` under Binomial(trials, p)."""
    from scipy.stats import binom

    return float(min(binom.cdf(count, trials, p), binom.sf(count - 1, trials, p)))


def check_sample(job, out, pins, package) -> list[str]:
    argv = list(job.call)
    stat, n = argv[1], int(argv[2])
    trials = int(argv[argv.index("--trials") + 1])
    rows = jsonl(out)
    counts = {row["k"]: int(row["count"]) for row in rows if row["kind"] == "survival"}
    probabilities = pins["mc"][f"{stat}:{n}"]
    problems = []
    if counts.get(0) != trials:
        problems.append(f"sample {stat} {n}: count at k=0 is {counts.get(0)}, not {trials}")
    for k in sorted(counts):
        if k >= len(probabilities) and counts[k]:
            problems.append(f"sample {stat} {n}: count {counts[k]} at k={k}, where p < 1e-30")
    for k, p in enumerate(probabilities[1:], start=1):
        tail = binomial_tail_p(counts.get(k, 0), trials, p)
        if tail < MC_ALPHA / 2:
            problems.append(f"sample {stat} {n} k={k}: count {counts.get(k, 0)}, tail {tail:.2e}")
    means = [row["value"] for row in rows if row["kind"] == "mean"]
    mean = sum(c for k, c in counts.items() if k >= 1) / trials
    if len(means) != 1 or abs(means[0] - mean) > 1e-9:
        problems.append(f"sample {stat} {n}: mean row disagrees with the counts")
    return problems


CHECKS = {
    "table": check_table,
    "survival": check_survival,
    "mean": check_mean,
    "asym_moments": check_asym_moments,
    "constants": check_constants,
    "mellin": check_mellin,
    "limit": check_limit,
    "sample": check_sample,
}


def check(job, result: dict, pins: dict, package) -> list[str]:
    """Problems with one job's result; ``package`` is the imported treeprotect."""
    if result["status"] != "ok":
        return [f"{' '.join(map(str, job.call))}: {result['error']}"]
    if job.kind == "cli" and result["exit"] != 0:
        return [f"{' '.join(job.call)}: exit code {result['exit']}: {result['stderr'][-300:]}"]
    return CHECKS[job.check](job, result["out"], pins, package)
