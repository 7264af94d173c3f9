"""Verification suite: seven independent checks on the whole package.

Each criterion exercises a different seam: route agreement against the
brute-force oracle, certified constant digits, exact limit-law algebra,
convergence rates of the 1/n expansions, the harmonic-sum functional
equations, Monte Carlo statistics, and moment convergence.
`run_criterion` runs one criterion, prints its PASS/FAIL line and returns
the result; the test suite calls it per criterion, and `run_all` (the CLI
`verify` subcommand) calls it for all seven.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .asymptotics import (
    CONSTANT_NAMES,
    asym_moments_X,
    asym_moments_Y,
    asym_P_X_ge,
    asym_P_Y_ge,
    constant,
    limit_pmf_X,
    limit_pmf_Y,
)
from .exact import (
    dist_X_exact,
    dist_Y_exact,
    mean_X_exact,
    mean_Y_exact,
    r_explicit,
    r_survival_column,
    root_protection_totals,
    s_explicit,
    survival_X_exact,
    survival_Y_exact,
)
from .mellin import (
    MELLIN_ABSCISSAS,
    check_F_functional_eq,
    check_G_functional_eq,
    eval_F,
    eval_G,
    mean_constant_from_F,
    reflection_term_F,
    reflection_term_G,
    second_moment_constant_from_G,
)
from .sampler import (
    RNG_STREAM,
    _chain_counts,
    _estimate_by_words,
    estimate_survival,
)
from .series import _recurrence_counts
from .trees import oracle_r, oracle_s

__all__ = [
    "CriterionResult", "REFERENCE_DIGITS", "reference_prefix", "run_all", "run_criterion",
    "CRITERIA",
]

# published reference digits of the eight constants (the final digit of each
# string is rounded rather than truncated); see _check_constants for the two
# strings that are internally inconsistent with their own defining sums
REFERENCE_DIGITS = {
    "c0": "1.622971384715353049514658203184345989635513668984063539407825",
    "c1": "0.1311873689494231825244485810366733833577429413531428274982796",
    "c2": "0.71569507178333266731548919868273628601066118785422617431075",
    "c3": "-0.294639322732595323433878185755458143829498855158644070705218",
    "d0": "0.727649276913726097531184400482145348863515722775042276537008",
    "d1": "-0.0311837125986222774945246489936100437425899128713521725307175",
    "d2": "0.81689937948362892278879205623322983539562628691031631640757",
    "d3": "0.014197899249123624176745586362758197533680269252844749278840",
}

REFLECTION_F_PREFIX = 0.0000134525077
REFLECTION_G_PREFIX = 0.0000134525165276


def reference_prefix(name: str, digits: int) -> str:
    """The reference value truncated to `digits` fractional digits."""
    whole, frac = REFERENCE_DIGITS[name].split(".")
    if digits > len(frac):
        raise ValueError(f"only {len(frac)} reference digits available for {name}")
    return f"{whole}.{frac[:digits]}"


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed_s: float


def _check_oracle_equivalence() -> tuple[bool, str]:
    """Six routes to r(n,k), four to s(n,k) and two to sum_k r(n,k) agree for n <= 16.

    One route to each is the pass behind both exact tables and both means.
    """
    bad: list[str] = []
    totals = root_protection_totals(16)
    series_r, series_s = _recurrence_counts(16)
    for n in range(1, 17):
        chain = _chain_counts(n)
        pass_r, pass_s = dist_X_exact(n).counts, dist_Y_exact(n).counts
        for k in range(0, n + 1):
            routes = {
                "oracle": oracle_r(n, k),
                "recurrence": series_r[k][n],
                "chain": chain[k] if k < n else 0,
                "pass": pass_r[k] if k < n else 0,
            }
            if k >= 1:
                routes["explicit"] = r_explicit(n, k)
                routes["ballot"] = r_survival_column(k, 16)[n]
            if len(set(routes.values())) != 1:
                bad.append(f"r({n},{k}): {routes}")

            s_routes = {
                "oracle": oracle_s(n, k),
                "series": series_s[k][n],
                "explicit": s_explicit(n, k),
                "pass": pass_s[k] if k < n else 0,
            }
            if len(set(s_routes.values())) != 1:
                bad.append(f"s({n},{k}): {s_routes}")
        oracle_total = sum(oracle_r(n, k) for k in range(1, n + 1))
        if totals[n] != oracle_total:
            bad.append(f"sum_k r({n},k): ballot {totals[n]} != oracle {oracle_total}")
    if bad:
        return False, "; ".join(bad[:4])
    return True, "all routes agree for n <= 16, every k"


# c3, d3: the product its reference string equals, its exact table, its limit variance
_CORRECTIONS = {
    "c3": ("c1*(1-2*c0)", dist_X_exact, "c2"),
    "d3": ("d1*(1-2*d0)", dist_Y_exact, "d2"),
}


def _richardson(values: list[Fraction]) -> Fraction:
    """Cancel the 1/n, 1/n^2, ... error terms of values at doubling n, one per step."""
    for step in range(1, len(values)):
        scale = 2**step
        values = [(scale * b - a) / (scale - 1) for a, b in zip(values, values[1:])]
    return values[0]


def _variance_corrections() -> dict[str, Fraction]:
    """c3 and d3 from exact n*(V(X_n) - c2) and n*(V(Y_n) - d2), n = 400..3200.

    Their errors run in whole powers of 1/n, so three Richardson steps leave
    O(n^-4).  X and Y at one n read the same cached exact pass.
    """
    scaled: dict[str, list[Fraction]] = {name: [] for name in _CORRECTIONS}
    for n in (400, 800, 1600, 3200):
        for name, (_, dist, limit) in _CORRECTIONS.items():
            scaled[name].append(n * (dist(n).variance - constant(limit, 50).midpoint))
    return {name: _richardson(values) for name, values in scaled.items()}


# The published c3/d3 strings factor exactly as c1*(1-2*c0) and d1*(1-2*d0)
# (they match those products to 59 digits): the (2k-1) weight of the defining
# sums was evidently dropped when the reference digits were produced.  The
# certified values computed here follow the defining sums, and exact finite-n
# variances, extrapolated by _variance_corrections, meet them to about 10
# digits.  The comparison below is still made against the published strings,
# so this criterion fails on those two names.
def _check_constants() -> tuple[bool, str]:
    """50-digit certified decimals reproduce the reference strings."""
    bad = []
    extrapolated = _variance_corrections()
    for name in CONSTANT_NAMES:
        got = constant(name, 50).decimal
        want = reference_prefix(name, 50)
        if got != want:
            note = ""
            if name in _CORRECTIONS:
                note = (
                    f" [reference string equals {_CORRECTIONS[name][0]}, dropping the (2k-1) "
                    f"weight; exact variances at n = 400..3200, Richardson-extrapolated, "
                    f"give {float(extrapolated[name]):.13f}]"
                )
            bad.append(f"{name}: computed {got} != reference {want}{note}")
    if bad:
        return False, "; ".join(bad)
    return True, "all eight constants match to 50 digits"


def _check_normalization() -> tuple[bool, str]:
    """Limit pmfs sum to 1 with tail < 1e-40; pmf = survival differences."""
    cutoff = 80
    tol = Fraction(1, 10**40)
    problems = []

    laws = (("X", limit_pmf_X, asym_P_X_ge), ("Y", limit_pmf_Y, asym_P_Y_ge))
    for statistic, pmf, survival in laws:
        tail = 1 - sum((pmf(k).leading for k in range(cutoff + 1)), Fraction(0))
        if tail != survival(cutoff + 1).leading or not 0 < tail < tol:
            problems.append(f"{statistic} normalization tail {float(tail):.3e}")
        for k in range(1, 31):
            if pmf(k).leading != survival(k).leading - survival(k + 1).leading:
                problems.append(f"{statistic} pmf/survival difference mismatch at k={k}")

    if problems:
        return False, "; ".join(problems[:4])
    return True, "exact telescoping to K=80 and difference identity to k=30"


def _scaled_residuals(statistic: str, k: int, sizes: tuple[int, ...]) -> list[float]:
    """n^2 times the two-term error, the order stated by ERROR_ORDER."""
    if statistic == "X":
        approx = asym_P_X_ge(k)
        exact_fn = survival_X_exact
    else:
        approx = asym_P_Y_ge(k)
        exact_fn = survival_Y_exact
    return [float(abs(exact_fn(n, k) - approx.at(n))) * n**2 for n in sizes]


def _check_convergence() -> tuple[bool, str]:
    """Scaled residuals of the two-term expansions stay within a 4x band."""
    sizes = (100, 200, 400, 800, 1600)
    failures = []
    notes = []
    for statistic in ("X", "Y"):
        for k in (1, 2, 3, 4):
            scaled = _scaled_residuals(statistic, k, sizes)
            if all(v == 0.0 for v in scaled):
                notes.append(f"{statistic} k={k}: residuals identically 0")
                continue
            lo, hi = min(scaled), max(scaled)
            ratio = math.inf if lo == 0 else hi / lo
            if ratio >= 4.0:
                failures.append(
                    f"{statistic} k={k}: spread {ratio:.3f} >= 4 "
                    f"(scaled residuals {', '.join(f'{v:.3e}' for v in scaled)})"
                )
            else:
                notes.append(f"{statistic} k={k}: spread {ratio:.3f}")
    if failures:
        return False, "; ".join(failures) + (
            "; the error does not decay like n^-2: residuals growing after "
            "scaling point to a wrong 1/n coefficient, shrinking ones to a "
            "smaller error order than the one stated"
        )
    return True, "; ".join(notes)


def _check_mellin() -> tuple[bool, str]:
    """Functional equations, near-identities, cross-links, fixed points."""
    problems = []
    for x in MELLIN_ABSCISSAS:
        rf = check_F_functional_eq(x)
        rg = check_G_functional_eq(x)
        if rf >= 1e-12:
            problems.append(f"F equation residual {rf:.2e} at x={x:.6g}")
        if rg >= 1e-12:
            problems.append(f"G equation residual {rg:.2e} at x={x:.6g}")

    near_f = reflection_term_F(math.log(2.0))
    if abs(near_f - REFLECTION_F_PREFIX) > 1e-12:
        problems.append(f"F reflection term {near_f!r} != {REFLECTION_F_PREFIX}")
    near_g = reflection_term_G(math.log(2.0))
    if abs(near_g - REFLECTION_G_PREFIX) > 1e-12:
        problems.append(f"G reflection term {near_g!r} != {REFLECTION_G_PREFIX}")

    c0 = float(constant("c0", 30).midpoint)
    if abs(mean_constant_from_F() - c0) >= 1e-12:
        problems.append("(9/2) F(log 2) drifted from c0")
    target = float(constant("d2", 30).midpoint + constant("d0", 30).midpoint ** 2)
    if abs(second_moment_constant_from_G() - target) >= 1e-11:
        problems.append("(3/2) G(log 2) drifted from d2 + d0^2")

    if abs(eval_F(math.pi).value - 1.0 / (8.0 * math.pi)) >= 1e-12:
        problems.append("F(pi) != 1/(8 pi)")
    if abs(eval_G(math.pi).value - 1.0 / 24.0) >= 1e-12:
        problems.append("G(pi) != 1/24")

    if problems:
        return False, "; ".join(problems[:5])
    return True, "residuals < 1e-12 at 7 abscissas; prefixes and fixed points match"


_MC_SEEDS = {
    ("X", 10): 1101,
    ("X", 50): 1105,
    ("X", 200): 1120,
    ("Y", 10): 2101,
    ("Y", 50): 2105,
    ("Y", 200): 2120,
}
_MC_MEAN_SEED = 2999


def _check_monte_carlo() -> tuple[bool, str]:
    """Fixed-seed sampling within 4 sigma of exact survival fractions.

    The cells simulate the definition on whole shuffled tree words: X at
    the root, Y at a vertex picked in the whole tree, so they rest neither
    on the generation chain nor on the pointing decomposition that the
    default routes (and the mean) use.
    """
    trials = 10**5
    problems = []
    worst = 0.0
    for (statistic, n), seed in _MC_SEEDS.items():
        stats = _estimate_by_words(statistic, n, trials, seed)
        exact_fn = survival_X_exact if statistic == "X" else survival_Y_exact
        for k in range(1, 6):
            p = float(exact_fn(n, k))
            sigma = math.sqrt(p * (1.0 - p) / trials)
            if sigma == 0.0:
                # degenerate cell: every tree (or none) satisfies the event
                if stats.survival_fraction(k) != p:
                    problems.append(f"{statistic} n={n} k={k}: degenerate cell missed")
                continue
            deviation = abs(stats.survival_fraction(k) - p) / sigma
            worst = max(worst, deviation)
            if deviation > 4.0:
                problems.append(f"{statistic} n={n} k={k}: {deviation:.2f} sigma")

    mean_stats = estimate_survival("Y", 200, 10**6, _MC_MEAN_SEED)
    target = float(asym_moments_Y(200)[0])
    gap = abs(mean_stats.mean - target)
    if gap >= 0.02:
        problems.append(f"Y mean at n=200: |{mean_stats.mean:.5f} - {target:.5f}| >= 0.02")

    routes = (
        "X cells by tree words (stream 4 draws), Y cells by whole-tree picks (stream 3 draws); "
        f"Y mean by subtree size and generation chain, stream {RNG_STREAM}"
    )
    if problems:
        return False, "; ".join(problems) + f" ({routes})"
    return True, f"worst deviation {worst:.2f} sigma; Y mean gap {gap:.5f} ({routes})"


def _check_moments() -> tuple[bool, str]:
    """Exact means at n=1600 sit on the two-term asymptotics."""
    gap_x = abs(float(mean_X_exact(1600) - asym_moments_X(1600)[0]))
    gap_y = abs(float(mean_Y_exact(1600) - asym_moments_Y(1600)[0]))
    problems = []
    if gap_x >= 1e-3:
        problems.append(f"X mean gap {gap_x:.3e} >= 1e-3")
    if gap_y >= 1e-4:
        problems.append(f"Y mean gap {gap_y:.3e} >= 1e-4")
    if problems:
        return False, "; ".join(problems)
    return True, f"X gap {gap_x:.2e} < 1e-3, Y gap {gap_y:.2e} < 1e-4"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "oracle equivalence of all counting routes (n <= 16)", _check_oracle_equivalence),
    (2, "50-digit certified constants", _check_constants),
    (3, "limit-law normalization and difference identity", _check_normalization),
    (4, "convergence rate of the 1/n expansions", _check_convergence),
    (5, "harmonic-sum functional equations and cross-links", _check_mellin),
    (6, "Monte Carlo agreement at fixed seeds", _check_monte_carlo),
    (7, "moment convergence at n = 1600", _check_moments),
]


def run_criterion(number: int) -> CriterionResult:
    """Run one criterion, print and flush its PASS/FAIL line and detail, return the result."""
    _, title, check = next(c for c in CRITERIA if c[0] == number)
    start = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"{status}  criterion {number}: {title} ({elapsed:.1f} s)", flush=True)
    if detail:
        print(f"      {detail}", flush=True)
    return CriterionResult(number, title, passed, detail, elapsed)


def run_all() -> list[CriterionResult]:
    """Run every criterion in order, return the results."""
    return [run_criterion(number) for number, _, _ in CRITERIA]
