"""The seven verification criteria, one test each, and the runner's flushing.

Each test runs its criterion through the runner the `verify` subcommand
uses, so it prints the same PASS/FAIL line, and then asserts the criterion
held.  One criterion is expected to fail against the published reference
data; its detail line explains why and the failure is deliberate, not
weakened away:

* criterion 2: the published 50-digit strings for c3 and d3 are
  internally inconsistent with their own defining sums (they equal
  c1*(1-2*c0) and d1*(1-2*d0), dropping the (2k-1) weight).  Exact
  finite-n variances confirm the computed values: n*(V - c2) and
  n*(V - d2) at n = 400, 800, 1600 and 3200, after three Richardson
  steps, meet the certified c3 and d3 within 1e-9, and the detail line
  prints the extrapolated digits.

Every criterion but 2 also has a test that breaks one name it reads and
checks that its failing detail names the broken cell.
"""

import ast
import dataclasses
import sys
from fractions import Fraction

import pytest

from treeprotect import acceptance, constant
from treeprotect.acceptance import run_criterion
from treeprotect.exact import DistributionTable
from treeprotect.sampler import SampleStats
from treeprotect.trees import oracle_r, oracle_s


class _ClosedPipe:
    """A stdout whose reader has gone away: every flush raises."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError


def test_run_all_stops_at_the_first_line_into_a_closed_pipe(monkeypatch):
    ran = []

    def stub(number):
        def check():
            ran.append(number)
            return True, "detail"

        return number, f"stub {number}", check

    monkeypatch.setattr(acceptance, "CRITERIA", [stub(1), stub(2), stub(3)])
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(BrokenPipeError):
        acceptance.run_all()
    assert ran == [1]


def test_criterion_1_oracle_equivalence():
    result = run_criterion(1)
    assert result.elapsed_s < 60.0
    assert result.passed, result.detail


N, K = 5, 2  # the one count that each slipped route below gets wrong


def _one_more(counts, i):
    return (*counts[:i], counts[i] + 1, *counts[i + 1 :])


def _point(f):
    return lambda n, k: f(n, k) + ((n, k) == (N, K))


def _recurrence(f):
    def slipped(order):
        r, s = f(order)
        return (*r[:K], _one_more(r[K], N), *r[K + 1 :]), s

    return slipped


def _table(f):
    return lambda n: DistributionTable(_one_more(f(n).counts, K)) if n == N else f(n)


# every route that criterion 1 looks up, the slip that puts one count of it
# one too high, and the line and key under which its failing detail shows it
ROUTE_SLIPS = {
    "oracle_r": (_point, "r", "oracle"),
    "oracle_s": (_point, "s", "oracle"),
    "_recurrence_counts": (_recurrence, "r", "recurrence"),
    "_chain_counts": (lambda f: lambda n: _one_more(f(n), K) if n == N else f(n), "r", "chain"),
    "r_explicit": (_point, "r", "explicit"),
    "s_explicit": (_point, "s", "explicit"),
    "r_survival_column": (
        lambda f: lambda k, order: _one_more(f(k, order), N) if k == K else f(k, order),
        "r",
        "ballot",
    ),
    "root_protection_totals": (lambda f: lambda order: _one_more(f(order), N), "sum", "ballot"),
    "dist_X_exact": (_table, "r", "pass"),
    "dist_Y_exact": (_table, "s", "pass"),
}


@pytest.mark.parametrize("name", ROUTE_SLIPS)
def test_criterion_1_names_a_route_one_count_off(monkeypatch, name):
    slip, line, route = ROUTE_SLIPS[name]
    monkeypatch.setattr(acceptance, name, slip(getattr(acceptance, name)))
    passed, detail = acceptance._check_oracle_equivalence()
    assert not passed
    first = detail.split("; ")[0]
    if line == "sum":
        total = sum(oracle_r(N, k) for k in range(1, N + 1))
        assert first == f"sum_k r({N},k): {route} {total + 1} != oracle {total}"
        return
    head, routes = first.split(": ", 1)
    routes = ast.literal_eval(routes)
    value = (oracle_r if line == "r" else oracle_s)(N, K)
    assert head == f"{line}({N},{K})"
    assert routes.pop(route) == value + 1
    assert set(routes.values()) == {value}


def test_criterion_2_published_constants():
    result = run_criterion(2)
    assert result.elapsed_s < 10.0
    assert result.passed, result.detail


def test_variance_extrapolation_meets_the_certified_c3_and_d3():
    extrapolated = acceptance._variance_corrections()
    for name in ("c3", "d3"):
        assert abs(extrapolated[name] - constant(name, 50).midpoint) < Fraction(1, 10**9)


def test_criterion_3_normalization():
    result = run_criterion(3)
    assert result.passed, result.detail


def test_criterion_4_convergence_rates():
    result = run_criterion(4)
    assert result.elapsed_s < 120.0
    assert result.passed, result.detail


def test_criterion_5_mellin_identities():
    result = run_criterion(5)
    assert result.elapsed_s < 1.0
    assert result.passed, result.detail


def test_criterion_6_monte_carlo():
    result = run_criterion(6)
    assert result.elapsed_s < 120.0
    assert result.passed, result.detail


def test_criterion_7_moment_convergence():
    result = run_criterion(7)
    assert result.passed, result.detail


def _nudged(f, at, field, by):
    """f with one AsymptoticValue field moved by `by` at level k = at."""

    def nudged(k):
        value = f(k)
        if k != at:
            return value
        return dataclasses.replace(value, **{field: getattr(value, field) + by})

    return nudged


def _no_survivors(statistic, n, trials, seed):
    return SampleStats((trials,))


# criteria 3-7: the names in acceptance that each break replaces, and the start
# of the failing detail's part that names the broken cell (criterion 6 sees no
# survivor in any cell, as no word trial runs)
BROKEN_CELLS = {
    3: (
        {"limit_pmf_X": lambda f: _nudged(f, 7, "leading", Fraction(1, 10**50))},
        "X pmf/survival difference mismatch at k=7",
    ),
    4: (
        {"asym_P_Y_ge": lambda f: _nudged(f, 2, "correction", Fraction(1, 100))},
        "Y k=2: spread 15.285 >= 4",
    ),
    5: (
        {"check_G_functional_eq": lambda f: lambda x: 1e-11},
        "G equation residual 1.00e-11 at x=0.5",
    ),
    6: (
        {"_estimate_by_words": lambda f: _no_survivors, "estimate_survival": lambda f: _no_survivors},
        "X n=10 k=2: 278.06 sigma",
    ),
    7: (
        {"mean_Y_exact": lambda f: lambda n: f(n) + Fraction(1, 1000)},
        "Y mean gap 1.000e-03 >= 1e-4",
    ),
}


@pytest.mark.parametrize("number", BROKEN_CELLS)
def test_criteria_3_to_7_name_a_broken_cell(monkeypatch, number):
    breaks, cell = BROKEN_CELLS[number]
    for name, wrap in breaks.items():
        monkeypatch.setattr(acceptance, name, wrap(getattr(acceptance, name)))
    check = next(check for n, _, check in acceptance.CRITERIA if n == number)
    passed, detail = check()
    assert not passed
    assert any(part.startswith(cell) for part in detail.split("; ")), detail
