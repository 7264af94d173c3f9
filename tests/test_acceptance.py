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
"""

import sys
from fractions import Fraction

import pytest

from treeprotect import acceptance, constant
from treeprotect.acceptance import run_criterion


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
