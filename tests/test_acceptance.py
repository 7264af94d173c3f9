"""The seven verification criteria, one test each.

Each test runs its criterion through the runner the `verify` subcommand
uses, so it prints the same PASS/FAIL line, and then asserts the criterion
held.  One criterion is expected to fail against the published reference
data; its detail line explains why and the failure is deliberate, not
weakened away:

* criterion 2: the published 50-digit strings for c3 and d3 are
  internally inconsistent with their own defining sums (they equal
  c1*(1-2*c0) and d1*(1-2*d0), dropping the (2k-1) weight); exact
  finite-n variances confirm the computed values.
"""

from treeprotect.acceptance import run_criterion


def test_criterion_1_oracle_equivalence():
    result = run_criterion(1)
    assert result.elapsed_s < 60.0
    assert result.passed, result.detail


def test_criterion_2_published_constants():
    result = run_criterion(2)
    assert result.elapsed_s < 10.0
    assert result.passed, result.detail


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
