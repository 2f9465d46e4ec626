"""Acceptance gate: one test per published criterion.

Each test runs the corresponding battery from
:mod:`edgestats.acceptance`, prints its single PASS/FAIL line, and fails
with that line on any violation.  ``edgestats suite acceptance`` exposes
the same batteries on the command line.
"""

import pytest

from edgestats.acceptance import CRITERIA, run_criterion


def test_the_gate_covers_every_criterion():
    assert sorted(CRITERIA) == list(range(1, 12))


# Each criterion's whole line, as ``edgestats suite acceptance`` prints it
# (stdout sha256 3d6f52dd...): its seeded counts and spot values are
# frozen, and the Monte Carlo criteria reproduce their draws, hits 37388
# and 52311 out of 100000 samples.
FROZEN_LINES = {
    1: "[ 1] PASS  coupling identity: 200 instances, 1252 sign vectors, max |discrepancy| = 0",
    2: "[ 2] PASS  hypergeometric vs binomial TV sweep: 3089 applicable triples, 0 violations;"
    " spot tv(8,4,4) = 39/280",
    3: "[ 3] PASS  Poisson-type interval bound battery: 1000 checks (500 polynomials x 2 input"
    " rates), 0 violations",
    4: "[ 4] PASS  slice covariance signs: 498 disjoint covariances nonpositive, coordinate-sum"
    " variance 0; 0 failures",
    5: "[ 5] PASS  lift construction point probability: level 19, estimate 0.37388, limit"
    " 0.37735, |gap| = 0.00347, above 1/e: True",
    6: "[ 6] PASS  split construction point probability: level 30 attained at overlaps [2, 3],"
    " estimate 0.52311, limit 0.51910 = 8505/16384, |gap| = 0.00401",
    7: "[ 7] PASS  coordinate-sum extremal point mass: m = 1..20 exact central binomial ratios;"
    " failures: []",
    8: "[ 8] PASS  greedy cover soundness battery: 300 instances, 0 failures, largest pivot 7",
    9: "[ 9] PASS  discrepancy vanishing and spot totals: 64952 sequences enumerated under the"
    " per-sequence bound; failures: []",
    10: "[10] PASS  junta TV bound sweep: 9550 tables across n <= 16, k <= n/2, s <= 3;"
    " 0 violations",
    11: "[11] PASS  sign-expansion coefficient size bounds: 1252 coefficients against"
    " q 2^|I| n^(d-|I|); 0 violations",
}


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = run_criterion(index)
    print(result.line)
    assert result.ok, result.line
    assert result.line == FROZEN_LINES[index]
