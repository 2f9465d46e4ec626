"""Acceptance gate: one test per published criterion.

Each test runs the corresponding battery from
:mod:`edgestats.acceptance`, prints its single PASS/FAIL line, and fails
with that line on any violation.  ``edgestats suite acceptance`` exposes
the same batteries on the command line.
"""

from fractions import Fraction
from math import comb, sqrt

import pytest

from edgestats.acceptance import CRITERIA, run_criterion
from edgestats.hypergraph import construct_lift, construct_split
from edgestats.profiles import exact_profile


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


@pytest.mark.parametrize(
    "build, k, level, exact, hits",
    [
        # criterion 5: the lift's 84 base vertices D; level 19 at k = 20 is
        # |U cap D| = 1, as C(20, 2) - C(19, 2) = 19.
        (
            lambda: construct_lift(2000, 20, 1, 2, seed=55).graph,
            20,
            19,
            Fraction(84 * comb(1916, 19), comb(2000, 20)),
            37388,
        ),
        # criterion 6: level 30 at k = 8 is |U cap D| = 2 or 3, as
        # j C(8 - j, 2) = 30 at both.
        (
            lambda: construct_split(400, range(1, 101), 3),
            8,
            30,
            Fraction(comb(100, 2) * comb(300, 6) + comb(100, 3) * comb(300, 5), comb(400, 8)),
            52311,
        ),
    ],
    ids=["criterion-5", "criterion-6"],
)
def test_the_monte_carlo_criteria_hit_near_their_exact_values(build, k, level, exact, hits):
    """The exact point probability of criteria 5 and 6, from the side's
    closed-form profile over all C(n, k) subsets with no edge built, and
    the frozen hits out of 100,000 samples lie within 5 standard errors of
    it (about 0.0006 and -0.34 of one)."""
    graph = build()
    profile = exact_profile(graph, k, max_subsets=comb(graph.n, k))
    assert graph._edges is None
    assert profile.total == comb(graph.n, k)
    assert Fraction(profile.counts[level], profile.total) == exact
    p = float(exact)
    assert abs(hits / 100000 - p) <= 5 * sqrt(p * (1 - p) / 100000)
