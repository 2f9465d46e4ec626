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


# The seeded Monte Carlo criteria must reproduce their frozen draws: hits
# 37388 and 52311 out of 100000 samples.
FROZEN_ESTIMATES = {5: "estimate 0.37388", 6: "estimate 0.52311"}


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = run_criterion(index)
    print(result.line)
    assert result.ok, result.line
    assert FROZEN_ESTIMATES.get(index, "") in result.line
