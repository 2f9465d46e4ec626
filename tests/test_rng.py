"""The seeded draw protocol and the exact-rational wire format."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats.rng import (
    bernoulli,
    new_generator,
    rademacher,
    rand_below,
    sample_ordered,
)
from edgestats.serialize import format_rational, parse_rational


class BitsOnly:
    """A generator exposing nothing but getrandbits, to pin the protocol."""

    def __init__(self, seed):
        self._inner = new_generator(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return self._inner.getrandbits(k)


def test_every_primitive_needs_only_getrandbits():
    rng = BitsOnly(5)
    rand_below(rng, 10)
    sample_ordered(rng, 9, 4)
    bernoulli(rng, Fraction(2, 7))
    rademacher(rng)
    assert rng.calls >= 4


def test_streams_are_seed_deterministic():
    a = [rand_below(new_generator(11), 100) for _ in range(3)]
    b = [rand_below(new_generator(11), 100) for _ in range(3)]
    assert a == b
    assert sample_ordered(new_generator(7), 50, 10) == sample_ordered(
        new_generator(7), 50, 10
    )


def test_new_generator_rejects_non_integers():
    with pytest.raises(ValueError):
        new_generator("eleven")


def test_rand_below_stays_in_range():
    rng = new_generator(0)
    for n in (1, 2, 3, 7, 100):
        for _ in range(200):
            assert 0 <= rand_below(rng, n) < n
    with pytest.raises(ValueError):
        rand_below(rng, 0)


def test_rand_below_is_unbiased_on_a_tiny_range():
    """Rejection sampling on [0,3): all residues appear at the exact 1/3
    rate in expectation; check a loose empirical band."""
    rng = new_generator(123)
    counts = [0, 0, 0]
    for _ in range(9000):
        counts[rand_below(rng, 3)] += 1
    assert all(2700 <= c <= 3300 for c in counts), counts


def test_sample_ordered_properties():
    rng = new_generator(13)
    for _ in range(50):
        got = sample_ordered(rng, 12, 5)
        assert len(got) == len(set(got)) == 5
        assert all(1 <= v <= 12 for v in got)
    assert sample_ordered(rng, 6, 6) and sorted(sample_ordered(rng, 6, 6)) == list(
        range(1, 7)
    )
    assert sample_ordered(rng, 4, 0) == []
    with pytest.raises(ValueError):
        sample_ordered(rng, 3, 4)


def dense_sample_ordered(rng, n, k):
    """The reference draw: partial Fisher-Yates on a materialised pool."""
    pool = list(range(1, n + 1))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@pytest.mark.parametrize(
    "n, k", [(1, 0), (1, 1), (5, 5), (12, 4), (24, 22), (120, 40), (400, 8), (2000, 20)]
)
def test_sparse_sampler_matches_the_dense_pool(n, k):
    """Same list and same generator state afterwards, draw after draw."""
    for seed in range(20):
        sparse, dense = new_generator(seed), new_generator(seed)
        for _ in range(3):
            assert sample_ordered(sparse, n, k) == dense_sample_ordered(dense, n, k)
            assert sparse.getstate() == dense.getstate()


@pytest.mark.parametrize("n, k", [(0, -1), (3, -1), (0, 1), (3, 4)])
def test_sample_ordered_refuses_impossible_sizes(n, k):
    rng = new_generator(0)
    state = rng.getstate()
    message = f"cannot sample {k} distinct vertices from [1..{n}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_ordered(rng, n, k)
    assert rng.getstate() == state


def test_bernoulli_degenerate_rates():
    rng = new_generator(2)
    assert not any(bernoulli(rng, 0) for _ in range(50))
    assert all(bernoulli(rng, 1) for _ in range(50))
    with pytest.raises(ValueError):
        bernoulli(rng, Fraction(3, 2))


def _fraction_bernoulli(rng, p):
    """The earlier body of bernoulli, kept as the oracle of its draws."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    if p == 0:
        return False
    return rand_below(rng, p.denominator) < p.numerator


@pytest.mark.parametrize(
    "p",
    [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), 0, 1, "0", "1", "1/3", "2/7"],
    ids=repr,
)
def test_bernoulli_draws_as_the_fraction_comparisons_did(p):
    rng, oracle = new_generator(11), new_generator(11)
    assert [bernoulli(rng, p) for _ in range(400)] == [_fraction_bernoulli(oracle, p) for _ in range(400)]
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(-1, 3), -1, 2, "4/3"])
def test_bernoulli_refuses_a_rate_outside_the_unit_interval_as_before(p):
    for draw in (bernoulli, _fraction_bernoulli):
        with pytest.raises(ValueError, match="must lie in"):
            draw(new_generator(0), p)


def test_bernoulli_tracks_its_rate():
    rng = new_generator(3)
    hits = sum(bernoulli(rng, Fraction(1, 4)) for _ in range(8000))
    assert 1700 <= hits <= 2300, hits


def test_rademacher_values():
    rng = new_generator(4)
    draws = {rademacher(rng) for _ in range(100)}
    assert draws == {-1, 1}


# ---------------------------------------------------------------------------
# wire format


def test_rational_round_trip_spots():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(5) == "5/1"
    assert parse_rational("39/280") == Fraction(39, 280)
    assert parse_rational("4") == 4


@given(st.fractions(max_denominator=10**6))
@settings(max_examples=100, deadline=None)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_rational_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)
