"""Signed pair-sequence discrepancy: brute-force agreement, complement
invariance, per-sequence bounds, and two seeded empirical studies of the
quantities involved."""

import itertools
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats import discrepancy
from edgestats.discrepancy import signed_discrepancy
from edgestats.hypergraph import Hypergraph, from_edges, random_hypergraph
from edgestats.rng import new_generator, rand_below, sample_ordered


def brute_weights(graph, s):
    """Independent oracle: scan every r-subset for every ordered tuple,
    yielding (tuple, weight) in enumeration order."""
    n, r = graph.n, graph.r
    members = graph.edge_set
    for seq in itertools.permutations(range(1, n + 1), 2 * s):
        signed = 0
        for w in itertools.combinations(range(1, n + 1), r):
            if w not in members:
                continue
            sign = 1
            ok = True
            for i in range(s):
                minus, plus = seq[2 * i], seq[2 * i + 1]
                hits = (minus in w) + (plus in w)
                if hits != 1:
                    ok = False
                    break
                if minus in w:
                    sign = -sign
            if ok:
                signed += sign
        yield seq, abs(signed)


# ---------------------------------------------------------------------------
# exact agreement and invariances


def test_single_edge_graph():
    g = from_edges(4, 2, [(1, 2)])
    report = signed_discrepancy(g, 1)
    assert report.total == 8
    assert report.max_weight == 1
    assert report.sequences_checked == 12


def test_complete_and_empty_graphs_have_zero_discrepancy():
    for n in range(3, 7):
        for r in (2, 3):
            if r > n:
                continue
            full = from_edges(n, r, itertools.combinations(range(1, n + 1), r))
            empty = from_edges(n, r, [])
            for s in range(1, r + 1):
                if 2 * s > n:
                    continue
                assert signed_discrepancy(full, s).total == 0
                assert signed_discrepancy(empty, s).total == 0


@pytest.mark.parametrize("n, r, s", [(4, 2, 1), (5, 3, 2), (5, 7, 2), (6, 3, 3)])
def test_an_edgeless_graph_lists_every_sequence_with_weight_zero(n, r, s):
    report = signed_discrepancy(from_edges(n, r, []), s, collect_weights=True)
    assert (report.total, report.max_weight) == (0, 0)
    assert report.sequences_checked == perm(n, 2 * s)
    assert report.per_sequence_bound == 2**s * n ** (r - s)
    assert [(w.sequence, w.weight) for w in report.weights] == list(brute_weights(from_edges(n, r, []), s))


def test_an_edgeless_graph_skips_the_prefix_walk():
    """r - s > n leaves no compatible r-set, so the term cap passes; the
    40!/22! prefixes are not walked."""
    report = signed_discrepancy(from_edges(40, 60, []), 10)
    assert (report.total, report.max_weight) == (0, 0)
    assert report.sequences_checked == perm(40, 20)


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_matches_brute_force(seed):
    rng = new_generator(seed)
    n = 4 + rand_below(rng, 3)
    r = 1 + rand_below(rng, 4)
    s = 1 + rand_below(rng, min(r, n // 2))
    p = Fraction(rand_below(rng, 5), 4)
    g = random_hypergraph(n, r, p, rng)
    report = signed_discrepancy(g, s, collect_weights=True)
    expected = list(brute_weights(g, s))
    assert report.total == sum(w for _, w in expected)
    assert report.max_weight == max(w for _, w in expected)
    assert [(w.sequence, w.weight) for w in report.weights] == expected


def test_dense_graphs_are_weighed_without_their_complement(monkeypatch):
    g = random_hypergraph(7, 3, Fraction(7, 8), 5)
    assert g.edge_count > comb(7, 3) // 2
    expected = list(brute_weights(g, 2))

    def refuse(*args):
        raise AssertionError("the complement or the edge set was built")

    monkeypatch.setattr(Hypergraph, "complement", refuse)
    monkeypatch.setattr(Hypergraph, "edge_set", property(refuse))
    report = signed_discrepancy(g, 2, collect_weights=True)
    assert [(w.sequence, w.weight) for w in report.weights] == expected


@given(st.integers(0, 2**30))
@settings(max_examples=20, deadline=None)
def test_complement_has_identical_weights(seed):
    rng = new_generator(seed)
    n = 5 + rand_below(rng, 3)
    g = random_hypergraph(n, 2, Fraction(1, 3), rng)
    for s in (1, 2):
        a = signed_discrepancy(g, s, collect_weights=True)
        b = signed_discrepancy(g.complement(), s, collect_weights=True)
        assert a.total == b.total
        assert a.weights == b.weights


def test_per_sequence_bound_and_normalization():
    g = random_hypergraph(8, 3, Fraction(1, 2), 31)
    report = signed_discrepancy(g, 2)
    assert report.per_sequence_bound == 4 * 8
    assert report.max_weight <= report.per_sequence_bound
    assert report.normalized == Fraction(report.total, 8**5)


def test_heaviest_requires_collection_and_sorts():
    g = from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    plain = signed_discrepancy(g, 1)
    with pytest.raises(ValueError, match="collect_weights"):
        plain.heaviest()
    rich = signed_discrepancy(g, 1, collect_weights=True)
    top = rich.heaviest(5)
    weights = [w.weight for w in top]
    assert weights == sorted(weights, reverse=True)
    # ties break toward lexicographically least sequences
    equal = [w.sequence for w in top if w.weight == weights[0]]
    assert equal == sorted(equal)


def test_argument_validation_and_term_cap():
    g = from_edges(6, 2, [(1, 2)])
    with pytest.raises(ValueError, match="1 <= s <= r"):
        signed_discrepancy(g, 0)
    with pytest.raises(ValueError, match="2s <= n"):
        signed_discrepancy(from_edges(3, 3, []), 2)
    with pytest.raises(ValueError, match="cap"):
        signed_discrepancy(g, 2, term_cap=10)


def test_collecting_weights_is_capped_before_enumeration(monkeypatch):
    wide = from_edges(100, 2, [(1, 2)])
    message = "stored sequence weights = 94109400 exceeds the cap of 10000000"
    with pytest.raises(ValueError, match=message):
        signed_discrepancy(wide, 2, collect_weights=True)
    g = from_edges(6, 2, [(1, 2)])
    monkeypatch.setattr(discrepancy, "MAX_STORED_WEIGHTS", perm(6, 4) - 1)
    assert signed_discrepancy(g, 2).weights is None
    with pytest.raises(ValueError, match="cap"):
        signed_discrepancy(g, 2, collect_weights=True)
    monkeypatch.setattr(discrepancy, "MAX_STORED_WEIGHTS", perm(6, 4))
    assert len(signed_discrepancy(g, 2, collect_weights=True).weights) == perm(6, 4)


# ---------------------------------------------------------------------------
# seeded empirical studies


def test_middling_density_graphs_show_positive_normalized_discrepancy():
    """Graphs with an edge count well away from 0 and C(n,2) always leave
    a positive discrepancy trace at some pair count s <= r."""
    worst = None
    rng = new_generator(42)
    for n in (8, 10, 12):
        lo, hi = comb(n, 2) // 4, 3 * comb(n, 2) // 4
        produced = 0
        while produced < 3:
            g = random_hypergraph(n, 2, Fraction(1, 2), rng)
            if not lo <= g.edge_count <= hi:
                continue
            produced += 1
            best = max(
                signed_discrepancy(g, s).normalized for s in (1, 2)
            )
            worst = best if worst is None else min(worst, best)
    assert worst is not None and worst > 0


def test_disjoint_tuple_samples_hit_a_majority_family_often_enough():
    """Chopping one ordered draw into 50 disjoint f-tuples: the number
    whose first vertex lands in a 51/100 majority set concentrates well
    above half its mean (failures are N <= 12 out of an expected 25.5)."""
    H = set(range(1, 52))
    for f in (1, 2):
        failures = 0
        for seed in range(500):
            rng = new_generator(seed)
            flat = sample_ordered(rng, 100, 50 * f)
            hits = sum(1 for j in range(50) if flat[f * j] in H)
            if hits < 13:
                failures += 1
        assert failures <= 100, (f, failures)
