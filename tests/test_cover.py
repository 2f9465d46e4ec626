"""Greedy pivot covers: residue families, relevant traces, the repair
loop's certificates, and exhaustive verification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats.cover import (
    CoverCertificate,
    CoverVerification,
    _minimal_traces,
    default_step_cap,
    greedy_cover,
    verify_cover,
)
from edgestats.hypergraph import _trace_groups, from_edges, matching_number, random_hypergraph
from edgestats.rng import new_generator, rand_below, sample_ordered


def tent():
    """Three 3-edges sharing vertices: {1,2,3}, {1,4,5}, {3,4,5}."""
    return from_edges(5, 3, [(1, 2, 3), (1, 4, 5), (3, 4, 5)])


# ---------------------------------------------------------------------------
# residue families and relevance


def _relevant_by_definition(graph, pivot):
    """The residue family of every trace S inside the pivot, from the
    edges whose exact pivot intersection is S, and the relevant traces
    (nonempty family, empty families at every proper subtrace) sorted by
    (size, lexicographic)."""
    subsets = [s for size in range(len(pivot) + 1) for s in itertools.combinations(pivot, size)]
    families = {
        s: frozenset(frozenset(e) - set(s) for e in graph.edges if set(e) & set(pivot) == set(s))
        for s in subsets
    }
    relevant = [
        s
        for s in subsets
        if families[s] and not any(families[t] for t in subsets if set(t) < set(s))
    ]
    return families, sorted(relevant, key=lambda t: (len(t), t))


def test_edge_residues_at_a_single_pivot_vertex():
    groups = _trace_groups(tent(), frozenset({1}))
    assert groups == {(1,): {frozenset({2, 3}), frozenset({4, 5})}, (): {frozenset({3, 4, 5})}}


def test_edge_residues_empty_residue_marks_an_edge_inside_the_pivot():
    g = from_edges(4, 2, [(1, 2), (3, 4)])
    assert frozenset() in _trace_groups(g, frozenset({1, 2}))[(1, 2)]


def test_relevant_sets_prefer_smaller_traces():
    g = tent()
    # With pivot {1}, the empty trace already has a nonempty family, so
    # {1} is not relevant.
    assert _minimal_traces(_trace_groups(g, frozenset({1}))) == [()]
    # With pivot {1,3} no edge misses the pivot; {1} and {3} are the
    # minimal candidates and {1,3} is shadowed by {1}.
    assert _minimal_traces(_trace_groups(g, frozenset({1, 3}))) == [(1,), (3,)]


def test_relevant_sets_empty_graph():
    assert _minimal_traces(_trace_groups(from_edges(4, 2, []), frozenset({1, 2}))) == []


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_relevant_sets_and_edge_residues_match_their_definitions(seed):
    rng = new_generator(seed)
    n = 4 + rand_below(rng, 5)
    r = 2 + rand_below(rng, 2)
    g = random_hypergraph(n, r, Fraction(1 + rand_below(rng, 3), 6), rng)
    pivot = sorted(sample_ordered(rng, n, rand_below(rng, min(n, 6) + 1)))
    families, relevant = _relevant_by_definition(g, pivot)
    groups = _trace_groups(g, frozenset(pivot))
    assert {s: family for s, family in families.items() if family} == groups
    assert _minimal_traces(groups) == relevant


def _residual_by_scan(graph, pivot, kept):
    """The residual by its definition: drop the edges meeting pivot - kept,
    cut the rest down to their part outside kept, drop emptied edges."""
    removed = set(pivot) - set(kept)
    return frozenset(
        frozenset(e) - set(kept)
        for e in graph.edges
        if not removed & set(e) and set(e) - set(kept)
    )


def _verify_by_scan(graph, pivot, m):
    """verify_cover by its definition: the first edge missing a nonempty
    pivot, else the first subset X in (size, lex) order whose residual's
    top class has a matching below m."""
    y = sorted(set(pivot))
    if y:
        for e in graph.edges:
            if not set(e) & set(y):
                return CoverVerification(False, None, e, 0)
    checked = 0
    for size in range(len(y) + 1):
        for x in itertools.combinations(y, size):
            checked += 1
            edges = _residual_by_scan(graph, y, x)
            if edges:
                top = max(len(e) for e in edges)
                if matching_number([e for e in edges if len(e) == top]) < m:
                    return CoverVerification(False, x, None, checked)
    return CoverVerification(True, None, None, checked)


def _random_case(seed):
    rng = new_generator(seed)
    n = 1 + rand_below(rng, 9)
    r = 1 + rand_below(rng, min(n, 3))
    g = random_hypergraph(n, r, Fraction(1 + rand_below(rng, 4), 6), rng)
    pivot = set(sample_ordered(rng, n, rand_below(rng, min(n, 6) + 1)))
    # A random pivot usually misses an edge; extending it by one vertex of
    # each missed edge gives a covering pivot that the greedy loop would
    # not have chosen.
    covering = set(pivot)
    for e in g.edges:
        if covering.isdisjoint(e):
            covering.add(e[rand_below(rng, r)])
    pivots = [sorted(pivot), sorted(covering)]
    pivots += [greedy_cover(g, m).pivot for m in (1, 2, 3)]
    return g, [p for p in pivots if len(p) <= 8]


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_verify_matches_the_edge_scan(seed):
    g, pivots = _random_case(seed)
    for pivot in pivots:
        for m in (1, 2, 3):
            assert verify_cover(g, pivot, m) == _verify_by_scan(g, pivot, m)


# ---------------------------------------------------------------------------
# the greedy loop


def test_greedy_on_the_empty_graph_is_trivial():
    cert = greedy_cover(from_edges(5, 2, []), 3)
    assert cert.pivot == ()
    assert cert.steps == ()
    assert cert.terminated


def test_greedy_swallows_a_single_edge():
    cert = greedy_cover(from_edges(2, 2, [(1, 2)]), 2)
    assert cert.pivot == (1, 2)
    assert len(cert.steps) == 1
    assert cert.steps[0].trace == ()
    assert cert.steps[0].added == (1, 2)
    assert cert.terminated


def test_greedy_leaves_a_large_matching_alone():
    cert = greedy_cover(from_edges(4, 2, [(1, 2), (3, 4)]), 2)
    assert cert.pivot == ()
    assert cert.steps == ()
    assert cert.terminated


def test_greedy_validates_inputs():
    with pytest.raises(ValueError, match="positive"):
        greedy_cover(from_edges(3, 2, []), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_cover(from_edges(3, 2, []), 1, step_cap=-1)


def test_step_cap_returns_a_snapshot_instead_of_raising():
    cert = greedy_cover(from_edges(2, 2, [(1, 2)]), 2, step_cap=0)
    assert not cert.terminated
    assert cert.steps == ()
    assert cert.pivot == ()


def test_default_step_cap_value():
    assert default_step_cap(2, 2) == 10 * 4**4


def _relevant_size_vector(graph, pivot):
    counts = [0] * (graph.r + 1)
    for s in _relevant_by_definition(graph, pivot)[1]:
        counts[len(s)] += 1
    return counts


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_greedy_steps_shrink_the_relevant_profile(seed):
    """Each step adds 1..r(m-1) fresh vertices and lexicographically
    decreases the per-size census of relevant traces."""
    rng = new_generator(seed)
    n = 4 + rand_below(rng, 6)
    p = Fraction(1 + rand_below(rng, 3), 8)
    g = random_hypergraph(n, 3, p, rng)
    m = 2
    cert = greedy_cover(g, m)
    assert cert.terminated
    for step in cert.steps:
        before = set(step.pivot_before)
        assert 1 <= len(step.added) <= g.r * (m - 1)
        assert not before & set(step.added)
        vec_before = _relevant_size_vector(g, step.pivot_before)
        vec_after = _relevant_size_vector(g, sorted(before | set(step.added)))
        assert vec_after != vec_before
        first = next(
            i for i in range(len(vec_before)) if vec_after[i] != vec_before[i]
        )
        assert vec_after[first] < vec_before[first]


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_greedy_certificates_verify(seed):
    rng = new_generator(seed)
    n = 4 + rand_below(rng, 6)
    p = Fraction(1 + rand_below(rng, 3), 8)
    g = random_hypergraph(n, 3, p, rng)
    cert = greedy_cover(g, 2)
    assert cert.terminated
    check = verify_cover(g, cert.pivot, 2)
    assert check.ok, (check.failing_subset, check.failing_edge)
    assert check.checked_subsets == 2 ** len(cert.pivot)


# ---------------------------------------------------------------------------
# verification


def test_verify_accepts_a_full_edge_pivot():
    g = from_edges(2, 2, [(1, 2)])
    check = verify_cover(g, [1, 2], 1)
    assert check.ok
    assert check.checked_subsets == 4


def test_verify_rejects_the_empty_pivot_when_the_matching_is_short():
    g = from_edges(2, 2, [(1, 2)])
    check = verify_cover(g, [], 2)
    assert not check.ok
    assert check.failing_subset == ()
    assert check.failing_edge is None


def test_verify_reports_an_uncovered_edge():
    g = from_edges(4, 2, [(1, 2), (3, 4)])
    check = verify_cover(g, [1], 1)
    assert not check.ok
    assert check.failing_edge == (3, 4)


def test_verify_takes_the_top_class_from_the_smallest_traces():
    # At X = {1, 2} the trace {1} leaves residues {3,4} and {5,6} (a
    # 2-matching), while the larger trace {1, 2} leaves only {7}.
    g = from_edges(7, 3, [(1, 2, 7), (1, 3, 4), (1, 5, 6)])
    check = verify_cover(g, [1, 2], 2)
    assert check.ok
    assert check.checked_subsets == 4


def test_verify_rejects_a_pivot_outside_the_vertex_range():
    with pytest.raises(ValueError, match="vertex range"):
        verify_cover(tent(), [9], 1)


def test_verify_caps_the_pivot_size():
    g = from_edges(30, 2, [])
    with pytest.raises(ValueError, match="cap"):
        verify_cover(g, range(1, 27), 1)


def test_certificate_serialization_shape():
    cert = greedy_cover(from_edges(2, 2, [(1, 2)]), 2)
    d = cert.to_json_dict()
    assert d["pivot"] == [1, 2]
    assert d["terminated"] is True
    assert d["steps"][0]["added"] == [1, 2]
    assert isinstance(cert, CoverCertificate)
