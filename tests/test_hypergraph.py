"""Core hypergraph behaviour: validation, induced counts, matchings, the
two named constructions, and the .hg text format."""

import dataclasses
import inspect
import itertools
import re
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats import hypergraph
from edgestats.hypergraph import (
    Hypergraph,
    _coin_edges,
    _edge_counter,
    _side_runs,
    _tail_index,
    construct_lift,
    construct_split,
    format_hg,
    from_edges,
    induced_edge_count,
    lex_min_maximum_matching,
    lift_supersets,
    lift_target_level,
    matching_number,
    parse_hg,
    random_hypergraph,
    split_target_level,
)
from edgestats.rng import bernoulli, new_generator, rand_below, sample_ordered


def k4():
    return from_edges(4, 2, itertools.combinations(range(1, 5), 2))


def c5():
    return from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


# ---------------------------------------------------------------------------
# construction and validation


def test_from_edges_triangle():
    g = from_edges(3, 2, [[1, 2], [2, 3], [1, 3]])
    assert g.edge_count == 3
    assert g.edges == ((1, 2), (1, 3), (2, 3))


def test_from_edges_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        from_edges(4, 2, [[1, 2], [2, 1]])


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError):
        from_edges(4, 2, [[1, 5]])  # vertex out of range
    with pytest.raises(ValueError):
        from_edges(4, 2, [[1, 2, 3]])  # wrong arity
    with pytest.raises(ValueError):
        from_edges(4, 2, [[1, 1]])  # repeated vertex


def test_three_uniform_construction():
    g = from_edges(5, 3, [[1, 2, 3], [1, 4, 5], [3, 4, 5]])
    assert g.edge_count == 3


# ---------------------------------------------------------------------------
# induced counts


def test_induced_count_k4():
    assert induced_edge_count(k4(), {1, 2, 3}) == 3


def test_induced_count_c5():
    assert induced_edge_count(c5(), {1, 2, 4}) == 1


def test_induced_count_empty_graph():
    g = from_edges(6, 2, [])
    assert induced_edge_count(g, {1, 2, 3, 4}) == 0


def test_induced_count_rejects_foreign_vertices():
    with pytest.raises(ValueError, match=re.escape("subset (1, 9) leaves the vertex range [1..4]")):
        induced_edge_count(k4(), {1, 9})


def test_induced_count_small_subset_is_zero():
    assert induced_edge_count(k4(), {3}) == 0


@given(st.integers(0, 2**30), st.integers(4, 9))
@settings(max_examples=40, deadline=None)
def test_induced_count_in_range_and_strategy_consistent(seed, n):
    """Both counting strategies agree, and the count obeys 0 <= e <= C(|U|,r)."""
    rng = new_generator(seed)
    r = 2 + rand_below(rng, 2)
    g = random_hypergraph(n, r, Fraction(1, 2), rng)
    subset = [v for v in range(1, n + 1) if rand_below(rng, 2)]
    direct = sum(1 for e in g.edges if set(e) <= set(subset))
    got = induced_edge_count(g, subset)
    assert got == direct
    assert 0 <= got <= len(list(itertools.combinations(subset, r)))


# ---------------------------------------------------------------------------
# matchings


def brute_matching(edges):
    """Independent oracle: the lexicographically least among the largest
    pairwise-disjoint subsets of the (sorted, deduplicated) edges."""
    edges = sorted({tuple(sorted(e)) for e in edges})
    for size in range(len(edges), -1, -1):
        for chosen in itertools.combinations(edges, size):
            covered = [v for e in chosen for v in e]
            if len(set(covered)) == len(covered):
                return chosen


def test_matching_triangle():
    assert matching_number(from_edges(3, 2, [[1, 2], [2, 3], [1, 3]])) == 1


def test_matching_path():
    assert matching_number(from_edges(4, 2, [[1, 2], [2, 3], [3, 4]])) == 2


def test_matching_three_uniform():
    assert matching_number(from_edges(6, 3, [[1, 2, 3], [4, 5, 6], [3, 4, 5]])) == 2


def test_matching_mixed_uniformity():
    assert matching_number([(1,), (1, 2), (3, 4, 5)]) == 2


def test_matching_rejects_empty_edge():
    with pytest.raises(ValueError):
        matching_number([(1, 2), ()])


@given(st.integers(0, 2**30), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matching_against_brute_force(seed, mixed):
    rng = new_generator(seed)
    n = 5 + rand_below(rng, 4)
    if mixed:
        g = edges = [
            sample_ordered(rng, n, 1 + rand_below(rng, 3)) for _ in range(rand_below(rng, 16))
        ]
    else:
        r = 2 + rand_below(rng, 2)
        g = random_hypergraph(n, r, Fraction(1, 4), rng)
        if g.edge_count > 15:
            g = from_edges(n, r, g.edges[:15])
        edges = g.edges
    expected = brute_matching(edges)
    assert matching_number(g) == len(expected)
    assert lex_min_maximum_matching(g) == expected


def test_matching_search_depth_is_not_bounded_by_the_recursion_limit():
    leaves = sys.getrecursionlimit() + 10
    star = from_edges(leaves + 1, 2, [(1, v) for v in range(2, leaves + 2)])
    assert matching_number(star) == 1
    assert lex_min_maximum_matching(star) == ((1, 2),)


def test_lex_min_maximum_matching_is_maximum_and_least():
    g = from_edges(6, 2, [[1, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 6]])
    m = lex_min_maximum_matching(g)
    assert len(m) == matching_number(g)
    assert m == ((1, 2), (4, 5))


def test_lex_min_matching_prefers_early_edges_even_when_forced_elsewhere():
    # Taking (1,2) first would cap the matching at 1; the lex-min *maximum*
    # matching must skip it.
    g = from_edges(4, 2, [[1, 2], [1, 3], [2, 4]])
    assert lex_min_maximum_matching(g) == ((1, 3), (2, 4))


# ---------------------------------------------------------------------------
# constructions


def test_lift_star_from_single_base_vertex():
    # A base marking exactly vertex 1, lifted to r=2, is the star at 1.
    base = from_edges(6, 1, [[1]])
    g = lift_supersets(base, 2)
    assert g.edges == tuple((1, v) for v in range(2, 7))
    assert lift_target_level(3, 1, 2) == 2


def test_lift_of_empty_base_is_empty():
    assert lift_supersets(from_edges(6, 1, []), 3).edge_count == 0


def test_lift_s_equals_r_is_identity():
    base = from_edges(6, 2, [[1, 2], [3, 4]])
    assert lift_supersets(base, 2).edges == base.edges
    assert lift_target_level(5, 2, 2) == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: construct_lift(5000, 10, 2, 3, 0), "C(5000,2) base draws = 12497500"),
        (
            lambda: lift_supersets(from_edges(10**4, 1, [[1], [2]]), 3),
            "2 base edges times C(9999,2) supersets = 99970002",
        ),
    ],
)
def test_lift_refuses_past_the_construction_cap_before_building(build, message):
    with pytest.raises(ValueError, match=re.escape(f"{message} exceeds the cap of 10000000")):
        build()


def test_lift_monotone_in_base():
    """Adding a base edge never removes a lifted edge."""
    rng = new_generator(404)
    for _ in range(20):
        n = 5 + rand_below(rng, 3)
        base = random_hypergraph(n, 1, Fraction(1, 3), rng)
        small = lift_supersets(base, 3)
        extra = 1 + rand_below(rng, n)
        if (extra,) in base.edge_set:
            continue
        bigger = from_edges(n, 1, base.edges + ((extra,),))
        big = lift_supersets(bigger, 3)
        assert set(small.edges) <= set(big.edges)


def test_construct_lift_seeded_determinism():
    a = construct_lift(40, 10, 1, 2, seed=12)
    b = construct_lift(40, 10, 1, 2, seed=12)
    assert a == b
    assert a.level == lift_target_level(10, 1, 2) == 9


def test_construct_split_k22():
    g = construct_split(4, {1, 2}, 2)
    assert g.edges == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_construct_split_single_vertex_side():
    g = construct_split(5, {1}, 3)
    assert g.edge_count == 6
    assert all(e[0] == 1 for e in g.edges)


def test_split_edges_meet_side_exactly_once():
    side = {2, 3, 7}
    g = construct_split(8, side, 3)
    for e in g.edges:
        assert len(set(e) & side) == 1
    # and exhaustively: every r-set meeting the side exactly once is present
    expected = sum(
        1
        for w in itertools.combinations(range(1, 9), 3)
        if len(set(w) & side) == 1
    )
    assert g.edge_count == expected


def split_oracle(n, side, r):
    """The split graph's edges as a comprehension over the side vertices
    and the (r-1)-sets of the rest, sorted: the reference for the
    construction, which builds them from its side and edge type instead."""
    rest = [v for v in range(1, n + 1) if v not in set(side)]
    return sorted(tuple(sorted((v,) + t)) for v in set(side) for t in itertools.combinations(rest, r - 1))


def assert_split_matches_oracle(n, side, r):
    oracle = split_oracle(n, side, r)
    reference = from_edges(n, r, oracle)
    g = construct_split(n, side, r)
    assert g.edge_count == len(oracle)
    index, make, size = _tail_index(g)
    assert (index, make, size) == _tail_index(reference)
    assert list(index) == sorted(index)
    assert g.edges == tuple(oracle)
    assert g == reference and hash(g) == hash(reference)


@pytest.mark.parametrize(
    "n, side, r",
    [
        (6, [2, 5], 1),
        (9, [1, 4, 9], 2),
        (8, [], 3),
        (7, range(1, 8), 1),
        (7, range(1, 8), 2),
        (7, range(1, 8), 3),
        (9, [9], 4),
        (9, [1], 4),
        (12, [2, 3, 5, 11], 3),
        (8, [4], 8),
        (40, range(1, 11), 3),
    ],
)
def test_split_graph_is_born_from_the_index_its_edges_give(n, side, r):
    """The edges built from the side and edge type are the oracle's, in
    order, and so is the tail index built from them."""
    assert_split_matches_oracle(n, side, r)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_split_graph_matches_the_oracle_on_random_shapes(seed):
    rng = new_generator(seed)
    n = 1 + rand_below(rng, 12)
    r = 1 + rand_below(rng, n)
    side = [v for v in range(1, n + 1) if rand_below(rng, 3) == 0]
    assert_split_matches_oracle(n, side, r)


def test_a_split_graph_builds_its_edges_only_when_read(monkeypatch):
    """The construction stores the side and its one edge type: the edge
    count is their closed form, and the edges are built on first read,
    once.  None of it reads the edge set or builds a tail index."""

    def refuse(*args):
        raise AssertionError("the edge set or tail index was built")

    monkeypatch.setattr(Hypergraph, "edge_set", property(refuse))
    monkeypatch.setattr(hypergraph, "_tail_index", refuse)
    g = construct_split(30, range(1, 6), 3)
    assert g.edge_count == 5 * 300
    assert g._edges is None
    assert g.edges is g.edges
    assert len(g.edges) == g.edge_count
    assert repr(g) == "Hypergraph(n=30, r=3)"


def test_a_graph_holds_its_description_and_no_index():
    """A graph's fields are its shape and its edges or (side, types): no
    index is cached on it, so each counter builds its own, from a graph
    alone and a sample size."""
    assert [f.name for f in dataclasses.fields(Hypergraph)] == ["n", "r", "_edges", "_side", "_types"]
    assert list(inspect.signature(_edge_counter).parameters) == ["graph", "size"]


@pytest.mark.parametrize("side, r, edges", [([], 2, ()), ([1, 5], 1, ((1,), (5,)))])
def test_a_split_graph_on_a_huge_ground_set_never_lists_the_rest(side, r, edges):
    """With an empty side, or at r = 1, no edge holds a vertex outside the
    side, so building the edges lists none of the 10^12 others."""
    tracemalloc.start()
    try:
        assert construct_split(10**12, side, r).edges == edges
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_split(60, [1], 3),
        lambda: construct_split(12, [2, 3, 5, 11], 3),
        lambda: construct_split(9, [9], 4),
        lambda: construct_lift(9, 4, 1, 3, 2).graph,
    ],
)
def test_every_listed_prefix_of_a_constructed_graph_takes_a_tail(build):
    """Edge building is output-sensitive: the prefixes listed are exactly
    those of the edges.  On a split with the one side vertex 1, that is the
    58 prefixes through vertex 1, not the C(59, 2) pairs of the rest."""
    g = build()
    runs = list(_side_runs(g.n, g.r, g._side, g._types))
    assert all(tails for _, tails in runs)
    assert [p for p, _ in runs] == sorted({e[:-1] for e in g.edges})


def test_split_graph_past_the_tail_budget_keeps_its_edges_and_no_index():
    """Each of the 4,999 prefixes (v,) would need a 5000-bit mask for the
    tail 5000: past the budget, so no mask is made and the tail index
    holds frozensets.  The construction itself builds nothing, and its
    counts need neither."""
    n = 5000
    tracemalloc.start()
    try:
        g = construct_split(n, [n], 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n // 8 // 2  # half of the masks' n^2 bits
    index, make, size = _tail_index(g)
    assert (make, size) == (frozenset, len)
    assert index == {(v,): frozenset([n]) for v in range(1, n)}
    assert g.edges == tuple((v, n) for v in range(1, n))
    assert g == from_edges(n, 2, split_oracle(n, [n], 2))
    assert induced_edge_count(g, [1, 2, 3, n - 1, n]) == 4
    assert _edge_counter(g, 5)([n, 3, 1, n - 1, 2]) == 4


@pytest.mark.parametrize("side, r", [((), 0), ((), -3), ((1, 2), 0), ((1,), -1)])
def test_construct_split_rejects_a_nonpositive_uniformity(side, r):
    with pytest.raises(ValueError, match=f"uniformity must be a positive integer, got {r}"):
        construct_split(5, side, r)


def test_split_target_level_values():
    assert split_target_level(8, 2, 2) == 2 * 6
    assert split_target_level(8, 2, 3) == 30


# ---------------------------------------------------------------------------
# .hg format


def test_parse_format_round_trip():
    g = c5()
    assert parse_hg(format_hg(g)) == g


def test_parse_comments_and_blank_lines():
    g = parse_hg("5 3\n# a comment\n\n1 2 3\n")
    assert g.edges == ((1, 2, 3),)


def test_parse_duplicate_edge_names_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_hg("4 2\n1 2\n1 2\n")


def test_parse_bad_header_names_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_hg("nonsense\n1 2\n")


def test_random_hypergraph_probability_extremes():
    assert random_hypergraph(6, 2, 0, seed_or_rng=5).edge_count == 0
    assert random_hypergraph(6, 2, 1, seed_or_rng=5).edge_count == 15


@pytest.mark.parametrize(
    "p",
    [
        Fraction(0),
        Fraction(1, 7),
        Fraction(3, 8),
        Fraction(1),
        Fraction(1, comb(20, 1)),
        Fraction(1, comb(8, 2)),
    ],
    ids=str,
)
@pytest.mark.parametrize("n, r", [(16, 2), (9, 3), (7, 1), (2, 3)])
def test_coin_edges_draw_as_one_bernoulli_per_r_set(n, r, p):
    """The inline coin keeps the r-sets that bernoulli keeps, one call per
    r-set in lexicographic order, and leaves the generator where those
    calls leave it: p = 0 draws nothing, and p = 1 draws until a 0 bit.
    The last two rates are the lift's 1/C(k, s) at (k, s) = (20, 1) and
    (8, 2)."""
    rng, oracle = new_generator(23), new_generator(23)
    got = list(_coin_edges(n, r, p, rng))
    want = [w for w in itertools.combinations(range(1, n + 1), r) if bernoulli(oracle, p)]
    assert got == want
    assert rng.getstate() == oracle.getstate()
    assert random_hypergraph(n, r, p, 23).edges == tuple(want)


@pytest.mark.parametrize("n, r, p", [(2, 3, Fraction(3, 2)), (0, 1, 7), (4, 3, Fraction(3, 2)), (5, 2, -1)])
def test_random_hypergraph_refuses_a_rate_outside_the_unit_interval_before_drawing(n, r, p):
    """Also where no r-set would be drawn (r > n, or n = 0); the generator
    is left untouched."""
    rng = new_generator(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=re.escape(f"Bernoulli parameter must lie in [0, 1], got {p}")):
        random_hypergraph(n, r, p, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "n, r, message",
    [
        (-2, 2, "vertex count must be nonnegative, got -2"),
        (4, 0, "uniformity must be a positive integer, got 0"),
        (4, -1, "uniformity must be a positive integer, got -1"),
    ],
)
def test_generators_refuse_the_shapes_from_edges_refuses(n, r, message):
    for build in (
        lambda: random_hypergraph(n, r, 1, 0),
        lambda: construct_split(n, [], r),
        lambda: from_edges(n, r, []),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_complement_partitions_r_sets():
    g = c5()
    comp = g.complement()
    assert g.edge_count + comp.edge_count == 10
    assert not set(g.edges) & set(comp.edges)
