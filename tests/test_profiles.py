"""Edge-count profiles over k-subsets, Monte Carlo point estimates, and
exact conditional-expectation tables."""

import itertools
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats import hypergraph
from edgestats.hypergraph import (
    Hypergraph,
    _edge_counter,
    construct_lift,
    construct_split,
    from_edges,
    induced_edge_count,
    lift_supersets,
    random_hypergraph,
    split_target_level,
)
from edgestats.profiles import (
    EdgeProfile,
    JuntaEntry,
    conditional_junta,
    estimate_point,
    exact_profile,
)
from edgestats.rng import new_generator, rand_below, sample_ordered


def refuse_edge_set(patch):
    """Make every read of Hypergraph.edge_set fail, through ``patch`` (a
    pytest MonkeyPatch): counting and profiling never read it."""

    def refuse(*args):
        raise AssertionError("the edge set was built")

    patch.setattr(Hypergraph, "edge_set", property(refuse))


def refuse(patch, *names):
    """Make each named function of hypergraph fail when called, through
    ``patch``: the code under test never reaches it."""
    for name in names:

        def refused(*args, name=name):
            raise AssertionError(f"{name} was called")

        patch.setattr(hypergraph, name, refused)


def record_bitsets(patch):
    """Record, through ``patch``, the make function (the kind) of every
    index hypergraph._bitsets builds for counting, after a "tail" mark for
    the tail index: no index is cached on a graph, so the calls show which
    branch ran ([] for the scan, [kind] for the positional sets, ["tail",
    kind] for the tail index).  Returns the list the kinds are appended
    to."""
    made = []
    build, tail_index = hypergraph._bitsets, hypergraph._tail_index

    def recorded(groups, edge_count):
        index = build(groups, edge_count)
        made.append(index[1])
        return index

    def recorded_tail(graph):
        made.append("tail")
        return tail_index(graph)

    patch.setattr(hypergraph, "_bitsets", recorded)
    patch.setattr(hypergraph, "_tail_index", recorded_tail)
    return made


def c5():
    return from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def k4():
    return from_edges(4, 2, itertools.combinations(range(1, 5), 2))


# ---------------------------------------------------------------------------
# exact profiles


def test_profile_c5():
    prof = exact_profile(c5(), 3)
    assert dict(prof.counts) == {1: 5, 2: 5}
    assert prof.total == 10
    assert Fraction(prof.counts[2], prof.total) == Fraction(1, 2)
    assert 7 not in prof.counts
    assert prof.mean() == Fraction(3, 2)


def test_profile_k4():
    prof = exact_profile(k4(), 3)
    assert dict(prof.counts) == {3: 4}


def test_profile_empty_graph():
    prof = exact_profile(from_edges(6, 2, []), 3)
    assert dict(prof.counts) == {0: 20}


def test_profile_extreme_k():
    g = c5()
    assert dict(exact_profile(g, 0).counts) == {0: 1}
    assert dict(exact_profile(g, 5).counts) == {5: 1}


def test_profile_rejects_oversized_enumeration():
    with pytest.raises(ValueError, match="max_subsets"):
        exact_profile(from_edges(40, 2, []), 20, max_subsets=1000)


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_profile_totals_and_support(seed):
    rng = new_generator(seed)
    n = 4 + rand_below(rng, 5)
    r = 2 + rand_below(rng, 2)
    k = r + rand_below(rng, n - r + 1)
    g = random_hypergraph(n, r, Fraction(1, 2), rng)
    prof = exact_profile(g, k)
    assert sum(prof.counts.values()) == prof.total == comb(n, k)
    assert all(0 <= level <= comb(k, r) for level in prof.counts)
    # mean has the closed form e(G) * C(n-r, k-r) / C(n, k)
    assert prof.mean() == Fraction(g.edge_count * comb(n - r, k - r), comb(n, k))


@given(st.integers(0, 2**30))
@settings(max_examples=15, deadline=None)
def test_profile_subsampling_consistency(seed):
    """Counting (k-subset, n'-superset) pairs both ways: a level-l count
    in the full graph, times C(n-k, n'-k), equals the sum of level-l
    counts over all induced n'-vertex subgraphs."""
    rng = new_generator(seed)
    n = 6 + rand_below(rng, 3)
    g = random_hypergraph(n, 2, Fraction(1, 2), rng)
    k = 2 + rand_below(rng, 2)
    n_sub = k + rand_below(rng, n - k)
    full = exact_profile(g, k)
    summed: dict[int, int] = {}
    for u in itertools.combinations(range(1, n + 1), n_sub):
        # The subgraph induced on u, its vertices relabelled 1..|u| by rank.
        rank = {v: i for i, v in enumerate(u, start=1)}
        kept = [[rank[v] for v in e] for e in g.edges if set(e) <= set(u)]
        sub = exact_profile(from_edges(n_sub, g.r, kept), k)
        for level, mult in sub.counts.items():
            summed[level] = summed.get(level, 0) + mult
    lift = comb(n - k, n_sub - k)
    assert {lvl: m * lift for lvl, m in full.counts.items()} == summed


def per_subset_profile(graph, k):
    """The oracle: every k-subset counted one by one by the definition,
    induced_edge_count, which shares no index with the walks."""
    counts = {}
    for u in itertools.combinations(range(1, graph.n + 1), k):
        c = induced_edge_count(graph, u)
        counts[c] = counts.get(c, 0) + 1
    return EdgeProfile(graph.n, k, counts, sum(counts.values()))


@given(
    st.integers(1, 4),
    st.integers(0, 6),
    st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)]),
    st.integers(0, 2**30),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_the_walk_matches_the_per_subset_loop(r, extra, p, seed):
    """Every k from 0 to n, so both the walk over U (k <= n/2) and the walk
    over its complement, on graphs with an edge through vertex n."""
    n = r + extra
    g = random_hypergraph(n, r, p, seed)
    g = from_edges(n, r, set(g.edges) | {tuple(range(n - r + 1, n + 1))})
    with pytest.MonkeyPatch.context() as patch:
        refuse_edge_set(patch)
        refuse(patch, "_tail_index")
        walked = [exact_profile(g, k) for k in range(n + 1)]
    assert walked == [per_subset_profile(g, k) for k in range(n + 1)]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_the_walk_over_frozensets_matches_the_per_subset_loop(r, seed, monkeypatch):
    """With no bit budget, the head and incidence sets are frozensets, not
    masks, and every profile is unchanged."""
    rng = new_generator(50 * r + seed)
    n = r + 3 + rand_below(rng, 4)
    g = random_hypergraph(n, r, Fraction(1 + rand_below(rng, 3), 4), rng)
    g = from_edges(n, r, set(g.edges) | {tuple(range(n - r + 1, n + 1))})
    want = [per_subset_profile(g, k) for k in range(n + 1)]
    monkeypatch.setattr(hypergraph, "_TAIL_BITS_PER_EDGE", 0)
    monkeypatch.setattr(hypergraph, "_bitmask", None)
    assert [exact_profile(g, k) for k in range(n + 1)] == want


@pytest.mark.parametrize("k, want", [(1, {0: 10**7}), (10**7 - 1, {1: 4, 2: 10**7 - 4})])
def test_a_sparse_graph_on_ten_million_vertices_profiles_at_once(k, want):
    """At k = 1 no subset spans an edge; at k = n - 1 the walk is over the
    one vertex left out, and the vertices on no edge are counted in bulk.
    Nothing n-sized is allocated."""
    g = from_edges(10**7, 2, [(1, 2), (3, 10**7)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        profile = exact_profile(g, k)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (dict(profile.counts), profile.total) == (want, 10**7)
    assert elapsed < 0.5
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Monte Carlo point estimates


def test_estimate_empty_graph_always_hits_zero():
    est = estimate_point(from_edges(6, 2, []), 3, 0, 500, seed=1)
    assert est.estimate == 1


def test_estimate_impossible_level():
    est = estimate_point(k4(), 3, 0, 500, seed=2)
    assert est.hits == 0


def test_estimate_is_seed_deterministic():
    a = estimate_point(c5(), 3, 1, 400, seed=7)
    b = estimate_point(c5(), 3, 1, 400, seed=7)
    assert a == b


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        estimate_point(c5(), 9, 0, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_point(c5(), 3, 0, 0, seed=0)


def test_estimate_convergence_battery():
    """Across 100 seeds the 95% interval should cover the exact value
    Pr[level 1] = 1/2 for C5 at k=3 in the vast majority of runs."""
    g = c5()
    truth = Fraction(1, 2)
    covered = 0
    for seed in range(100):
        est = estimate_point(g, 3, 1, 2000, seed=seed)
        if abs(float(est.estimate - truth)) <= est.half_width:
            covered += 1
    assert covered >= 93


@pytest.mark.parametrize("n, r, k", [(7, 2, 4), (7, 3, 5)])
@pytest.mark.parametrize("extra", [0, 1])
def test_counting_kernel_at_its_switch_point(n, r, k, extra, monkeypatch):
    """A graph with C(k, r) >= k edges is counted by its positional sets,
    one edge more switches to probing the tail index; both strategies
    agree with brute force in profiles and in seeded estimates."""
    rng = new_generator(100 * r + extra)
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = [pool.pop(rand_below(rng, len(pool))) for _ in range(comb(k, r) + extra)]
    g = from_edges(n, r, edges)

    def brute(u):
        return sum(1 for e in edges if set(e) <= set(u))

    want = Counter(brute(u) for u in itertools.combinations(range(1, n + 1), k))
    # Counting never builds the membership set, and profiling no tail index.
    refuse_edge_set(monkeypatch)
    with pytest.MonkeyPatch.context() as patch:
        refuse(patch, "_tail_index")
        assert dict(exact_profile(g, k).counts) == want

    level = max(want, key=want.get)
    made = record_bitsets(monkeypatch)
    est = estimate_point(g, k, level, 300, seed=5)
    # Only the enumerating strategy builds the tail index; either index is
    # built once for the estimate.
    assert made == (["tail"] if extra else []) + [hypergraph._bitmask]
    replay = new_generator(5)
    assert est.hits == sum(brute(sample_ordered(replay, n, k)) == level for _ in range(300))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_tail_index_counts_match_brute_force(r, seed, monkeypatch):
    """Every subset's count and every profile agree with brute force, on
    random graphs that always hold an edge through vertex n (the highest
    bit) and, for r = 1, index every edge under the empty prefix."""
    rng = new_generator(1000 * r + seed)
    n = 6 + rand_below(rng, 3)
    g = random_hypergraph(n, r, Fraction(1, 2), rng)
    top = tuple(range(n - r + 1, n + 1))
    g = from_edges(n, r, set(g.edges) | {top})

    def brute(u):
        return sum(1 for e in g.edges if set(e) <= set(u))

    refuse_edge_set(monkeypatch)
    with pytest.MonkeyPatch.context() as patch:
        refuse(patch, "_tail_index")
        for k in range(n + 1):
            want = Counter(brute(u) for u in itertools.combinations(range(1, n + 1), k))
            assert dict(exact_profile(g, k).counts) == want, k
    # At size 0 the graph holds more than C(0, r) = 0 edges, so the kernel
    # enumerates through the tail index.
    made = record_bitsets(monkeypatch)
    assert _edge_counter(g, 0)([]) == 0
    assert made == ["tail", hypergraph._bitmask]
    index, make, size = hypergraph._tail_index(g)
    assert size is int.bit_count
    assert len(index) == len({e[:-1] for e in g.edges})
    assert sum(mask.bit_count() for mask in index.values()) == g.edge_count
    for k in range(n + 1):
        count = _edge_counter(g, k)
        for u in itertools.combinations(range(1, n + 1), k):
            assert count(list(reversed(u))) == brute(u), u


@pytest.mark.parametrize("budget", [hypergraph._TAIL_BITS_PER_EDGE, 0])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tail_index_as_masks_or_frozensets_counts_as_brute_force(r, budget, monkeypatch):
    """With the bit budget as it is the tail index holds masks, and with
    none it holds frozensets; either way every subset's count and a seeded
    estimate at every size agree with brute force, and the edge set is
    never read."""
    monkeypatch.setattr(hypergraph, "_TAIL_BITS_PER_EDGE", budget)
    refuse_edge_set(monkeypatch)
    rng = new_generator(70 + r)
    n = r + 4 + rand_below(rng, 3)
    g = random_hypergraph(n, r, Fraction(1, 2), rng)
    g = from_edges(n, r, set(g.edges) | {tuple(range(n - r + 1, n + 1))})

    def brute(u):
        return sum(1 for e in g.edges if set(e) <= set(u))

    made = record_bitsets(monkeypatch)
    assert _edge_counter(g, 0)([]) == 0
    assert made == ["tail", hypergraph._bitmask if budget else frozenset]
    for k in range(n + 1):
        want = Counter()
        count = _edge_counter(g, k)
        for u in itertools.combinations(range(1, n + 1), k):
            want[brute(u)] += 1
            assert count(list(u)) == brute(u), u
        level = max(want, key=want.get)
        est = estimate_point(g, k, level, 100, seed=k)
        replay = new_generator(k)
        assert est.hits == sum(brute(sample_ordered(replay, n, k)) == level for _ in range(100))


@pytest.mark.parametrize(
    "edges",
    [
        # eleven far-apart edges: the first run already exceeds the budget
        [(v, 10**6 - v) for v in range(1, 12)],
        # a dense corner that fits, then one far edge in the last run
        [*itertools.combinations(range(1, 11), 2), (10, 10**6)],
    ],
)
def test_sparse_graph_on_a_million_vertices_counts_without_the_index(edges, monkeypatch):
    """A graph whose masks would span a million bits is counted through a
    tail index of frozensets: no mask is made, nothing n-sized is
    allocated, the edge set is never read, and counts and seeded estimates
    agree with brute force."""
    n, k = 10**6, 5
    g = from_edges(n, 2, edges)
    assert g.edge_count > comb(k, 2)

    def brute(u):
        return sum(1 for e in edges if set(e) <= set(u))

    rng = new_generator(9)
    subsets = [sample_ordered(rng, n, k) for _ in range(50)]
    subsets += [sorted({e[0] for e in edges[:3]} | {e[1] for e in edges[:2]})]
    refuse_edge_set(monkeypatch)
    made = record_bitsets(monkeypatch)
    tracemalloc.start()
    try:
        for u in subsets:
            assert _edge_counter(g, len(u))(list(u)) == brute(u), u
        est = estimate_point(g, k, 0, 200, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert made == ["tail", frozenset] * (len(subsets) + 1)
    index, make, size = hypergraph._tail_index(g)
    assert (make, size) == (frozenset, len)
    assert sum(map(len, index.values())) == len(edges)
    replay = new_generator(3)
    assert est.hits == sum(brute(sample_ordered(replay, n, k)) == 0 for _ in range(200))



@pytest.mark.parametrize("n, k, level", [(10**20, 2, 1), (2**70, 9, 0), (200, 25, 3)])
def test_ids_above_the_largest_tail_never_enter_a_mask(n, k, level, monkeypatch):
    """A graph whose edges all lie low in [1..n] is counted through its tail
    index however large n is: an id above the largest tail completes no
    edge, so it is cut from U before U's mask is made.  Counts and seeded
    estimates agree with scanning the edge list."""
    edges = list(itertools.combinations(range(1, 31), 2))
    g = from_edges(n, 2, edges)
    assert g.edge_count > comb(k, 2)

    def scan(u):
        return sum(1 for e in edges if set(e) <= set(u))

    rng = new_generator(11)
    subsets = [sample_ordered(rng, n, k) for _ in range(50)]
    subsets += [[1, 2, 30, 31, n], [2, 3, 4, n - 1, n], [n]]
    made = record_bitsets(monkeypatch)
    for u in subsets:
        assert _edge_counter(g, len(u))(list(u)) == scan(u), u
    assert made == ["tail", hypergraph._bitmask] * len(subsets)
    est = estimate_point(g, k, level, 200, seed=4)
    replay = new_generator(4)
    assert est.hits == sum(scan(sample_ordered(replay, n, k)) == level for _ in range(200))


def test_the_strategy_choice_skips_a_binomial_the_edge_count_is_below(monkeypatch):
    """An edge count below 2^min(r, size - r) picks the edge scan without
    C(size, r), which takes seconds at size 500,000 and r = 250,000."""
    g = from_edges(10**6, 250000, [range(1, 250001), range(2, 250002)])

    def refuse(*args):
        raise AssertionError(f"comb{args} was computed")

    monkeypatch.setattr(hypergraph, "comb", refuse)
    made = record_bitsets(monkeypatch)
    assert _edge_counter(g, 500000)(list(range(1, 500001))) == 2
    assert _edge_counter(g, 500000)(list(range(2, 500002))) == 1
    assert made == []


# (r, size, m, the branch _edge_counter takes): each side of size <= m and
# of the tail switch m = C(size, r) / C(size, r) + 1, on [1..8].
BRANCHES = [
    (1, 5, 4, "scan"),
    (1, 5, 5, "positional"),
    (1, 5, 6, "tail"),
    (2, 5, 4, "scan"),
    (2, 5, 5, "positional"),
    (2, 5, 10, "positional"),
    (2, 5, 11, "tail"),
    (3, 4, 3, "scan"),
    (3, 4, 4, "positional"),
    (3, 4, 5, "tail"),
    (3, 6, 5, "scan"),
    (3, 6, 6, "positional"),
    (3, 6, 20, "positional"),
    (3, 6, 21, "tail"),
    (4, 4, 1, "scan"),
    (4, 4, 2, "tail"),
    (4, 6, 5, "scan"),
    (4, 6, 6, "positional"),
    (4, 6, 15, "positional"),
    (4, 6, 16, "tail"),
]


@pytest.mark.parametrize("budget", [hypergraph._TAIL_BITS_PER_EDGE, 0], ids=["masks", "frozensets"])
@pytest.mark.parametrize("r, size, m, branch", BRANCHES)
def test_each_counting_branch_at_its_boundaries_counts_as_brute_force(
    r, size, m, branch, budget, monkeypatch
):
    """The branch taken at ``size`` is pinned by the indexes built: none
    for the scan, the positional sets for the positional branch, the tail
    index for the tail.  Its counter, fed every subset of that size in a
    shuffled order, the counter at every other size fed every subset of
    [1..8], and a seeded estimate at that size agree with brute force,
    with the sets as masks or (no bit budget) as frozensets, and the edge
    set is never read.  So does induced_edge_count on every subset, with
    the kernel and both index builders refused."""
    n = 8
    monkeypatch.setattr(hypergraph, "_TAIL_BITS_PER_EDGE", budget)
    refuse_edge_set(monkeypatch)
    rng = new_generator(100 * r + m)
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = [pool.pop(rand_below(rng, len(pool))) for _ in range(m)]
    g = from_edges(n, r, edges)

    def brute(u):
        return sum(1 for e in edges if set(e) <= set(u))

    with pytest.MonkeyPatch.context() as patch:
        refuse(patch, "_edge_counter", "_tail_index", "_bitsets")
        for k in range(n + 1):
            for u in itertools.combinations(range(1, n + 1), k):
                assert induced_edge_count(g, u) == brute(u), u
    made = record_bitsets(monkeypatch)
    count = _edge_counter(g, size)
    kind = hypergraph._bitmask if budget else frozenset
    assert made == {"scan": [], "positional": [kind], "tail": ["tail", kind]}[branch]
    for u in itertools.combinations(range(1, n + 1), size):
        shuffled = sample_ordered(rng, size, size)
        assert count([u[i - 1] for i in shuffled]) == brute(u), u
    for k in range(n + 1):
        count = _edge_counter(g, k)
        for u in itertools.combinations(range(1, n + 1), k):
            assert count(list(u)) == brute(u), u
    want = Counter(brute(u) for u in itertools.combinations(range(1, n + 1), size))
    level = max(want, key=want.get)
    est = estimate_point(g, size, level, 200, seed=m)
    replay = new_generator(m)
    assert est.hits == sum(brute(sample_ordered(replay, n, size)) == level for _ in range(200))


def test_a_star_on_a_million_vertices_counts_by_positional_frozensets(monkeypatch):
    """r = 2 with 5,000 edges (1, v), leaves spread over [1..10^6]: the
    masks would pass the bit budget, so the positional sets are frozensets.
    Samples of 300 vertices hold vertex 1, whose set holds every edge, 100
    to 200 leaves, and odd vertices.  Each union is taken in one call, so
    200 counts take well under a second (about 0.05 s traced on CPython
    3.11; a union by repeated ``|=`` copies the 5,000-edge set at every
    vertex, seconds in all), and the sets take a few MiB, nothing n-sized."""
    n, k = 10**6, 300
    leaves = list(range(200, n + 1, 200))
    g = from_edges(n, 2, [(1, v) for v in leaves])
    rng = new_generator(12)
    hits = [100 + i % 101 for i in range(200)]
    samples = []
    for j in hits:
        picked = [leaves[i] for i in sample_ordered(rng, len(leaves) - 1, j)]
        odd = [2 * i + 1 for i in sample_ordered(rng, n // 2 - 1, k - 1 - j)]
        samples.append([*picked, 1, *odd])
    made = record_bitsets(monkeypatch)
    refuse_edge_set(monkeypatch)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        count = _edge_counter(g, k)
        got = [count(u) for u in samples]
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert made == [frozenset]
    assert got == hits
    assert elapsed < 1.0
    assert peak < 8 << 20


@pytest.mark.parametrize("n, side, k", [(9, [2, 5, 6], 5), (10, [1, 10], 4), (8, range(1, 9), 3)])
def test_an_index_born_split_graph_counts_as_its_edge_list(n, side, k):
    rest = [v for v in range(1, n + 1) if v not in set(side)]
    oracle = from_edges(n, 3, [(v, *t) for v in side for t in itertools.combinations(rest, 2)])
    g = construct_split(n, side, 3)
    assert dict(exact_profile(g, k).counts) == dict(exact_profile(oracle, k).counts)
    assert estimate_point(g, k, 2, 300, seed=8) == estimate_point(oracle, k, 2, 300, seed=8)


def test_estimating_on_a_split_graph_leaves_its_edge_tuples_unbuilt(monkeypatch):
    """Counting reads only the side and edge type the split construction
    stores: the edge tuples, the edge set and the tail index are never
    built."""
    g = construct_split(60, range(1, 16), 3)
    refuse_edge_set(monkeypatch)
    with pytest.MonkeyPatch.context() as patch:
        refuse(patch, "_tail_index")
        est = estimate_point(g, 8, 30, 2000, seed=6)
    assert g._edges is None
    rest = range(16, 61)
    oracle = from_edges(60, 3, [(v, *t) for v in range(1, 16) for t in itertools.combinations(rest, 2)])
    assert est == estimate_point(oracle, 8, 30, 2000, seed=6)


# ---------------------------------------------------------------------------
# graphs with a symmetric side: counts looked up by |U cap D|


def lift_level(k, j, r):
    return comb(k, r) - comb(k - j, r)


def assert_side_counts_match_a_plain_copy(g, side, level_of):
    """Every k from 0 to n: the profile and seeded hits of ``g`` equal those
    of a copy without a side, and the count at each overlap j, read at the
    last j side vertices and the last k - j others, is the level formula."""
    assert g._side == frozenset(side)
    plain = from_edges(g.n, g.r, g.edges)
    assert plain._side is None
    inside = sorted(side)
    outside = [v for v in range(1, g.n + 1) if v not in g._side]
    for k in range(g.n + 1):
        profile = exact_profile(g, k)
        assert profile == exact_profile(plain, k), k
        for level in profile.counts:
            assert estimate_point(g, k, level, 40, seed=k) == estimate_point(plain, k, level, 40, seed=k)
        count = _edge_counter(g, k)
        for j in range(max(0, k - len(outside)), min(k, len(inside)) + 1):
            u = sorted(inside[len(inside) - j :] + outside[len(outside) - (k - j) :])
            want = level_of(k, j, g.r)
            assert count(u) == induced_edge_count(g, u) == induced_edge_count(plain, u) == want, (k, j)


def lift_with_an_empty_base(n, k, r):
    return next(b for seed in itertools.count() if not (b := construct_lift(n, k, 1, r, seed)).base.edges)


@pytest.mark.parametrize(
    "build",
    [
        lambda: (construct_split(6, [], 2), []),
        lambda: (construct_split(5, range(1, 6), 1), range(1, 6)),
        lambda: (construct_split(5, range(1, 6), 2), range(1, 6)),
        lambda: (construct_split(1, [1], 1), [1]),
        lambda: (construct_split(7, [4], 7), [4]),
    ],
)
def test_a_split_graph_counts_by_its_side_overlap(build):
    g, side = build()
    assert_side_counts_match_a_plain_copy(g, side, split_target_level)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_lift(6, 1, 1, 1, 0),  # p = 1: every vertex is a base vertex
        lambda: lift_with_an_empty_base(5, 4, 2),
        lambda: construct_lift(7, 3, 1, 3, 2),
    ],
)
def test_an_s1_lift_counts_by_its_base_vertices(build):
    built = build()
    assert built.graph.edges == lift_supersets(built.base, built.graph.r).edges
    side = [v for (v,) in built.base.edges]
    assert_side_counts_match_a_plain_copy(built.graph, side, lift_level)


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_side_counts_match_a_plain_copy_on_random_shapes(seed):
    rng = new_generator(seed)
    n = 1 + rand_below(rng, 7)
    r = 1 + rand_below(rng, n)
    if rand_below(rng, 2):
        side = [v for v in range(1, n + 1) if rand_below(rng, 2)]
        assert_side_counts_match_a_plain_copy(construct_split(n, side, r), side, split_target_level)
    else:
        built = construct_lift(n, r + rand_below(rng, n - r + 1), 1, r, seed)
        assert built.graph.edges == lift_supersets(built.base, r).edges
        side = [v for (v,) in built.base.edges]
        assert_side_counts_match_a_plain_copy(built.graph, side, lift_level)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_split(9, [2, 5, 6], 3),
        lambda: construct_split(8, range(1, 9), 2),
        lambda: construct_split(7, [], 2),
        lambda: construct_lift(8, 4, 1, 3, 2).graph,
        lambda: construct_lift(7, 3, 1, 2, 0).graph,
    ],
)
def test_the_definition_counts_a_side_graph_without_its_edges(build, monkeypatch):
    """induced_edge_count on every subset of a split or an s = 1 lift, with
    the counting kernel, both index builders and the edge set refused,
    agrees with brute force over the edges of a second copy, and the
    counted copy's edges stay unbuilt."""
    g, copy = build(), build()
    assert g._side is not None

    def brute(u):
        return sum(1 for e in copy.edges if set(e) <= set(u))

    refuse_edge_set(monkeypatch)
    refuse(monkeypatch, "_edge_counter", "_tail_index", "_bitsets")
    for k in range(g.n + 1):
        for u in itertools.combinations(range(1, g.n + 1), k):
            assert induced_edge_count(g, u) == brute(u), u
    assert g._edges is None


def test_a_side_profile_makes_no_probe_count(monkeypatch):
    """The 15,504 subsets of a profile are counted by the closed form in
    their overlap with the side alone: the tail-index strategy (one bisect
    per count) never runs, and no edge, edge set or tail index is built."""
    g = construct_split(20, range(1, 6), 3)
    oracle = [(v, *t) for v in range(1, 6) for t in itertools.combinations(range(6, 21), 2)]
    want = exact_profile(from_edges(20, 3, oracle), 5)
    calls = []

    def counted(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(hypergraph, "bisect_right", counted)
    refuse_edge_set(monkeypatch)
    refuse(monkeypatch, "_tail_index")
    assert exact_profile(g, 5) == want
    assert calls == []
    assert g._edges is None


def test_counting_on_an_s1_lift_builds_no_edges(monkeypatch):
    """Criterion 5's lift (about 195k edges) is counted, profiled and
    estimated on from its base vertices alone: no edge, edge set or tail
    index is built, and the counts are the closed form C(k, 2) - C(k - j, 2)."""
    g = construct_lift(2000, 20, 1, 2, 55).graph
    side = sorted(g._side)
    refuse_edge_set(monkeypatch)
    refuse(monkeypatch, "_tail_index")
    count = _edge_counter(g, 20)
    for j in (0, 1, 5, 20):
        u = sorted(side[:j] + [v for v in range(1, 2001) if v not in g._side][: 20 - j])
        assert count(u) == lift_level(20, j, 2)
    small = construct_lift(12, 5, 1, 3, 1).graph
    exact_profile(small, 5)
    estimate_point(g, 20, 19, 500, seed=56)
    for graph in (g, small):
        assert graph._edges is None


# ---------------------------------------------------------------------------
# conditional tables


def test_junta_full_pivot_pins_the_subset():
    g = from_edges(4, 2, [(1, 2)])
    table = conditional_junta(g, 2, [1, 2])
    assert table.entries[(1, 2)] == JuntaEntry(Fraction(1), True)
    assert table.entries[(1,)] == JuntaEntry(Fraction(0), True)
    assert table.entries[()] == JuntaEntry(Fraction(0), True)


def test_junta_single_pivot_vertex():
    g = from_edges(4, 2, [(1, 2)])
    table = conditional_junta(g, 2, [1])
    assert table.entries[(1,)] == JuntaEntry(Fraction(1, 3), True)
    assert table.entries[()] == JuntaEntry(Fraction(0), True)


def test_junta_two_edges():
    g = from_edges(4, 2, [(1, 2), (1, 3)])
    table = conditional_junta(g, 2, [1])
    assert table.entries[(1,)] == JuntaEntry(Fraction(2, 3), True)


def test_junta_infeasible_subset():
    g = from_edges(4, 2, [(1, 2)])
    table = conditional_junta(g, 2, [1, 2, 3])
    assert table.entries[(1, 2, 3)] == JuntaEntry(Fraction(0), False)
    assert table.subset_probability([3, 2, 1]) == 0


def test_junta_law_of_total_expectation():
    rng = new_generator(99)
    for _ in range(20):
        n = 5 + rand_below(rng, 3)
        g = random_hypergraph(n, 2, Fraction(1, 2), rng)
        k = 2 + rand_below(rng, 3)
        pivot = sorted(
            {1 + rand_below(rng, n) for _ in range(1 + rand_below(rng, 3))}
        )
        table = conditional_junta(g, k, pivot)
        total = sum(
            (table.subset_probability(t) * v for t, v in table.feasible_items()),
            Fraction(0),
        )
        assert total == exact_profile(g, k).mean()


def test_junta_subset_probabilities_sum_to_one():
    g = c5()
    table = conditional_junta(g, 2, [1, 4])
    probs = [
        table.subset_probability(t)
        for size in range(3)
        for t in itertools.combinations((1, 4), size)
    ]
    assert sum(probs) == 1


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_junta_matches_the_conditional_mean_by_enumeration(seed):
    """Every entry, for every k, is the mean of e(G[U]) over the k-subsets
    U with U cap Y = T; an entry with no such U is flagged infeasible."""
    rng = new_generator(seed)
    n = 1 + rand_below(rng, 9)
    r = 1 + rand_below(rng, min(n, 3))
    g = random_hypergraph(n, r, Fraction(1 + rand_below(rng, 4), 6), rng)
    pivot = sorted(sample_ordered(rng, n, rand_below(rng, min(n, 5) + 1)))
    for k in range(n + 1):
        table = conditional_junta(g, k, pivot)
        buckets = {}
        for u in itertools.combinations(range(1, n + 1), k):
            t = tuple(v for v in u if v in pivot)
            buckets.setdefault(t, []).append(sum(1 for e in g.edges if set(e) <= set(u)))
        assert len(table.entries) == 2 ** len(pivot)
        for t, entry in table.entries.items():
            counts = buckets.get(t)
            if counts is None:
                assert entry == JuntaEntry(Fraction(0), False)
            else:
                assert entry == JuntaEntry(Fraction(sum(counts), len(counts)), True)


def test_junta_lookups_outside_the_pivot_are_value_errors():
    table = conditional_junta(from_edges(4, 2, [(1, 2)]), 2, [1, 2])
    with pytest.raises(ValueError, match=r"\(3,\) is not a subset of the pivot \(1, 2\)"):
        table.subset_probability([3])
