"""Uniform hypergraphs on vertex set [1..n] with exact edge statistics.

Edges are canonicalised to ascending vertex tuples and the edge list is
kept globally sorted, so iteration order (and hence every downstream
tie-break and report) is deterministic.  The two constructions are each
fixed by every permutation of [1..n] that maps a side D to itself, so
each is stored as D and the set A of overlaps |e cap D| its edges have:
its edges are exactly the r-sets whose overlap with D lies in A.  Its
edge count, and the edge count inside a vertex set U, are closed forms
in |D| and |U cap D|; its edge list is built from (D, A) only when read.
Values are immutable after construction; all operations are pure and
safe to call concurrently.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import lt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .rng import new_generator
from .serialize import _read_records

__all__ = [
    "Hypergraph",
    "from_edges",
    "induced_edge_count",
    "matching_number",
    "lex_min_maximum_matching",
    "LiftConstruction",
    "construct_lift",
    "lift_supersets",
    "lift_target_level",
    "construct_split",
    "split_target_level",
    "random_hypergraph",
    "parse_hg",
    "format_hg",
]

Edge = tuple[int, ...]


def _check_shape(n: int, r: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if r < 1:
        raise ValueError(f"uniformity must be a positive integer, got {r}")


def _check_cap(what: str, count: int | None, cap: int, bits: int = 0) -> None:
    """Refuse, before the work starts, a count of work past its cap.  A
    count past 2^64 is shown by its bit length, as its digits could run
    to thousands, and a cap that is a power of two past 2^64 by its
    exponent.  A count not computed (None) is known only to be at least
    2^bits, and is refused when that bound passes the cap."""
    if count is None:
        if bits < max(cap, 0).bit_length():
            return
        shown = f"at least 2^{bits}"
    elif count <= cap:
        return
    else:
        shown = count if count < 2**64 else f"at least 2^{count.bit_length() - 1}"
    limit = cap if cap < 2**64 or cap & (cap - 1) else f"2^{cap.bit_length() - 1}"
    raise ValueError(f"{what} = {shown} exceeds the cap of {limit}")


def _check_cap_by_bound(what: str, bits: int, count: Callable[[], int], cap: int) -> int:
    """_check_cap for a count that is itself costly to compute, given a
    cheap ``bits`` with count >= 2^bits (C(n, j) >= 2^min(j, n - j) for
    0 <= j <= n); returns the count.  A bound of 64 bits or more that
    already passes the cap refuses without the count; otherwise the count
    is computed and checked, so a count below 2^64 is always shown
    exactly."""
    if bits >= 64:
        _check_cap(what, None, cap, bits)
    exact = count()
    _check_cap(what, exact, cap)
    return exact


# A closed form that a report prints (cover's default step cap, the
# per-sequence bound of a discrepancy, the binomial point mass of a
# Poisson check) is refused past this before it is computed, so one costs
# at most a few microseconds.  A printed integer past 10^4300 (about
# 2^14284) exceeds Python's int-to-str limit anyway, and the CLI exits 2.
_CLOSED_FORM_CAP = 1 << 65536

# No command lists or draws more vertex ids than this at once: a pool of
# [1..n] or of the vertices off a side, or one sample.
MAX_LISTED_VERTICES = 10**7


def _vertices(ids: Iterable[int], n: int, what: str, *, distinct: bool = False) -> Edge:
    """``ids`` as an ascending tuple, refusing any id outside [1..n]; with
    ``distinct``, refusing a repeated id instead of merging it."""
    out = tuple(sorted(ids if distinct else set(ids)))
    if distinct and len(set(out)) != len(out):
        raise ValueError(f"{what} {out} repeats a vertex")
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"{what} {out} leaves the vertex range [1..{n}]")
    return out


def _canonical_edge(edge: Iterable[int], n: int, r: int) -> Edge:
    vs = tuple(edge)
    if len(vs) != r:
        raise ValueError(f"edge {vs} has {len(vs)} vertices, expected {r}")
    return _vertices(vs, n, "edge", distinct=True)


@dataclass(frozen=True, eq=False, slots=True)
class Hypergraph:
    """An r-uniform hypergraph on vertex set [1..n].

    ``edges`` is a sorted tuple of ascending vertex tuples.  Use
    :func:`from_edges` to build one from raw data with full validation.
    The split and s = 1 lift constructions give a side ``_side`` = D and
    its edge types ``_types`` = A (ascending overlaps with D) in place of
    the edges (``_edges`` None): the edges are the r-sets e with
    |e cap D| in A, built on first read and cached.  ``_tail_index`` is
    the tail index that counting builds on first use (see _tail_index).
    Two graphs are equal when n, r and the edges are.
    """

    n: int
    r: int
    _edges: tuple[Edge, ...] | None = field(repr=False)
    _side: frozenset[int] | None = field(default=None, repr=False)
    _types: tuple[int, ...] | None = field(default=None, repr=False)
    _tail_index: tuple[dict, Callable, Callable] | None = field(default=None, init=False, repr=False)

    @property
    def edges(self) -> tuple[Edge, ...]:
        edges = self._edges
        if edges is None:
            built: list[Edge] = []
            for p, tails in _side_runs(self.n, self.r, self._side, self._types):
                built += [p + (v,) for v in tails]
            edges = tuple(built)
            object.__setattr__(self, "_edges", edges)
        return edges

    @property
    def edge_count(self) -> int:
        if self._edges is not None:
            return len(self._edges)
        d = len(self._side)
        return _typed_count(self._types, d, self.n - d, self.r)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Hypergraph:
            return NotImplemented
        return (self.n, self.r, self.edge_count) == (other.n, other.r, other.edge_count) and (
            self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    @property
    def edge_set(self) -> frozenset[Edge]:
        """The edges as a set, built anew on each read: only membership
        questions (``complement``, callers) read it, once a graph;
        counting reads the tail index instead."""
        return frozenset(self.edges)

    def complement(self) -> "Hypergraph":
        """The r-uniform complement: all r-sets of [1..n] not in self."""
        present = self.edge_set
        comp = tuple(
            w for w in itertools.combinations(range(1, self.n + 1), self.r) if w not in present
        )
        return Hypergraph(self.n, self.r, comp)


def from_edges(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and canonicalise an edge list into a Hypergraph.

    Rejects out-of-range vertices, wrong-size or vertex-repeating edges,
    and duplicate edges (the artifact treats a repeated edge as a data
    error, not a multiset).
    """
    _check_shape(n, r)
    canon: list[Edge] = []
    seen: set[Edge] = set()
    for e in edges:
        ce = _canonical_edge(e, n, r)
        if ce in seen:
            raise ValueError(f"duplicate edge {ce}")
        seen.add(ce)
        canon.append(ce)
    canon.sort()
    return Hypergraph(n, r, tuple(canon))


# An index of sets (key -> ids) holds int masks while their widths sum to
# at most this many bits an edge; a mask spans up to its largest id, so on
# a sparse graph with a large n the masks would outgrow the frozensets
# that hold the same ids past the budget.
_TAIL_BITS_PER_EDGE = 1024


def _bitsets(groups: dict, edge_count: int) -> tuple[dict, Callable, Callable]:
    """The index of ``groups`` (key -> ascending, nonempty ids) with each
    group made a set of the one kind its widths allow: int masks (bit v
    for id v) while they sum to at most _TAIL_BITS_PER_EDGE bits for each
    of ``edge_count`` edges, frozensets past that.  Returns the index and
    that kind's make (ascending ids -> set) and size functions."""
    if sum(ids[-1] + 1 for ids in groups.values()) <= _TAIL_BITS_PER_EDGE * edge_count:
        make, size = _bitmask, int.bit_count
    else:
        make, size = frozenset, len
    return {key: make(ids) for key, ids in groups.items()}, make, size


def _tail_index(graph: Hypergraph) -> tuple[dict[Edge, int | frozenset[int]], Callable, Callable]:
    """The tail index of ``graph``, as _bitsets gives it: it maps each
    prefix e[:-1] to the set of the last vertices of the edges that start
    with it, grouped by one pass over the runs of ``_runs``.  Cached on
    the graph."""
    cached = graph._tail_index
    if cached is None:
        cached = _bitsets(dict(_runs(graph)), graph.edge_count)
        object.__setattr__(graph, "_tail_index", cached)
    return cached


def _bitmask(ids: Sequence[int]) -> int:
    """The mask with bit v for each v of the ascending ``ids``, in time
    linear in the largest id (each ``|=`` would copy the mask)."""
    bits = bytearray(ids[-1] // 8 + 1 if ids else 0)
    for v in ids:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _typed_count(types: Sequence[int], j: int, m: int, r: int) -> int:
    """The r-sets of j side and m other vertices that meet the side in a
    number of vertices listed in ``types``."""
    return sum(comb(j, a) * comb(m, r - a) for a in types)


def _side_runs(
    n: int, r: int, side: frozenset[int], types: Sequence[int]
) -> Iterator[tuple[Edge, list[int]]]:
    """The edges of the graph (side D, types A) on [1..n], as runs
    (prefix p, tails) in lexicographic order: the edges p + (v,) for v in
    tails.

    A prefix p with c side vertices takes the side vertices above p[-1]
    if c + 1 is in A, and the others above p[-1] if c is.  Only prefixes
    whose vertices all lie below the top vertex of the pool they take
    from are listed, so every run is nonempty.  The tails are slices of
    shared pools, so no int is made per edge (ids above 256 are not
    cached, and each would cost 28 bytes).  The non-side vertices are
    listed only where a prefix or a pool holds some, so a graph with
    r = 1 or an empty side never lists them.
    """
    inside = sorted(side)
    m = n - len(inside)
    rest: list[int] = []
    every: list[int] = []
    runs: list[tuple[Edge, list[int]]] = []
    for c in range(max(0, r - 1 - m), min(r - 1, len(inside)) + 1):
        from_side = c + 1 in types and bool(inside)
        from_rest = c in types and m > 0
        if not (from_side or from_rest):
            continue
        if not rest and (from_rest or c < r - 1):
            rest = [v for v in range(1, n + 1) if v not in side]
        if from_side and from_rest:
            pool = every = every or list(range(1, n + 1))
        else:
            pool = inside if from_side else rest
        top = pool[-1]
        for a in itertools.combinations(inside[: bisect_left(inside, top)], c):
            for b in itertools.combinations(rest[: bisect_left(rest, top)], r - 1 - c):
                runs.append((tuple(sorted(a + b)), pool))
    runs.sort(key=lambda run: run[0])
    for p, pool in runs:
        yield p, pool[bisect_right(pool, p[-1]) :] if p else pool


def _runs(graph: Hypergraph) -> Iterator[tuple[Edge, list[int]]]:
    """The edges of ``graph`` in order, as runs (prefix p, ascending tails):
    _side_runs' runs for a graph given by a side, so no edge tuple is
    built, and otherwise its edges grouped by their prefix e[:-1]."""
    if graph._side is not None:
        return _side_runs(graph.n, graph.r, graph._side, graph._types)
    return (
        (p, [e[-1] for e in group])
        for p, group in itertools.groupby(graph.edges, key=lambda e: e[:-1])
    )


def _edge_counter(graph: Hypergraph, size: int, *, once: bool = False) -> Callable[[Sequence[int]], int]:
    """The induced-count kernel of estimate_point and induced_edge_count: a
    function counting the edges of ``graph`` inside a sequence of ``size``
    distinct vertices, in any order, one sequence at a time.  Only the
    tail branch needs the order: it sorts a list in place (estimate_point
    discards each sample after counting it) and copies any other sequence.

    On a graph given by its side D and edge types A, the count inside U
    is the closed form sum over a in A of C(j, a) C(size - j, r - a), with
    j = |U cap D|; each j's value is computed on first use.  No edge is
    read.

    On any other graph with m edges it picks one exact strategy once:

    - m > C(size, r): enumerate the (r-1)-subsets of U through the tail
      index (_tail_index), so C(size, r-1) probes replace C(size, r)
      membership tests.  An edge inside U is counted once, at its own
      prefix, by the size of that prefix's tail set met with U;
    - otherwise, size <= m: the positional sets of _position_counter, at
      most r * size lookups and no test of an edge, unless ``once`` says
      that one sequence is counted: building the sets costs more than
      one scan, so a single count scans;
    - otherwise (size > m): scan the edge list, m subset tests.

    An edge count below 2^min(r, size - r) <= C(size, r) settles the
    first choice without the binomial, which is slow to compute for a
    large size and r.  The tail sets are masks, met with U's mask, or
    frozensets on a graph whose masks would be too large (a sparse graph
    on very many vertices), met with U's ids as they are, so no set of U
    is made.
    """
    r = graph.r
    side = graph._side
    m = graph.edge_count
    if side is not None:
        types = graph._types
        table: list[int | None] = [None] * (size + 1)

        def count(u: Sequence[int]) -> int:
            j = len(side.intersection(u))
            c = table[j]
            if c is None:
                c = table[j] = _typed_count(types, j, size - j, r)
            return c

    elif m.bit_length() <= min(r, size - r) or m <= comb(size, r):
        if size <= m and not once:
            return _position_counter(graph)
        edges = graph.edges

        def count(u: Sequence[int]) -> int:
            uset = frozenset(u)
            return sum(1 for e in edges if uset.issuperset(e))

    else:
        index, make, _ = _tail_index(graph)
        get = index.get
        if make is frozenset:

            def count(u: Sequence[int]) -> int:
                if type(u) is list:
                    u.sort()
                else:
                    u = sorted(u)
                tails = map(get, itertools.combinations(u, r - 1))
                return sum([len(t.intersection(u)) for t in tails if t])

        else:
            # An edge inside U ends at a tail of at most ``top``, so U's
            # mask is made of its ids up to there: the ids above would only
            # widen it, up to 2^n bits on a graph with a huge n.
            top = max(index.values()).bit_length() - 1

            def count(u: Sequence[int]) -> int:
                if type(u) is list:
                    u.sort()
                else:
                    u = sorted(u)
                us = 0
                for v in u[: bisect_right(u, top)]:
                    us |= 1 << v
                tails = map(get, itertools.combinations(u, r - 1))
                return sum([(t & us).bit_count() for t in tails if t])

    return count


def _position_counter(graph: Hypergraph) -> Callable[[Sequence[int]], int]:
    """A function counting the edges of a plain ``graph`` inside U, one
    sequence at a time, by positional sets.

    With the edges numbered t = 0..m-1 in order, pos[i][v] is the set of
    the t whose edge has v as its i-th vertex.  An edge lies inside U
    exactly when each of its vertices does, so the count is the size of
    the meet over the positions i of the union of pos[i][v] over v in U;
    the loop stops at the first empty meet.  A count reads at most r |U|
    sets and never a vertex outside U.  The sets of all r positions are
    made by one _bitsets call, so they are all masks or all frozensets,
    and each position keeps its own dict.  The sets of one position are
    disjoint, so a union of masks is their sum; a union of frozensets is
    taken in one call, as a repeated ``|=`` would copy the growing set.
    Built anew on each call, not cached on the graph.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for t, e in enumerate(graph.edges):
        for i, v in enumerate(e):
            groups.setdefault((i, v), []).append(t)
    index, make, size = _bitsets(groups, graph.edge_count)
    groups.clear()
    pos: list[dict] = [{} for _ in range(graph.r)]
    for (i, v), s in index.items():
        pos[i][v] = s
    first, *rest = [p.get for p in pos]
    empty = make(())
    blanks = itertools.repeat(empty)
    union = sum if make is not frozenset else lambda sets: empty.union(*sets)

    def count(u: Sequence[int]) -> int:
        acc = union(map(first, u, blanks))
        for get in rest:
            if not acc:
                return 0
            acc &= union(map(get, u, blanks))
        return size(acc)

    return count


def _trace_groups(graph: Hypergraph, y: frozenset[int]) -> dict[Edge, set[frozenset[int]]]:
    """The trace index: one pass over the edges, each residue e - (e cap Y)
    grouped by its exact trace e cap Y (as an ascending tuple).  A group's
    residues are distinct, so its size is its number of edges."""
    groups: dict[Edge, set[frozenset[int]]] = {}
    for e in graph.edges:
        es = frozenset(e)
        s = es & y
        groups.setdefault(tuple(sorted(s)), set()).add(es - s)
    return groups


def induced_edge_count(graph: Hypergraph, subset: Iterable[int]) -> int:
    """Number of edges of ``graph`` contained in ``subset``."""
    u = _vertices(subset, graph.n, "subset")
    return _edge_counter(graph, len(u), once=True)(u)


def _as_edge_tuples(graph_or_edges: Hypergraph | Iterable[Iterable[int]]) -> list[Edge]:
    if isinstance(graph_or_edges, Hypergraph):
        return list(graph_or_edges.edges)
    out: set[Edge] = set()
    for e in graph_or_edges:
        t = tuple(sorted(e))
        if not t:
            raise ValueError("matching is undefined for an empty edge")
        if len(set(t)) != len(t):
            raise ValueError(f"edge {t} repeats a vertex")
        out.add(t)
    return sorted(out)


def _maximum_matching(edges: list[Edge]) -> tuple[Edge, ...]:
    """The lexicographically least maximum matching of a sorted,
    duplicate-free list of nonempty edges.

    Branch and bound on the smallest available edge, with an explicit
    stack so the depth is not tied to the edge count.  Each edge is taken
    before it is skipped, so matchings of equal size are met in
    lexicographic order and only a strictly larger one replaces the
    incumbent.  A greedy matching seeds the incumbent (it is the first
    matching that order meets); a branch is cut when neither its edge
    count nor its free vertices over the smallest edge size can beat it.
    """
    if not edges:
        return ()
    min_size = min(len(e) for e in edges)

    best: tuple[Edge, ...] = ()
    used: set[int] = set()
    for e in edges:
        if used.isdisjoint(e):
            used.update(e)
            best += (e,)

    stack: list[tuple[list[Edge], tuple[Edge, ...]]] = [(edges, ())]
    while stack:
        avail, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        if not avail:
            continue
        free = set(itertools.chain.from_iterable(avail))
        if len(chosen) + min(len(avail), len(free) // min_size) <= len(best):
            continue
        e, rest = avail[0], avail[1:]
        taken = set(e)
        stack.append((rest, chosen))
        stack.append(([f for f in rest if taken.isdisjoint(f)], chosen + (e,)))
    return best


def matching_number(graph_or_edges: Hypergraph | Iterable[Iterable[int]]) -> int:
    """Maximum number of pairwise vertex-disjoint edges, exactly.

    Accepts a Hypergraph or any iterable of edges, mixed sizes allowed
    (the cover machinery calls it on residue families).
    """
    return len(_maximum_matching(_as_edge_tuples(graph_or_edges)))


def lex_min_maximum_matching(graph_or_edges: Hypergraph | Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    """The maximum matching whose sorted edge list is lexicographically
    least, found by the same single search as :func:`matching_number`."""
    return _maximum_matching(_as_edge_tuples(graph_or_edges))


# ---------------------------------------------------------------------------
# Constructions


class LiftConstruction(NamedTuple):
    """Result of the lift construction: the lifted graph, the random base
    it was lifted from, and the per-subset target level C(k-s, r-s)."""

    graph: Hypergraph
    base: Hypergraph
    level: int


def lift_target_level(k: int, s: int, r: int) -> int:
    """Edges through one base edge inside a k-subset: C(k-s, r-s)."""
    return comb(k - s, r - s)


# The constructions refuse, before building anything, to draw or build
# more than this many edges.  The paper's split graph (n = 400, 100 side
# vertices, r = 3) has 4,485,000 edges; it is stored as its side and edge
# types, and its edge tuples, built only if something reads them, peak at
# about 360 MiB.
MAX_CONSTRUCTED_EDGES = 10**7


def _check_supersets(base_edges: int, n: int, s: int, r: int) -> None:
    """Refuse ``base_edges`` s-sets on [1..n] whose r-supersets would pass
    MAX_CONSTRUCTED_EDGES."""
    _check_cap_by_bound(
        f"{base_edges} base edges times C({n - s},{r - s}) supersets",
        min(r - s, n - r),
        lambda: base_edges * comb(n - s, r - s),
        MAX_CONSTRUCTED_EDGES,
    )


def lift_supersets(base: Hypergraph, r: int) -> Hypergraph:
    """All r-sets of [1..n] containing at least one edge of ``base``."""
    if r < base.r:
        raise ValueError(f"lift uniformity {r} is below the base uniformity {base.r}")
    n = base.n
    if base.edges:  # then n >= base.r, as every edge lies in [1..n]
        _check_supersets(base.edge_count, n, base.r, r)
    out: set[Edge] = set()
    for f in base.edges:
        fset = set(f)
        rest = [v for v in range(1, n + 1) if v not in fset]
        for t in itertools.combinations(rest, r - base.r):
            out.add(tuple(sorted(f + t)))
    return Hypergraph(n, r, tuple(sorted(out)))


def construct_lift(n: int, k: int, s: int, r: int, seed: int) -> LiftConstruction:
    """Seeded lift: the base is random_hypergraph(n, s, 1/C(k,s), seed),
    each s-set decided by one exact Bernoulli draw in lexicographic order;
    the lift takes all r-sets covering a base edge.  At s = 1 those are
    the r-sets meeting the base vertices D in 1..r vertices, so the lift
    is stored as D and those edge types (see Hypergraph), and its edges
    are built only when read.  Refuses more than MAX_CONSTRUCTED_EDGES
    draws, or a pool of more than MAX_LISTED_VERTICES, before making
    them, and refuses while drawing as soon as the base edges so far times
    C(n-s, r-s) pass that cap.
    """
    if not 1 <= s <= r <= k <= n:
        raise ValueError(f"need 1 <= s <= r <= k <= n, got s={s}, r={r}, k={k}, n={n}")
    _check_cap_by_bound(
        f"C({n},{s}) base draws", min(s, n - s), lambda: comb(n, s), MAX_CONSTRUCTED_EDGES
    )
    _check_cap("vertices listed", n, MAX_LISTED_VERTICES)
    # The most base edges whose supersets stay within the cap; C(n-s, r-s)
    # is at least 2^min(r-s, n-r), so past 2^64 none are.
    most = 0 if min(r - s, n - r) >= 64 else MAX_CONSTRUCTED_EDGES // comb(n - s, r - s)
    base_edges: list[Edge] = []
    for e in _coin_edges(n, s, Fraction(1, comb(k, s)), new_generator(seed)):
        if len(base_edges) == most:
            _check_supersets(most + 1, n, s, r)
        base_edges.append(e)
    base = Hypergraph(n, s, tuple(base_edges))
    if s == 1:
        graph = Hypergraph(n, r, None, frozenset(v for (v,) in base_edges), tuple(range(1, r + 1)))
    else:
        graph = lift_supersets(base, r)
    return LiftConstruction(graph, base, lift_target_level(k, s, r))


def split_target_level(k: int, s_hits: int, r: int) -> int:
    """Induced edge count of the split graph on a k-subset meeting the
    distinguished side in exactly ``s_hits`` vertices."""
    return s_hits * comb(k - s_hits, r - 1)


def construct_split(n: int, side: Iterable[int], r: int) -> Hypergraph:
    """All r-sets meeting the distinguished vertex set in exactly one vertex,
    stored as that side and the one edge type 1 (see Hypergraph); its
    edges are built only when read.  Refuses up front to build more than
    MAX_CONSTRUCTED_EDGES of them, or to list more than
    MAX_LISTED_VERTICES vertices off the side for them.
    """
    _check_shape(n, r)
    s = _vertices(side, n, "distinguished side")
    if r > n:
        raise ValueError(f"uniformity {r} exceeds vertex count {n}")
    graph = Hypergraph(n, r, None, frozenset(s), (1,))
    _check_cap_by_bound(
        f"{len(s)} * C({n - len(s)},{r - 1}) split edges",
        min(r - 1, n - len(s) - r + 1) if s else 0,
        lambda: graph.edge_count,
        MAX_CONSTRUCTED_EDGES,
    )
    if r > 1 and s:  # then listing its edges lists the vertices off the side
        _check_cap("vertices off the side listed", n - len(s), MAX_LISTED_VERTICES)
    return graph


def random_hypergraph(n: int, r: int, p: Fraction | int, seed_or_rng) -> Hypergraph:
    """Each r-set of [1..n] kept independently with exact probability p,
    decided in lexicographic order.  Accepts a seed or a live generator;
    refuses n < 0 and r < 1 as from_edges does, and p outside [0, 1] as
    bernoulli does, before any draw (so also where no r-set is drawn)."""
    _check_shape(n, r)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    rng = seed_or_rng if hasattr(seed_or_rng, "getrandbits") else new_generator(seed_or_rng)
    # Listed first: tuple() over the generator grows its tuple by
    # reallocation, which left the peak RSS of a run over 2000 small
    # random graphs about 1 MiB higher.
    edges = list(_coin_edges(n, r, p, rng))
    return Hypergraph(n, r, tuple(edges))


def _coin_edges(n: int, r: int, p: Fraction, rng) -> Iterator[Edge]:
    """The r-sets of [1..n] kept by one exact Bernoulli(p) coin each, drawn
    in lexicographic order: the one draw order of random_hypergraph and
    of the lift's base.  Each coin makes rng.bernoulli's draws, with its
    rejection loop inline: getrandbits(b) for den's bit length b until a
    value below den, kept when below num; p = 0 draws nothing."""
    num, den = p.numerator, p.denominator
    if not num:
        return
    bits = den.bit_length()
    getrandbits = rng.getrandbits
    for w in itertools.combinations(range(1, n + 1), r):
        x = getrandbits(bits)
        while x >= den:
            x = getrandbits(bits)
        if x < num:
            yield w


# ---------------------------------------------------------------------------
# .hg file format: the header is "<n> <r>", then one edge per line as its
# r vertex ids; the shared rules are in serialize._read_records.


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text, refusing a bad edge as from_edges does, after the
    1-based number of its line.

    A clean text, with no '#', no blank line and r ids on every edge line,
    is checked in one pass over its ids, split and converted as
    serialize._read_records converts them: ids in [1..n] by their min and
    max, each column below the next, and each edge below the next one,
    which also proves the edges distinct.  format_hg writes every file so.
    A clean text that fails only the edge order has its edges sorted once
    and checked strictly in that order.  Any other text, or one that
    fails a check, is read by serialize._read_records, which gives the
    same graph, or refuses it with the message and line number it gives
    any text; so the bulk checks decide only what a clean text means.

    Either way, the graph is then given by a side when one fits: where
    the listed vertices fall into at most two degree classes, each class
    in turn (the higher degree first) is tried as D, with A the overlaps
    |e cap D| the edges have.  The edges are distinct r-sets with their
    overlaps in A, so when they number _typed_count(A, |D|, n - |D|, r),
    they are all of (D, A)'s edges, and the graph is stored as D and A.
    A term C(N, j) of that count is at least 2^min(j, N - j), so one whose
    bound passes the edge count fails the side without being computed.
    """
    lines = [] if "#" in text else text.splitlines()
    try:
        n, r = map(int, lines.pop(0).split())
        _check_shape(n, r)
        if set(map(len, map(str.split, lines))) - {r}:
            raise ValueError("a line without r ids")
        flat = list(map(int, itertools.chain.from_iterable(map(str.split, lines))))
    except (ValueError, IndexError):
        flat = None
    lines.clear()  # the split lines go before the columns are made
    cols = [flat[i::r] for i in range(r)] if flat else []
    clean = flat is not None and (
        1 <= min(flat, default=1)
        and max(flat, default=n) <= n
        and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
    )
    ordered = clean and all(map(lt, zip(*cols), itertools.islice(zip(*cols), 1, None)))
    if clean and not ordered:
        cols = list(zip(*sorted(zip(*cols))))
        ordered = all(map(lt, zip(*cols), itertools.islice(zip(*cols), 1, None)))
    if not ordered:
        (n, r), edges = _read_records(text, "<n> <r>", _check_shape, _canonical_edge, "edge")
        cols = list(zip(*sorted(edges)))
    count = len(cols[0]) if cols else 0
    degree = Counter(itertools.chain.from_iterable(cols))
    levels = set(degree.values())
    if len(levels) <= 2:
        bits = count.bit_length()
        for level in sorted(levels, reverse=True):
            side = frozenset(v for v, d in degree.items() if d == level)
            d = len(side)
            hits = (map(side.__contains__, col) for col in cols)
            types = sorted(set(map(sum, zip(*hits))))
            if all(max(min(a, d - a), min(r - a, n - d - r + a)) < bits for a in types) and (
                _typed_count(types, d, n - d, r) == count
            ):
                return Hypergraph(n, r, None, side, tuple(types))
    return Hypergraph(n, r, tuple(zip(*cols)))


def format_hg(graph: Hypergraph) -> str:
    """The .hg text of ``graph``: the header, then each edge on its own
    line, in order.  Edges are written by the runs of ``_runs``, each
    prefix's text made once and each id's from one table."""
    runs = list(_runs(graph))
    ids = itertools.chain.from_iterable(itertools.chain.from_iterable(runs))
    name = {v: str(v) for v in set(ids)}
    parts = [f"{graph.n} {graph.r}\n"]
    for p, tails in runs:
        head = "".join([name[v] + " " for v in p])
        parts.append(head + ("\n" + head).join(map(name.__getitem__, tails)) + "\n")
    return "".join(parts)
