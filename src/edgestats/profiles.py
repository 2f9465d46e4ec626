"""Edge-count statistics of k-subsets: exact profiles, sampled point
estimates, and exact conditional expectation tables over a pivot set.

Everything exact is a Fraction or an unbounded int; the only float in the
module is the reported confidence half-width of a Monte Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .hypergraph import (
    MAX_LISTED_VERTICES,
    Edge,
    Hypergraph,
    _bitsets,
    _check_cap,
    _check_cap_by_bound,
    _edge_counter,
    _trace_groups,
    _typed_count,
    _vertices,
)
from .multilinear import _subset_transform, _zeta
from .rng import new_generator, sample_ordered
from .serialize import _text, format_rational

__all__ = [
    "EdgeProfile",
    "exact_profile",
    "PointEstimate",
    "estimate_point",
    "JuntaEntry",
    "JuntaTable",
    "conditional_junta",
]

DEFAULT_PROFILE_CAP = 10**8

# estimate_point refuses more vertex draws than this over all its samples,
# a sample of k = 0 counting as one; at a microsecond or two a draw, the
# cap allows up to about half an hour of drawing.
MAX_SAMPLE_DRAWS = 10**9


@dataclass(frozen=True)
class EdgeProfile:
    """Exact histogram of induced edge counts over all k-subsets of [1..n].

    ``counts`` maps each attained edge count to the number of k-subsets
    attaining it; the values sum to ``total`` = C(n, k).
    """

    n: int
    k: int
    counts: Mapping[int, int]
    total: int

    def mean(self) -> Fraction:
        return Fraction(
            sum(level * mult for level, mult in self.counts.items()), self.total
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "total": _text(self.total),
            "counts": {
                str(level): _text(mult) for level, mult in sorted(self.counts.items())
            },
        }


def _check_subset_size(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} outside [0..{n}]")


def exact_profile(graph: Hypergraph, k: int, *, max_subsets: int = DEFAULT_PROFILE_CAP) -> EdgeProfile:
    """Exhaustive profile of e(G[U]) over every k-subset U.

    Refuses to enumerate more than ``max_subsets`` subsets, or to list a
    pool of more than MAX_LISTED_VERTICES vertices; estimate_point is the
    sampling fallback at that scale.

    A graph given by its side D and edge types A, or with r = 1, is not
    walked: its profile is a closed form in |U cap D| (_typed_profile).
    Any other graph is walked over the smaller of U and its complement,
    about C(n, min(k, n - k)) steps: see _inside_counts and
    _outside_counts.  Neither builds an edge set or a tail index.
    """
    _check_subset_size(k, graph.n)
    total = _check_cap_by_bound(
        f"max_subsets: C({graph.n},{k}) subsets",
        min(k, graph.n - k),
        lambda: comb(graph.n, k),
        max_subsets,
    )
    _check_cap("vertices listed", graph.n, MAX_LISTED_VERTICES)
    n, r, m = graph.n, graph.r, graph.edge_count
    if graph._side is not None:
        counts = _typed_profile(n, k, r, len(graph._side), graph._types)
    elif r == 1:  # the graph whose side is its m edge vertices, of type 1
        counts = _typed_profile(n, k, 1, m, (1,))
    elif k < r or not m:
        counts = {0: total}
    elif k == n:
        counts = {m: 1}
    elif 2 * k <= n:
        counts = _inside_counts(graph, k)
    else:
        counts = _outside_counts(graph, k)
    return EdgeProfile(n, k, counts, total)


def _typed_profile(n: int, k: int, r: int, d: int, types: Sequence[int]) -> dict[int, int]:
    """The profile of the graph on [1..n] with a side D of d vertices and
    edge types A: the C(d, j) C(n - d, k - j) k-subsets meeting D in j
    vertices each span _typed_count(A, j, k - j, r) edges."""
    counts: dict[int, int] = {}
    for j in range(max(0, k - n + d), min(k, d) + 1):
        level = _typed_count(types, j, k - j, r)
        counts[level] = counts.get(level, 0) + comb(d, j) * comb(n - d, k - j)
    return counts


class _Tally:
    """A histogram fed a batch of values at a time, plus extra copies of
    one base value: the values are counted 4096 at a time by Counter's C
    loop, not one by one."""

    def __init__(self) -> None:
        self.hist: Counter[int] = Counter()
        self.buf: list[int] = []

    def add(self, values: Iterable[int], base: int, extra: int) -> None:
        self.buf += values
        if extra:
            self.hist[base] += extra
        if len(self.buf) > 4096:
            self.hist.update(self.buf)
            self.buf.clear()

    def counts(self) -> dict[int, int]:
        self.hist.update(self.buf)
        return dict(self.hist)


def _inside_counts(graph: Hypergraph, k: int) -> dict[int, int]:
    """The profile of a plain graph with 2 <= r <= k <= n/2 and an edge.

    The k-subsets are walked in lexicographic order, with an explicit
    stack of partial sets P: a vertex b joins P above its members, so
    the edges it adds are those that end at b with every other vertex in
    P.  One count per vertex is carried from parent to child: deg[j],
    the edges ending at ends[j] (the largest vertex of some edge) whose
    other vertices lie in P.  When b joins, each later end v gains
    |H[q + (b,), v] & P| over the (r - 3)-subsets q of P, where the head
    index H maps an edge's middle e[1:-1] and end to the set of first
    vertices e[0] of the edges sharing them; for r = 2 it maps (e[0],)
    and the end to {0}, and 0 is always in P.  The additions are undone
    when b leaves.  A last vertex v completes P with count(P) + deg[v]
    edges, so each leaf costs one addition on a copy of deg's tail, and
    the leaves off every end, which add no edge, are counted in bulk.

    The head sets are made by hypergraph._bitsets: int masks, or
    frozensets where the masks would be too wide.
    """
    n, r, edges = graph.n, graph.r, graph.edges
    ends = sorted({e[-1] for e in edges})
    at = {v: j for j, v in enumerate(ends)}
    heads: dict[tuple[Edge, int], list[int]] = {}
    for e in edges:
        key = (e[1:-1] if r > 2 else e[:1], at[e[-1]])
        heads.setdefault(key, []).append(e[0] if r > 2 else 0)
    index, make, size = _bitsets(heads, len(edges))
    heads.clear()
    rows: dict[Edge, list[tuple[int, int | frozenset[int]]]] = {}
    for (middle, j), h in index.items():
        rows.setdefault(middle, []).append((j, h))
    deg = [0] * len(ends)
    tally = _Tally()
    P: list[int] = []
    saved: list[tuple] = []
    pm, cnt, b = make([0]), 0, 1
    while True:
        s = len(P)
        if b > n - k + 1 + s:
            if not P:
                break
            b = P.pop()
            pm, cnt, undo = saved.pop()
            for j, x in undo:
                deg[j] -= x
            b += 1
            continue
        j = at.get(b)
        c = cnt if j is None else cnt + deg[j]
        keys = ((b,),) if r <= 3 else [q + (b,) for q in itertools.combinations(P, r - 3)]
        if s == k - 2:
            i = bisect_right(ends, b)
            tail = deg[i:]
            for key in keys:
                for j, h in rows.get(key, ()):
                    tail[j - i] += size(h & pm)
            tally.add(map(c.__add__, tail), c, n - b - len(tail))
        else:
            undo = []
            for key in keys:
                for j, h in rows.get(key, ()):
                    x = size(h & pm)
                    if x:
                        deg[j] += x
                        undo.append((j, x))
            saved.append((pm, cnt, undo))
            pm, cnt = pm | make([b]), c
            P.append(b)
        b += 1
    return tally.counts()


def _outside_counts(graph: Hypergraph, k: int) -> dict[int, int]:
    """The profile of a plain graph with 2 <= r, an edge and n/2 < k < n.

    The complements W of the k-subsets U, of size w = n - k, are walked as
    in _inside_counts; U spans the m edges less those meeting W.  The set
    of edges meeting P, the union of inc[v] over v in P, where inc[v] is
    the set of indices of the edges through v, is carried from parent to
    child; a last vertex v adds inc[v], and the leaves at vertices on no
    edge, which add nothing, are counted in bulk.  The inc sets are made
    by hypergraph._bitsets, as the head sets of _inside_counts are.
    """
    n, edges, w = graph.n, graph.edges, graph.n - k
    ids: dict[int, list[int]] = {}
    for t, e in enumerate(edges):
        for v in e:
            ids.setdefault(v, []).append(t)
    inc, make, size = _bitsets(dict(sorted(ids.items())), len(edges))
    ids.clear()
    touched = list(inc)
    incs = list(inc.values())
    tally = _Tally()
    P: list[int] = []
    saved: list = []
    acc = make(())
    b = 1
    if w == 1:
        tally.add(map(size, incs), 0, n - len(incs))
    while w > 1:
        s = len(P)
        if b > n - w + 1 + s:
            if not P:
                break
            b = P.pop() + 1
            acc = saved.pop()
            continue
        x = inc.get(b)
        a = acc if x is None else acc | x
        if s == w - 2:
            i = bisect_right(touched, b)
            tally.add(map(size, map(a.__or__, incs[i:])), size(a), n - b - len(incs) + i)
        else:
            saved.append(acc)
            acc = a
            P.append(b)
        b += 1
    return {len(edges) - u: c for u, c in tally.counts().items()}


@dataclass(frozen=True)
class PointEstimate:
    """Monte Carlo estimate of Pr[e(G[U]) = level] over uniform k-subsets."""

    n: int
    k: int
    level: int
    samples: int
    hits: int
    seed: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def half_width(self) -> float:
        """Normal-approximation 95% half-width, the one inexact field."""
        p = self.hits / self.samples
        return 1.96 * math.sqrt(p * (1.0 - p) / self.samples)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "level": self.level,
            "samples": self.samples,
            "hits": self.hits,
            "seed": self.seed,
            "estimate": format_rational(self.estimate),
            "half_width": repr(self.half_width),
        }


def estimate_point(graph: Hypergraph, k: int, level: int, samples: int, seed: int) -> PointEstimate:
    """Sample ``samples`` uniform k-subsets (one ordered Fisher-Yates draw
    each, in order) and count those inducing exactly ``level`` edges.
    Refuses a sample of more than MAX_LISTED_VERTICES vertices, or more
    than MAX_SAMPLE_DRAWS draws over all samples, before the first."""
    _check_subset_size(k, graph.n)
    _check_cap("vertices per sample", k, MAX_LISTED_VERTICES)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    _check_cap(
        f"draws for {samples} samples of {k} vertices", samples * max(k, 1), MAX_SAMPLE_DRAWS
    )
    rng = new_generator(seed)
    count = _edge_counter(graph, k)
    hits = 0
    for _ in range(samples):
        if count(sample_ordered(rng, graph.n, k)) == level:
            hits += 1
    return PointEstimate(graph.n, k, level, samples, hits, seed)


# ---------------------------------------------------------------------------
# Conditional expectation tables over a pivot vertex set


@dataclass(frozen=True)
class JuntaEntry:
    value: Fraction
    feasible: bool


@dataclass(frozen=True)
class JuntaTable:
    """E[e(G[U]) | U cap Y = T] for every T subseteq Y, exactly.

    Subsets T with no k-subset satisfying U cap Y = T are flagged
    infeasible and carry value 0.
    """

    n: int
    k: int
    pivot: tuple[int, ...]
    entries: Mapping[tuple[int, ...], JuntaEntry]

    def feasible_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(t, e.value) for t, e in sorted(self.entries.items()) if e.feasible]

    def subset_probability(self, subset: Iterable[int]) -> Fraction:
        """Pr[U cap Y = T] under a uniform k-subset U."""
        t = tuple(sorted(subset))
        if t not in self.entries:
            raise ValueError(f"{t} is not a subset of the pivot {self.pivot}")
        outside = self.n - len(self.pivot)
        need = self.k - len(t)
        if need < 0 or need > outside:
            return Fraction(0)
        return Fraction(comb(outside, need), comb(self.n, self.k))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pivot": list(self.pivot),
            "entries": {
                " ".join(map(str, t)): {
                    "value": format_rational(e.value),
                    "feasible": e.feasible,
                }
                for t, e in sorted(self.entries.items())
            },
        }


def conditional_junta(graph: Hypergraph, k: int, pivot: Iterable[int]) -> JuntaTable:
    """Exact table of E[e(G[U]) | U cap Y = T] over all T subseteq Y.

    Conditioned on U cap Y = T, the rest of U is a uniform (k - |T|)-subset
    of [1..n] minus Y, so each edge W contributes the exact hypergeometric
    probability that W minus Y lands inside it, provided W cap Y lies in T.
    """
    y = _vertices(pivot, graph.n, "pivot")
    _check_cap(f"2^{len(y)} pivot subsets", 1 << len(y), 1 << 20)
    _check_subset_size(k, graph.n)
    outside = graph.n - len(y)
    # Edges of trace S share rho = r - |S|; inside[rho][T] counts them over S in T.
    counts: dict[int, dict[tuple[int, ...], int]] = {}
    for s, family in _trace_groups(graph, frozenset(y)).items():
        counts.setdefault(graph.r - len(s), {})[s] = len(family)
    inside = {rho: _subset_transform(y, c, _zeta) for rho, c in counts.items()}
    entries: dict[tuple[int, ...], JuntaEntry] = {}
    for size in range(len(y) + 1):
        need = k - size
        if not 0 <= need <= outside:
            entries.update((t, JuntaEntry(Fraction(0), False)) for t in itertools.combinations(y, size))
            continue
        weights = [(col, comb(outside - rho, need - rho)) for rho, col in inside.items() if rho <= need]
        for t in itertools.combinations(y, size):
            total = sum(col[t] * w for col, w in weights)
            entries[t] = JuntaEntry(Fraction(total, comb(outside, need)), True)
    return JuntaTable(graph.n, k, y, entries)
