"""Edge-count statistics of k-subsets: exact profiles, sampled point
estimates, and exact conditional expectation tables over a pivot set.

Everything exact is a Fraction or an unbounded int; the only float in the
module is the reported confidence half-width of a Monte Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .hypergraph import (
    MAX_LISTED_VERTICES,
    Hypergraph,
    _check_cap,
    _check_cap_by_bound,
    _edge_counter,
    _trace_groups,
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
    """
    _check_subset_size(k, graph.n)
    _check_cap_by_bound(
        f"max_subsets: C({graph.n},{k}) subsets",
        min(k, graph.n - k),
        lambda: comb(graph.n, k),
        max_subsets,
    )
    _check_cap("vertices listed", graph.n, MAX_LISTED_VERTICES)
    counts: dict[int, int] = {}
    count = _edge_counter(graph, k)
    for u in itertools.combinations(range(1, graph.n + 1), k):
        c = count(u)
        counts[c] = counts.get(c, 0) + 1
    return EdgeProfile(graph.n, k, counts, sum(counts.values()))


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
        u = sample_ordered(rng, graph.n, k)
        u.sort()
        if count(u) == level:
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
