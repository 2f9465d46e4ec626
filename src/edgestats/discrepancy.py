"""Signed pair-sequence discrepancy of uniform hypergraphs.

For an ordered 2s-tuple of distinct vertices, read consecutively as s
(minus, plus) pairs, the weight is |sum over edges e of prod_i
(1[plus_i in e] - 1[minus_i in e])|: the absolute signed sum of edge
indicators over all r-sets meeting every pair exactly once, the sign
flipping once per minus slot covered.  The discrepancy total sums these
weights over all ordered 2s-tuples.

Expanding the product, a weight is the signed sum, over the 2^s
transversals T of the pairs (one slot from each), of the co-degree d(T),
the number of edges containing T, with sign (-1)^(minus slots in T).
The co-degrees are tabulated in one pass over the edges, and regrouped
once into links: for each (s-1)-set T, the map v -> d(T + {v}).  With
the first s - 1 pairs fixed, the last pair weighs f(plus) - f(minus),
where f(v) is the signed sum of the links of the prefix's transversals
at v, so no edge is scanned per sequence.  The complement's co-degrees
are C(n-s, r-s) - d(T), and a constant cancels over the transversals
(their signs sum to 0), so a graph and its complement have identical
weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .hypergraph import _CLOSED_FORM_CAP, _check_cap_by_bound
from .multilinear import _cover_sums
from .serialize import _text, format_rational

__all__ = [
    "SequenceWeight",
    "DiscrepancyReport",
    "signed_discrepancy",
]

DEFAULT_TERM_CAP = 10**9
# collect_weights (the CLI's --top) keeps one weight per ordered 2s-tuple,
# about 180 bytes each; the same ceiling as MAX_CONSTRUCTED_EDGES.
MAX_STORED_WEIGHTS = 10**7


@dataclass(frozen=True)
class SequenceWeight:
    sequence: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    r: int
    s: int
    total: int
    max_weight: int
    sequences_checked: int
    per_sequence_bound: int
    weights: tuple[SequenceWeight, ...] | None

    @property
    def normalized(self) -> Fraction:
        """total / n^(r+s), the scale on which dense graphs separate."""
        return Fraction(self.total, self.n ** (self.r + self.s))

    def heaviest(self, count: int = 10) -> list[SequenceWeight]:
        if self.weights is None:
            raise ValueError("weights were not collected; pass collect_weights=True")
        return sorted(self.weights, key=lambda w: (-w.weight, w.sequence))[:count]

    def to_json_dict(self, *, top: int = 10) -> dict:
        d = {
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "total": _text(self.total),
            "max_weight": _text(self.max_weight),
            "sequences_checked": self.sequences_checked,
            "per_sequence_bound": _text(self.per_sequence_bound),
            "normalized": format_rational(self.normalized),
            "normalized_float": repr(float(self.normalized)),
        }
        if self.weights is not None:
            d["heaviest"] = [
                {"sequence": list(w.sequence), "weight": _text(w.weight)}
                for w in self.heaviest(top)
            ]
        return d


def signed_discrepancy(
    graph,
    s: int,
    *,
    term_cap: int = DEFAULT_TERM_CAP,
    collect_weights: bool = False,
) -> DiscrepancyReport:
    """Exact discrepancy total at pair count ``s`` for an r-uniform graph.

    ``term_cap`` bounds n^(2s) * C(n, r-s), the terms of scanning the
    compatible r-sets for every tuple.  The co-degree evaluation below
    does far less work, but the same inputs are refused.  Collecting the
    weights stores one per ordered 2s-tuple, refused past
    MAX_STORED_WEIGHTS.  Every per-sequence weight is checked against the
    size bound 2^s * n^(r-s) as it is produced; that bound is refused past
    _CLOSED_FORM_CAP before it is computed.
    """
    n, r = graph.n, graph.r
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got s={s}, r={r}")
    if 2 * s > n:
        raise ValueError(f"need 2s <= n distinct vertices, got s={s}, n={n}")
    # n^(2s) >= 2^(2s * (bitlength(n) - 1)), and C(n, r - s) is 0 past n.
    _check_cap_by_bound(
        f"term_cap: {n}^{2 * s} * C({n},{r - s}) elementary terms",
        2 * s * (n.bit_length() - 1) + min(r - s, n - r + s) if r - s <= n else 0,
        lambda: n ** (2 * s) * comb(n, r - s),
        term_cap,
    )
    if collect_weights:  # n!/(n - 2s)! >= C(n, 2s)
        _check_cap_by_bound(
            "stored sequence weights",
            min(2 * s, n - 2 * s),
            lambda: perm(n, 2 * s),
            MAX_STORED_WEIGHTS,
        )
    bound = _check_cap_by_bound(
        f"per-sequence bound 2^{s} * {n}^{r - s}",
        s + (r - s) * (n.bit_length() - 1),
        lambda: 2**s * n ** (r - s),
        _CLOSED_FORM_CAP,
    )
    seq_count = perm(n, 2 * s)
    vertices = range(1, n + 1)

    codegrees = _cover_sums(((e, 1) for e in graph.edges), s)
    if not codegrees:  # no edges (as whenever r - s > n): every weight is 0
        weights = (
            tuple(SequenceWeight(seq, 0) for seq in itertools.permutations(vertices, 2 * s))
            if collect_weights
            else None
        )
        return DiscrepancyReport(n, r, s, 0, 0, seq_count, bound, weights)
    # link[T][v] = d(T + {v}) for each (s - 1)-set T and each v outside it.
    link: dict[tuple[int, ...], dict[int, int]] = {}
    for a, d in codegrees.items():
        for i, v in enumerate(a):
            link.setdefault(a[:i] + a[i + 1 :], {})[v] = d
    total = 0
    max_weight = 0
    collected: list[SequenceWeight] = [] if collect_weights else None
    for prefix in itertools.permutations(vertices, 2 * s - 2):
        # The signed transversals of the first s - 1 pairs; the last pair
        # (minus, plus) then weighs f(plus) - f(minus) before the absolute value.
        signed = [((), 1)]
        for minus, plus in zip(prefix[::2], prefix[1::2]):
            signed = [(t + (plus,), c) for t, c in signed] + [(t + (minus,), -c) for t, c in signed]
        rows = [(link.get(tuple(sorted(t)), {}), c) for t, c in signed]
        rest = [v for v in vertices if v not in prefix]
        f = {v: sum(c * row.get(v, 0) for row, c in rows) for v in rest}
        for minus, plus in itertools.permutations(rest, 2):
            weight = abs(f[plus] - f[minus])
            if weight > bound:
                seq = prefix + (minus, plus)
                raise AssertionError(f"sequence {seq} has weight {weight} above the bound {bound}")
            total += weight
            if weight > max_weight:
                max_weight = weight
            if collected is not None:
                collected.append(SequenceWeight(prefix + (minus, plus), weight))
    weights = tuple(collected) if collected is not None else None
    return DiscrepancyReport(n, r, s, total, max_weight, seq_count, bound, weights)
