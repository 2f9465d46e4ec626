"""Signed pair-sequence discrepancy of uniform hypergraphs.

For an ordered 2s-tuple of distinct vertices, read consecutively as s
(minus, plus) pairs, the weight is the absolute signed sum of edge
indicators over all r-sets meeting every pair exactly once, the sign
flipping once per minus slot covered.  The discrepancy total sums these
weights over all ordered 2s-tuples.  Swapping the two slots of any pair
flips every compatible set's sign, so the constant function contributes
nothing and a graph and its complement have identical weights; the
implementation therefore iterates only over the sparser of the two edge
lists, never over all r-sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Sequence

from .coupling import sign_expansion_coefficient
from .multilinear import MultilinearPoly
from .serialize import format_rational

__all__ = [
    "SequenceWeight",
    "DiscrepancyReport",
    "signed_discrepancy",
    "HeavyBlocksReport",
    "heavy_disjoint_blocks",
]

DEFAULT_TERM_CAP = 10**9
_COMPLEMENT_MATERIALIZE_CAP = 10**7


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
            "total": str(self.total),
            "max_weight": str(self.max_weight),
            "sequences_checked": self.sequences_checked,
            "per_sequence_bound": str(self.per_sequence_bound),
            "normalized": format_rational(self.normalized),
            "normalized_float": repr(float(self.normalized)),
        }
        if self.weights is not None:
            d["heaviest"] = [
                {"sequence": list(w.sequence), "weight": str(w.weight)}
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

    Work is bounded by (ordered 2s-tuples) x (edges scanned per tuple);
    the product of the tuple count and C(n, r-s) must stay under
    ``term_cap``.  Every per-sequence weight is checked against the size
    bound 2^s * n^(r-s) as it is produced.
    """
    n, r = graph.n, graph.r
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got s={s}, r={r}")
    if 2 * s > n:
        raise ValueError(f"need 2s <= n distinct vertices, got s={s}, n={n}")
    seq_count = perm(n, 2 * s)
    if n ** (2 * s) * comb(n, r - s) > term_cap:
        raise ValueError(
            f"about {n ** (2 * s) * comb(n, r - s)} elementary terms exceeds the cap "
            f"{term_cap}; raise term_cap to force the enumeration"
        )

    scan = [frozenset(e) for e in graph.edges]
    total_sets = comb(n, r)
    if len(scan) > total_sets // 2 and total_sets <= _COMPLEMENT_MATERIALIZE_CAP:
        # Same weights, fewer sets to scan per sequence.
        scan = [frozenset(w) for w in graph.complement().edges]

    bound = 2**s * n ** (r - s)
    total = 0
    max_weight = 0
    collected: list[SequenceWeight] = [] if collect_weights else None
    for seq in itertools.permutations(range(1, n + 1), 2 * s):
        signed = 0
        for e in scan:
            sign = 1
            ok = True
            for i in range(s):
                minus, plus = seq[2 * i], seq[2 * i + 1]
                hits = (minus in e) + (plus in e)
                if hits != 1:
                    ok = False
                    break
                if minus in e:
                    sign = -sign
            if ok:
                signed += sign
        weight = abs(signed)
        if weight > bound:
            raise AssertionError(
                f"sequence {seq} has weight {weight} above the bound {bound}"
            )
        total += weight
        if weight > max_weight:
            max_weight = weight
        if collected is not None:
            collected.append(SequenceWeight(seq, weight))
    return DiscrepancyReport(
        n,
        r,
        s,
        total,
        max_weight,
        seq_count,
        bound,
        tuple(collected) if collected is not None else None,
    )


@dataclass(frozen=True)
class HeavyBlocksReport:
    """Sign-expansion coefficients over the consecutive disjoint blocks
    {s(j-1)+1 .. sj} of pair indices, and which blocks clear a threshold."""

    block_size: int
    blocks: tuple[tuple[int, ...], ...]
    coefficients: tuple[Fraction, ...]
    threshold: Fraction
    selected: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.selected)

    @property
    def min_selected_abs(self) -> Fraction | None:
        if not self.selected:
            return None
        return min(abs(self.coefficients[j]) for j in self.selected)

    def to_json_dict(self) -> dict:
        return {
            "block_size": self.block_size,
            "blocks": [list(b) for b in self.blocks],
            "coefficients": [format_rational(c) for c in self.coefficients],
            "threshold": format_rational(self.threshold),
            "selected": [list(self.blocks[j]) for j in self.selected],
            "count": self.count,
            "min_selected_abs": None
            if self.min_selected_abs is None
            else format_rational(self.min_selected_abs),
        }


def heavy_disjoint_blocks(
    poly: MultilinearPoly,
    pairs: Sequence[tuple[int, int]],
    s: int,
    threshold: Fraction | int,
) -> HeavyBlocksReport:
    """Partition the pair indices 1..k into consecutive blocks of size s
    (dropping any remainder), compute each block's sign-expansion
    coefficient, and keep the blocks whose |coefficient| reaches the
    threshold.  The blocks are pairwise disjoint by construction."""
    k = len(pairs)
    if s < 1:
        raise ValueError(f"block size must be positive, got {s}")
    thr = Fraction(threshold)
    blocks = tuple(
        tuple(range(s * (j - 1) + 1, s * j + 1)) for j in range(1, k // s + 1)
    )
    coeffs = tuple(sign_expansion_coefficient(poly, pairs, b) for b in blocks)
    selected = tuple(j for j, c in enumerate(coeffs) if abs(c) >= thr)
    return HeavyBlocksReport(s, blocks, coeffs, thr, selected)
