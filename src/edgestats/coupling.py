"""Coupling a uniform k-slice point to independent signs, exactly.

A coupling on [1..n] is a sequence of k disjoint ordered vertex pairs
(minus slot, plus slot) together with k independent uniform signs; the
0/1 vector selecting the plus or minus slot of each pair by its sign is
distributed as a uniform k-subset of the 2k paired vertices, and any
polynomial of that vector expands exactly as a signed multilinear
polynomial in the k signs.  This module computes those sign-expansion
coefficients and their size bound, and checks the expansion identity
exhaustively.

Expansion semantics: a support W of the input polynomial contributes only
when W lies inside the paired vertices and contains no pair entirely
(otherwise the selected 0/1 vector kills the monomial); such a W touches
some set J(W) of pairs, one vertex each, and feeds every sign monomial
indexed by a subset I of J(W) with weight (-1)^(minus slots of I hit by W)
times its coefficient times 2^(-|W|).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .hypergraph import _check_cap, _vertices
from .multilinear import MultilinearPoly, _subset_transform, _walsh
from .rng import new_generator, rademacher, sample_ordered
from .serialize import format_rational

__all__ = [
    "Coupling",
    "sample_coupling",
    "sign_expansion_table",
    "SignExpansionReport",
    "check_sign_expansion",
    "coefficient_bound",
]

Pair = tuple[int, int]
SignIndex = tuple[int, ...]

# check_sign_expansion refuses more pairs than this: it checks all 2^k
# sign vectors.
MAX_SIGN_VARIABLES = 20


def _slots(pairs: Sequence[Pair], n: int) -> dict[int, tuple[int, int]]:
    """The slot map of a checked pairing: each paired vertex's pair index
    i (from 1) and 1 for the minus slot, 0 for the plus slot.  That slot
    is bit 2i - minus of a mask over the 2k slots."""
    ps = [(int(a), int(b)) for a, b in pairs]
    _vertices((v for p in ps for v in p), n, "coupling", distinct=True)
    return {v: (i, minus) for i, p in enumerate(ps, start=1) for v, minus in zip(p, (1, 0))}


@dataclass(frozen=True)
class Coupling:
    """k disjoint ordered (minus, plus) vertex pairs on [1..n] plus signs."""

    n: int
    pairs: tuple[Pair, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        _slots(self.pairs, self.n)
        if len(self.signs) != len(self.pairs):
            raise ValueError("need exactly one sign per pair")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pairs": [list(p) for p in self.pairs],
            "signs": list(self.signs),
        }


def sample_coupling(n: int, k: int, seed: int) -> Coupling:
    """Seeded coupling: one ordered Fisher-Yates draw of 2k distinct
    vertices consumed pairwise as (minus, plus), then k sign bits."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= 2k <= n, got k={k}, n={n}")
    rng = new_generator(seed)
    pairs = _draw_pairs(rng, n, k)
    signs = tuple(rademacher(rng) for _ in range(k))
    return Coupling(n, pairs, signs)


def _draw_pairs(rng, n: int, k: int) -> tuple[Pair, ...]:
    """k disjoint pairs from one ordered draw of 2k vertices of [1..n],
    consumed pairwise as (minus, plus)."""
    flat = sample_ordered(rng, n, 2 * k)
    return tuple(zip(flat[::2], flat[1::2]))


def sign_expansion_table(
    poly: MultilinearPoly, pairs: Sequence[Pair]
) -> dict[SignIndex, Fraction]:
    """All sign-expansion coefficients at once, keyed by ascending index
    tuples; only indices reachable from some surviving support appear.
    Absent indices have coefficient exactly 0."""
    slot = _slots(pairs, poly.n)
    table: dict[SignIndex, Fraction] = {}
    for support, coeff in poly.terms:
        hits = [slot.get(v) for v in support]
        if None in hits or len({i for i, _ in hits}) < len(hits):
            continue  # a vertex off the pairs, or both slots of one pair
        hits.sort()
        weight = coeff / 2 ** len(hits)
        for m in range(len(hits) + 1):
            for chosen in itertools.combinations(hits, m):
                sign = -1 if sum(minus for _, minus in chosen) % 2 else 1
                idx = tuple(i for i, _ in chosen)
                table[idx] = table.get(idx, 0) + sign * weight
    return {idx: c for idx, c in table.items() if c != 0}


class SignExpansionReport(NamedTuple):
    k: int
    coefficients: dict[SignIndex, Fraction]
    max_abs_discrepancy: Fraction
    assignments_checked: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "coefficients": {
                " ".join(map(str, idx)): format_rational(c)
                for idx, c in sorted(self.coefficients.items())
            },
            "max_abs_discrepancy": format_rational(self.max_abs_discrepancy),
            "assignments_checked": self.assignments_checked,
        }


def check_sign_expansion(poly: MultilinearPoly, pairs: Sequence[Pair]) -> SignExpansionReport:
    """Exhaustively verify the expansion identity over all 2^k sign vectors.

    For each sign vector the polynomial is evaluated directly on the
    selected 0/1 vector and compared with the expansion's value; the
    report carries the maximum absolute difference (0 when the identity
    holds, always, since both sides are exact rationals).  The expansion
    is the table's Walsh-Hadamard transform at the pairs whose sign is -1.
    """
    pairs = tuple(pairs)
    slot = _slots(pairs, poly.n)
    k = len(pairs)
    _check_cap("sign variables", k, MAX_SIGN_VARIABLES)
    table = sign_expansion_table(poly, pairs)
    expanded = _subset_transform(range(1, k + 1), table, _walsh)
    # The direct side: supports and chosen slots as masks over the 2k slot
    # bits, and coefficients as integer numerators over one common
    # denominator.  A support with a vertex off the pairs is never chosen.
    den = math.lcm(*(c.denominator for _, c in poly.terms))
    supports = [
        (
            sum(1 << (2 * i - minus) for i, minus in map(slot.get, s)),
            c.numerator * (den // c.denominator),
        )
        for s, c in poly.terms
        if all(v in slot for v in s)
    ]
    all_plus = sum(1 << 2 * i for i in range(1, k + 1))
    worst = Fraction(0)
    for minus_pairs, value in expanded.items():
        chosen = all_plus ^ sum(3 << (2 * i - 1) for i in minus_pairs)
        direct = Fraction(sum(c for m, c in supports if m & chosen == m), den)
        worst = max(worst, abs(direct - value))
    return SignExpansionReport(k, table, worst, 2**k)


def coefficient_bound(d: int, n: int, index_size: int) -> Fraction:
    """Size bound 2^|I| * n^(d - |I|) for a sign-expansion coefficient of a
    degree-<=d polynomial with coefficients bounded by 1."""
    if index_size > d:
        return Fraction(0)
    return Fraction(2**index_size * n ** (d - index_size))
