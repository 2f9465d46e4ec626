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


def _validate_pairs(pairs: Sequence[Pair], n: int) -> tuple[Pair, ...]:
    ps = tuple((int(a), int(b)) for a, b in pairs)
    _vertices((v for p in ps for v in p), n, "coupling", distinct=True)
    return ps


@dataclass(frozen=True)
class Coupling:
    """k disjoint ordered (minus, plus) vertex pairs on [1..n] plus signs."""

    n: int
    pairs: tuple[Pair, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_pairs(self.pairs, self.n)
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
    flat = sample_ordered(rng, n, 2 * k)
    pairs = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(k))
    signs = tuple(rademacher(rng) for _ in range(k))
    return Coupling(n, pairs, signs)


def _expansion_contributions(poly: MultilinearPoly, pairs: Sequence[Pair]):
    """Yield (touched pair index set J(W), minus slots of W, coeff, |W|)
    for every support of ``poly`` that survives the pairing."""
    slot: dict[int, tuple[int, int]] = {}
    for i, (minus, plus) in enumerate(pairs, start=1):
        slot[minus] = (i, -1)
        slot[plus] = (i, 1)
    for support, coeff in poly.terms:
        if not support:
            yield frozenset(), frozenset(), coeff, 0
            continue
        touched: dict[int, int] = {}
        ok = True
        for v in support:
            hit = slot.get(v)
            if hit is None:  # vertex outside the paired set: monomial dies
                ok = False
                break
            idx, side = hit
            if idx in touched:  # both slots of one pair: sigma product is 0
                ok = False
                break
            touched[idx] = side
        if not ok:
            continue
        minus_slots = frozenset(i for i, side in touched.items() if side == -1)
        yield frozenset(touched), minus_slots, coeff, len(support)


def sign_expansion_table(
    poly: MultilinearPoly, pairs: Sequence[Pair]
) -> dict[SignIndex, Fraction]:
    """All sign-expansion coefficients at once, keyed by ascending index
    tuples; only indices reachable from some surviving support appear.
    Absent indices have coefficient exactly 0."""
    ps = _validate_pairs(tuple(pairs), poly.n)
    table: dict[SignIndex, Fraction] = {}
    for touched, minus_slots, coeff, size in _expansion_contributions(poly, ps):
        weight = coeff * Fraction(1, 2**size)
        touched_sorted = sorted(touched)
        for m in range(len(touched_sorted) + 1):
            for idx in itertools.combinations(touched_sorted, m):
                sign = -1 if len(frozenset(idx) & minus_slots) % 2 else 1
                table[idx] = table.get(idx, Fraction(0)) + sign * weight
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
    ps = _validate_pairs(tuple(pairs), poly.n)
    k = len(ps)
    _check_cap("sign variables", k, 20)
    table = sign_expansion_table(poly, ps)
    expanded = _subset_transform(range(1, k + 1), table, _walsh)
    # The direct side: supports and chosen sets as vertex bitmasks, and
    # coefficients as integer numerators over one common denominator.
    den = math.lcm(*(c.denominator for _, c in poly.terms))
    supports = [
        (sum(1 << v for v in s), c.numerator * (den // c.denominator)) for s, c in poly.terms
    ]
    worst = Fraction(0)
    for signs in itertools.product((-1, 1), repeat=k):
        chosen = sum(1 << (p[1] if s == 1 else p[0]) for p, s in zip(ps, signs))
        direct = Fraction(sum(c for m, c in supports if m & chosen == m), den)
        minus = tuple(i for i, s in enumerate(signs, start=1) if s == -1)
        worst = max(worst, abs(direct - expanded[minus]))
    return SignExpansionReport(k, table, worst, 2**k)


def coefficient_bound(d: int, n: int, index_size: int) -> Fraction:
    """Size bound 2^|I| * n^(d - |I|) for a sign-expansion coefficient of a
    degree-<=d polynomial with coefficients bounded by 1."""
    if index_size > d:
        return Fraction(0)
    return Fraction(2**index_size * n ** (d - index_size))
