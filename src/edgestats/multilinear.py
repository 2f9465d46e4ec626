"""Multilinear polynomials with exact rational coefficients.

A polynomial is a finite map from supports (ascending tuples of variable
indices in [1..n]) to nonzero Fractions.  This module provides evaluation,
edge-indicator polynomials of hypergraphs, exact value distributions under
Rademacher or Bernoulli inputs, and the .mlp text format.

``exhaustive_distribution`` is exact over all assignments of the variables
that actually appear.  It recurses on one variable at a time and memoises
subdistributions modulo constant shift, which collapses the symmetric
polynomials used in the anticoncentration experiments to polynomial size
while remaining a plain exhaustive enumeration semantically.  The
recursion adds integer numerators over known denominators (the lcm of
the coefficient denominators for values, a power of the law's
denominator for probabilities) and returns Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .hypergraph import Hypergraph, _check_cap, _vertices
from .serialize import _read_records, format_rational, parse_rational

__all__ = [
    "MultilinearPoly",
    "edge_indicator_poly",
    "ValueDistribution",
    "exhaustive_distribution",
    "parse_mlp",
    "format_mlp",
]

Support = tuple[int, ...]
InputLaw = Union[str, int, Fraction]

MAX_ACTIVE_VARS = 24


def _check_variable_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"variable count must be nonnegative, got {n}")


def _support(ids: Iterable[int], n: int) -> Support:
    return _vertices(ids, n, "support", distinct=True)


@dataclass(frozen=True)
class MultilinearPoly:
    """Immutable multilinear polynomial in variables x_1 .. x_n."""

    n: int
    terms: tuple[tuple[Support, Fraction], ...]

    @classmethod
    def from_terms(cls, n: int, terms: Mapping[Iterable[int], Fraction | int]) -> "MultilinearPoly":
        _check_variable_count(n)
        acc: dict[Support, Fraction] = {}
        for support, coeff in terms.items():
            s = _support(support, n)
            if s in acc:
                raise ValueError(f"duplicate term support {s}")
            acc[s] = Fraction(coeff)
        nonzero = ((s, c) for s, c in acc.items() if c)
        ordered = tuple(sorted(nonzero, key=lambda it: (len(it[0]), it[0])))
        return cls(n, ordered)

    def coeff(self, support: Iterable[int]) -> Fraction:
        s = tuple(sorted(support))
        for sup, c in self.terms:
            if sup == s:
                return c
        return Fraction(0)

    @property
    def degree(self) -> int:
        """Largest support size with a nonzero coefficient; 0 for the zero
        polynomial and for constants."""
        return max((len(s) for s, _ in self.terms), default=0)

    @property
    def active_variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for s, _ in self.terms:
            seen.update(s)
        return tuple(sorted(seen))

    def evaluate(self, x: Sequence[Fraction | int] | Mapping[int, Fraction | int]) -> Fraction:
        """Value at a full input vector; x may be a length-n sequence
        (position i-1 holds x_i) or a mapping from variable index."""
        if isinstance(x, Mapping):
            lookup = {i: Fraction(v) for i, v in x.items()}
        else:
            if len(x) != self.n:
                raise ValueError(f"input vector has length {len(x)}, expected {self.n}")
            lookup = {i + 1: Fraction(v) for i, v in enumerate(x)}
        total = Fraction(0)
        for support, c in self.terms:
            prod = c
            for v in support:
                if v not in lookup:
                    raise ValueError(f"input is missing variable x_{v}")
                prod *= lookup[v]
                if prod == 0:
                    break
            total += prod
        return total


def edge_indicator_poly(graph: Hypergraph) -> MultilinearPoly:
    """Sum of the edge monomials of ``graph``: on 0/1 inputs it counts the
    edges inside the set of coordinates equal to 1."""
    return MultilinearPoly(graph.n, tuple((e, Fraction(1)) for e in graph.edges))


# ---------------------------------------------------------------------------
# The subset-lattice kernels: co-degrees, and Yates' butterfly with its
# two pair functions


def _cover_sums(
    terms: Iterable[tuple[Support, Fraction | int]], size: int
) -> dict[Support, Fraction | int]:
    """For every size-subset A of some support, the total weight of the
    supports containing A, keyed by ascending tuple: with unit weights on
    a graph's edges, the co-degrees d(A)."""
    acc: dict[Support, Fraction | int] = {}
    for support, weight in terms:
        for a in itertools.combinations(support, size):
            acc[a] = acc.get(a, 0) + weight
    return acc


def _subset_transform(coords: Sequence[int], weights: Mapping[Support, Fraction | int], butterfly):
    """For each c in ``coords`` in turn, replace every (subset without c,
    subset with c) pair by butterfly(lo, hi): O(s * 2^s) calls.  ``weights``
    maps ascending tuples over ``coords`` to exact numbers (absent ones are
    0); all 2^s subsets come back, keyed the same way."""
    keys: list[Support] = [()]
    for v in coords:
        keys += [t + (v,) for t in keys]  # bit i of the index is coords[i]
    vals = [weights.get(t, 0) for t in keys]
    for i in range(len(coords)):
        for hi in range(len(vals)):
            if hi >> i & 1:
                lo = hi ^ 1 << i
                vals[lo], vals[hi] = butterfly(vals[lo], vals[hi])
    return dict(zip(keys, vals))


def _zeta(lo, hi):  # sum over subsets: T gathers the weights of every S inside T
    return lo, lo + hi


def _walsh(lo, hi):  # Walsh-Hadamard: M gathers the sum of w_I * (-1)^|I cap M|
    return lo + hi, lo - hi


# ---------------------------------------------------------------------------
# Exact value distributions


@dataclass(frozen=True)
class ValueDistribution:
    """Finite exact distribution of a polynomial's value: sorted atom
    tuple of (value, probability), probabilities summing to 1."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def interval_probability(self, center: Fraction | int, radius: Fraction | int) -> Fraction:
        """Pr[|X - center| <= radius]."""
        c, t = Fraction(center), Fraction(radius)
        return sum((p for v, p in self.atoms if abs(v - c) <= t), Fraction(0))

    def max_point_probability(self) -> tuple[Fraction, Fraction]:
        """(value, probability) of the heaviest atom; ties break toward
        the smallest value."""
        best_v, best_p = self.atoms[0]
        for v, p in self.atoms[1:]:
            if p > best_p:
                best_v, best_p = v, p
        return best_v, best_p


def _law_branches(law: InputLaw) -> tuple[tuple[tuple[int, int], tuple[int, int]], int]:
    """Two (input value, probability numerator) branches for one variable,
    and the probability denominator b they share."""
    if isinstance(law, str):
        if law.lower() != "rademacher":
            raise ValueError(f"unknown input law {law!r}; use 'rademacher' or a rational p")
        return ((-1, 1), (1, 1)), 2
    p = Fraction(law)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    a, b = p.numerator, p.denominator
    return ((0, b - a), (1, a)), b


def exhaustive_distribution(poly: MultilinearPoly, law: InputLaw) -> ValueDistribution:
    """Exact distribution of poly's value when every variable that appears
    is drawn i.i.d. from ``law`` ('rademacher', or a rational p meaning
    Bernoulli(p) on {0, 1}).  Variables that do not appear are irrelevant
    and are not enumerated.  At most 24 active variables.

    The recursion runs on integers: coefficients are scaled by L, the lcm
    of their denominators, so every value is an integer over L, and each
    subdistribution holds integer numerators over b^m, where b is the
    law's probability denominator and m the number of variables branched
    on below it.  One Fraction is built per atom, at the end."""
    active = poly.active_variables
    _check_cap("active variables", len(active), MAX_ACTIVE_VARS)
    branches, b = _law_branches(law)
    scale = math.lcm(*(c.denominator for _, c in poly.terms))

    memo: dict[tuple, tuple[dict[int, int], int]] = {}

    def dist(coeffs: dict[Support, int]) -> tuple[dict[int, int], int]:
        shift = coeffs.get((), 0)
        body = {s: c for s, c in coeffs.items() if s and c != 0}
        key = tuple(sorted(body.items()))
        got = memo.get(key)
        if got is None:
            if not body:
                got = {0: 1}, 0
            else:
                var = min(s[0] for s in body)
                without: dict[Support, int] = {}
                with_v: dict[Support, int] = {}
                for s, c in body.items():
                    if s and s[0] == var:
                        with_v[s[1:]] = c
                    else:
                        without[s] = c
                children = []
                for value, weight in branches:
                    child = dict(without)
                    for s, c in with_v.items():
                        child[s] = child.get(s, 0) + c * value
                    children.append((weight, *dist(child)))
                depth = max(m for _, _, m in children)
                atoms: dict[int, int] = {}
                for weight, child_atoms, m in children:
                    # Bring the child's masses over b^m up to b^depth.
                    factor = weight * b ** (depth - m)
                    for atom, mass in child_atoms.items():
                        atoms[atom] = atoms.get(atom, 0) + factor * mass
                got = atoms, depth + 1
            memo[key] = got
        if shift == 0:
            return got
        atoms, m = got
        return {atom + shift: mass for atom, mass in atoms.items()}, m

    # Supports are ascending tuples, so s[0] is each term's least variable
    # and the recursion always branches on the least active one.
    atoms, m = dist({s: c.numerator * (scale // c.denominator) for s, c in poly.terms})
    denominator = b**m
    if sum(atoms.values()) != denominator or min(atoms.values()) < 0:
        raise ValueError(f"the atom masses over {denominator} are not a probability law")
    # Values are atom / scale with scale > 0, so integer order is value order.
    return ValueDistribution(
        tuple(
            (Fraction(atom, scale), Fraction(mass, denominator))
            for atom, mass in sorted(atoms.items())
            if mass
        )
    )


# ---------------------------------------------------------------------------
# .mlp file format: the header is "<n>", then one term per line as
# "<num>/<den> : v1 v2 ..." (an integer coefficient may drop "/<den>",
# and the constant term lists no variables); the shared rules are in
# serialize._read_records.


def parse_mlp(text: str) -> MultilinearPoly:
    """Parse .mlp text, refusing a bad term as from_terms does, after the
    1-based number of its line."""
    (n,), terms = _read_records(
        text, "<n>", _check_variable_count, _support, "term support", ("coeff", parse_rational)
    )
    return MultilinearPoly.from_terms(n, dict(terms))


def format_mlp(poly: MultilinearPoly) -> str:
    lines = [str(poly.n)]
    for support, coeff in poly.terms:
        vars_part = " ".join(str(v) for v in support)
        lines.append(f"{format_rational(coeff)} : {vars_part}".rstrip())
    return "\n".join(lines) + "\n"
