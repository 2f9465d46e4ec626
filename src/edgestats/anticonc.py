"""Anticoncentration toolbox: exact total-variation comparisons between
hypergeometric and binomial laws, junta pushforwards of the slice versus
the product measure, Poisson-type interval bounds for nonnegative
polynomials of sparse Bernoulli inputs, and exact slice moments.

All distributions here are finite and every reported probability is a
Fraction.  The TV kernels add integer numerators over a known common
denominator (C(n,k) times a power of n) and build one Fraction per
reported value.  Comparisons against closed-form bounds are exact except
the optional 1/e + gamma convenience, which is irrational and reported as
a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, perm
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .hypergraph import _CLOSED_FORM_CAP, _check_cap, _check_cap_by_bound, _vertices
from .multilinear import MultilinearPoly, _cover_sums, exhaustive_distribution
from .serialize import format_rational

__all__ = [
    "TVReport",
    "hypergeom_binom_tv",
    "max_prob_binomial_one",
    "PoissonReport",
    "poisson_interval_check",
    "junta_tv",
    "slice_monomial_mean",
    "slice_covariance",
    "SliceMoments",
    "slice_moments",
]


class TVReport(NamedTuple):
    tv: Fraction
    bound: Fraction
    precondition_met: bool

    @property
    def violated(self) -> bool:
        """True when the bound was applicable and the distance beats it."""
        return self.precondition_met and self.tv > self.bound

    def to_json_dict(self) -> dict:
        return {
            "tv": format_rational(self.tv),
            "bound": format_rational(self.bound),
            "precondition_met": self.precondition_met,
            "violated": self.violated,
        }


def _comb0(m: int, j: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= j <= m."""
    return comb(m, j) if 0 <= j <= m else 0


# The gaps are s + 1 integers of up to n + s * log2(n) bits (the bits of
# the denominator); the bits, and terms times bits, are refused past these
# before any big-int work.  The slowest accepted calls (n near 10^5, s = 9)
# take about 2.2 s on a 2-core Xeon VM under Python 3.11.
_GAP_BITS_CAP = 10**5
_GAP_WORK_CAP = 10**6


def _slice_product_gaps(n: int, k: int, s: int) -> tuple[list[int], int]:
    """For j = 0..s, the slice mass minus the product mass of one j-subset
    of s fixed coordinates, as numerators over the common denominator
    C(n,k) * n^s, which comes second: a uniform k-subset of [1..n] meets
    the coordinates in exactly that subset with probability
    C(n-s,k-j) / C(n,k), and i.i.d. Bernoulli(k/n) inputs with probability
    k^j * (n-k)^(s-j) / n^s.  Needs 0 <= k, s <= n."""
    bits = n + s * n.bit_length()
    _check_cap(f"bits of C({n},{k}) * {n}^{s}", bits, _GAP_BITS_CAP)
    _check_cap(f"{s + 1} gap terms times {bits} bits", (s + 1) * bits, _GAP_WORK_CAP)
    total, scale = comb(n, k), n**s
    gaps = [
        _comb0(n - s, k - j) * scale - total * k**j * (n - k) ** (s - j)
        for j in range(s + 1)
    ]
    return gaps, total * scale


def hypergeom_binom_tv(n: int, k: int, t: int) -> TVReport:
    """Exact TV distance between the k-out-of-n hypergeometric overlap law
    on a t-set and Binomial(t, k/n), against the bound (t-1)/(n-1).

    Over the common denominator C(n,k) * n^t both point masses at j carry
    the factor C(t,j), so TV = sum_j C(t,j) * |C(n-t,k-j) * n^t -
    C(n,k) * k^j * (n-k)^(t-j)| / (2 * C(n,k) * n^t).  The bound is only
    claimed when (k/n)(1-k/n)t >= 1, that is k(n-k)t >= n^2; the report
    records whether that held.
    """
    if n < 1:
        raise ValueError(f"Binomial(t, k/n) needs n >= 1, got n={n}")
    if not (0 <= k <= n and 0 <= t <= n):
        raise ValueError(f"need 0 <= k, t <= n, got n={n}, k={k}, t={t}")
    gaps, denominator = _slice_product_gaps(n, k, t)
    numerator = sum(comb(t, j) * abs(gap) for j, gap in enumerate(gaps))
    tv = Fraction(numerator, 2 * denominator)
    bound = Fraction(t - 1, n - 1) if n >= 2 else Fraction(0)
    return TVReport(tv, bound, k * (n - k) * t >= n * n)


def max_prob_binomial_one(p: Fraction) -> Fraction:
    """max over trial counts m >= 1 of Pr[Binomial(m, p) = 1], exactly.

    The point mass m*p*(1-p)^(m-1) rises while m <= 1/p - 1 and falls
    after, so the maximum is at m = floor(1/p).  Refuses, before raising
    1 - p = (b - a)/b to that power, a denominator b^(m-1) past
    _CLOSED_FORM_CAP.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError(f"need p in (0, 1], got {p}")
    b = p.denominator
    m = b // p.numerator
    _check_cap_by_bound(
        f"denominator {b}^{m - 1} of (1 - p)^{m - 1}",
        (m - 1) * (b.bit_length() - 1),
        lambda: b ** (m - 1),
        _CLOSED_FORM_CAP,
    )
    return m * p * (1 - p) ** (m - 1)


@dataclass(frozen=True)
class PoissonReport:
    """Exact interval mass of a nonnegative sparse polynomial under
    Bernoulli(p) inputs, compared against the binomial point-mass bound
    (exact) and optionally against 1/e + gamma (float)."""

    probability: Fraction
    binomial_bound: Fraction
    precondition_met: bool
    bound_satisfied: bool
    active_count: int
    level: Fraction
    radius: Fraction
    p: Fraction
    e_bound: float | None = None
    e_bound_satisfied: bool | None = None

    def to_json_dict(self) -> dict:
        d = {
            "probability": format_rational(self.probability),
            "binomial_bound": format_rational(self.binomial_bound),
            "precondition_met": self.precondition_met,
            "bound_satisfied": self.bound_satisfied,
            "active_count": self.active_count,
            "level": format_rational(self.level),
            "radius": format_rational(self.radius),
            "p": format_rational(self.p),
        }
        if self.e_bound is not None:
            d["e_bound"] = repr(self.e_bound)
            d["e_bound_satisfied"] = self.e_bound_satisfied
        return d


def poisson_interval_check(
    poly: MultilinearPoly,
    p: Fraction,
    level: Fraction | int,
    radius: Fraction | int,
    *,
    gamma: float | None = None,
) -> PoissonReport:
    """Exact Pr[|poly(inputs) - level| <= radius] under i.i.d. Bernoulli(p)
    inputs on the active variables, versus max_prob_binomial_one(p).

    Requires nonnegative coefficients and zero constant term (errors
    otherwise).  The regime hypothesis level > 3^s * radius, s the active
    variable count, is reported as ``precondition_met``, not enforced.
    """
    if any(c < 0 for _, c in poly.terms):
        raise ValueError("polynomial has a negative coefficient")
    if poly.coeff(()) != 0:
        raise ValueError("polynomial has a nonzero constant term")
    _check_cap("active variables", len(poly.active_variables), 20)
    p = Fraction(p)
    level = Fraction(level)
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if gamma is not None and not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    s = len(poly.active_variables)
    bound = max_prob_binomial_one(p)
    dist = exhaustive_distribution(poly, p)
    prob = dist.interval_probability(level, radius)
    precondition = level > Fraction(3) ** s * radius
    report = PoissonReport(
        probability=prob,
        binomial_bound=bound,
        precondition_met=precondition,
        bound_satisfied=prob <= bound,
        active_count=s,
        level=level,
        radius=radius,
        p=p,
    )
    if gamma is not None:
        e_bound = math.exp(-1.0) + gamma
        report = replace(report, e_bound=e_bound, e_bound_satisfied=float(prob) <= e_bound)
    return report


def _junta_coords(coords: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """The checked, ascending coordinates of a junta on the k-slice of
    [1..n]; refuses more than 14 before any 2^s table is built."""
    s_coords = _vertices(coords, n, "junta", distinct=True)
    _check_cap(f"2^{len(s_coords)} junta table entries", 1 << len(s_coords), 1 << 14)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    return s_coords


def junta_tv(
    table: Mapping[tuple[int, ...], Hashable],
    coords: Sequence[int],
    n: int,
    k: int,
) -> TVReport:
    """TV distance between the pushforwards of a coordinate-junta under
    the uniform k-slice of [1..n] and under i.i.d. Bernoulli(k/n).

    ``table`` must assign a value to every subset of ``coords`` (keys are
    ascending tuples).  Requires k <= n/2; the claimed bound is
    (max(s, 2n/k) - 1)/(n - 1) with s = len(coords).
    """
    s_coords = _junta_coords(coords, n, k)
    s = len(s_coords)
    gaps, denominator = _slice_product_gaps(n, k, s)
    law_gap: dict[Hashable, int] = {}
    for size in range(s + 1):
        for t in itertools.combinations(s_coords, size):
            if t not in table:
                raise ValueError(f"table is missing the subset {t}")
            v = table[t]
            law_gap[v] = law_gap.get(v, 0) + gaps[size]
    tv = Fraction(sum(abs(g) for g in law_gap.values()), 2 * denominator)
    bound = (max(Fraction(s), Fraction(2 * n, k)) - 1) / (n - 1)
    return TVReport(tv, bound, True)


# ---------------------------------------------------------------------------
# Exact slice moments

# slice_moments tabulates every subset of every support, sum of 2^|S|
# entries, and refuses up front to tabulate more than this.
MOMENT_SUBSET_CAP = 2**20


def slice_monomial_mean(size: int, n: int, k: int) -> Fraction:
    """E of a 0/1 monomial on a given support size under the uniform
    k-slice: the falling-factorial ratio (k)_size / (n)_size."""
    if not 0 <= k <= n:
        raise ValueError(f"slice weight {k} outside [0..{n}]")
    if size < 0 or size > n:
        raise ValueError(f"support size {size} outside [0..{n}]")
    return Fraction(perm(k, size), perm(n, size))


def slice_covariance(w: Iterable[int], t: Iterable[int], n: int, k: int) -> Fraction:
    """Exact covariance of the 0/1 monomials on supports w and t under the
    uniform k-slice of [1..n]; the supports may overlap."""
    ws, ts = frozenset(w), frozenset(t)
    union = _vertices(ws | ts, n, "support union")
    return slice_monomial_mean(len(union), n, k) - slice_monomial_mean(
        len(ws), n, k
    ) * slice_monomial_mean(len(ts), n, k)


class SliceMoments(NamedTuple):
    mean: Fraction
    variance: Fraction

    def to_json_dict(self) -> dict:
        return {"mean": format_rational(self.mean), "variance": format_rational(self.variance)}


def slice_moments(poly: MultilinearPoly, n: int, k: int) -> SliceMoments:
    """Exact mean and variance of ``poly`` on the uniform k-slice of [1..n].

    The variance never loops over support pairs.  Grouping supports by
    size, the pair mass at each intersection size j follows by binomial
    inversion from the subset sums S_o = sum over o-sets A of (total
    coefficient weight covering A) squared, each computable in one pass
    over the supports; covariances then depend only on (sizes, j).  The
    tables hold every subset of every support, so supports with more than
    MOMENT_SUBSET_CAP subsets in all are refused before they are built.
    """
    if not 0 <= k <= n:
        raise ValueError(f"slice weight {k} outside [0..{n}]")
    _vertices(poly.active_variables, n, "polynomial")
    _check_cap("support subsets", sum(1 << len(s) for s, _ in poly.terms), MOMENT_SUBSET_CAP)

    mean = sum(
        (c * slice_monomial_mean(len(s), n, k) for s, c in poly.terms), Fraction(0)
    )

    classes: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for s, c in poly.terms:
        classes.setdefault(len(s), []).append((s, c))

    # cover[w][o]: o-subset -> total coefficient weight of size-w supports
    # containing it.
    cover = {w: [_cover_sums(members, o) for o in range(w + 1)] for w, members in classes.items()}

    mono_cache: dict[int, Fraction] = {}

    def mono(w: int) -> Fraction:
        # Only reached with w <= n: a nonzero pair mass certifies a pair of
        # supports whose union has exactly w vertices inside [1..n].
        if w not in mono_cache:
            mono_cache[w] = slice_monomial_mean(w, n, k)
        return mono_cache[w]

    variance = Fraction(0)
    sizes = sorted(classes)
    for i, w1 in enumerate(sizes):
        for w2 in sizes[i:]:
            omax = min(w1, w2)
            subset_sums = []
            for o in range(omax + 1):
                d1, d2 = cover[w1][o], cover[w2][o]
                if len(d2) < len(d1):
                    d1, d2 = d2, d1
                subset_sums.append(
                    sum((v * d2[a] for a, v in d1.items() if a in d2), Fraction(0))
                )
            contrib = Fraction(0)
            for j in range(omax + 1):
                pair_mass = sum(
                    (-1) ** (o - j) * comb(o, j) * subset_sums[o]
                    for o in range(j, omax + 1)
                )
                if pair_mass:
                    contrib += pair_mass * (mono(w1 + w2 - j) - mono(w1) * mono(w2))
            variance += contrib if w1 == w2 else 2 * contrib
    return SliceMoments(mean, variance)
