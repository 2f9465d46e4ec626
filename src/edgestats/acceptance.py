"""The acceptance battery: eleven exactly-specified end-to-end checks.

Each criterion is a standalone function returning a CriterionResult; the
CLI suite runner and the pytest module both consume them, so there is one
source of truth for what was run and whether it passed.  Every battery is
seeded with fixed constants, making outcomes reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .anticonc import (
    hypergeom_binom_tv,
    junta_tv,
    poisson_interval_check,
    slice_covariance,
    slice_moments,
)
from .coupling import _draw_pairs, check_sign_expansion, coefficient_bound
from .cover import greedy_cover, verify_cover
from .discrepancy import signed_discrepancy
from .hypergraph import (
    construct_lift,
    construct_split,
    from_edges,
    random_hypergraph,
    split_target_level,
)
from .multilinear import MultilinearPoly, edge_indicator_poly, exhaustive_distribution
from .profiles import estimate_point
from .rng import new_generator, rand_below, sample_ordered

__all__ = ["CriterionResult", "CRITERIA", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{self.index:2d}] {status}  {self.name}: {self.detail}"

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Criterion 1 and 11 share one seeded battery of (graph, pairing) instances.


@functools.lru_cache(maxsize=1)
def _coupling_battery():
    rng = new_generator(1001)
    out = []
    for _ in range(200):
        r = 2 + rand_below(rng, 2)
        n = r + 1 + rand_below(rng, 12 - r)
        k = 1 + rand_below(rng, min(5, n // 2))
        p = Fraction(1 + rand_below(rng, 3), 4)
        graph = random_hypergraph(n, r, p, rng)
        poly = edge_indicator_poly(graph)
        report = check_sign_expansion(poly, _draw_pairs(rng, n, k))
        out.append((n, r, k, poly, report))
    return out


def criterion_1() -> CriterionResult:
    """Sign-expansion identity, exactly, on 200 seeded random instances."""
    battery = _coupling_battery()
    worst = max(rep.max_abs_discrepancy for *_, rep in battery)
    checked = sum(rep.assignments_checked for *_, rep in battery)
    ok = worst == 0
    return CriterionResult(
        1,
        "coupling identity",
        ok,
        f"200 instances, {checked} sign vectors, max |discrepancy| = {worst}",
    )


def criterion_2() -> CriterionResult:
    """Hypergeometric-vs-binomial TV against (t-1)/(n-1) wherever the
    variance precondition holds, n <= 30, plus the frozen spot values."""
    violations = []
    checked = 0
    for n in range(1, 31):
        for k in range(1, n // 2 + 1):
            for t in range(1, n + 1):
                rep = hypergeom_binom_tv(n, k, t)
                if rep.precondition_met:
                    checked += 1
                    if rep.tv > rep.bound:
                        violations.append((n, k, t))
    spot = hypergeom_binom_tv(8, 4, 4)
    spot_ok = spot.tv == Fraction(39, 280) and spot.bound == Fraction(3, 7)
    spot2 = hypergeom_binom_tv(4, 2, 2)
    spot2_ok = spot2.tv == Fraction(1, 6) and not spot2.precondition_met
    ok = not violations and spot_ok and spot2_ok
    return CriterionResult(
        2,
        "hypergeometric vs binomial TV sweep",
        ok,
        f"{checked} applicable triples, {len(violations)} violations; "
        f"spot tv(8,4,4) = {spot.tv}",
    )


def _random_sparse_poly(rng, max_vars: int = 10) -> MultilinearPoly:
    s = 1 + rand_below(rng, max_vars)
    supports = [
        w for size in range(1, s + 1) for w in itertools.combinations(range(1, s + 1), size)
    ]
    count = 1 + rand_below(rng, min(15, len(supports)))
    idx = list(range(len(supports)))
    terms = {}
    for i in range(count):
        j = i + rand_below(rng, len(idx) - i)
        idx[i], idx[j] = idx[j], idx[i]
        terms[supports[idx[i]]] = 1 + rand_below(rng, 3)
    return MultilinearPoly.from_terms(s, terms)


def criterion_3() -> CriterionResult:
    """Poisson-type interval bound: 500 seeded nonnegative sparse
    polynomials, both p values, in the regime level > 3^s * radius."""
    rng = new_generator(3003)
    failures = 0
    checked = 0
    for _ in range(500):
        poly = _random_sparse_poly(rng)
        s = len(poly.active_variables)
        radius = Fraction(rand_below(rng, 3), 2)  # 0, 1/2 or 1
        total = sum(c for _, c in poly.terms)
        level = Fraction(3) ** s * radius + 1 + rand_below(rng, int(total) + 3)
        for p in (Fraction(1, 50), Fraction(1, 20)):
            rep = poisson_interval_check(poly, p, level, radius)
            checked += 1
            if not rep.precondition_met or not rep.bound_satisfied:
                failures += 1
    ok = failures == 0
    return CriterionResult(
        3,
        "Poisson-type interval bound battery",
        ok,
        f"{checked} checks (500 polynomials x 2 input rates), {failures} violations",
    )


def criterion_4() -> CriterionResult:
    """Exact covariance signs for disjoint monomials and the vanishing
    variance of the full coordinate sum, all n <= 10."""
    bad = []
    checked = 0
    for n in range(1, 11):
        for k in range(n + 1):
            for i in range(1, 4):
                for j in range(1, 4):
                    if i + j > n:
                        continue
                    w = tuple(range(1, i + 1))
                    v = tuple(range(i + 1, i + j + 1))
                    checked += 1
                    if slice_covariance(w, v, n, k) > 0:
                        bad.append((n, k, i, j))
            poly = MultilinearPoly.from_terms(n, {(i,): 1 for i in range(1, n + 1)})
            if slice_moments(poly, n, k).variance != 0:
                bad.append(("sum", n, k))
    ok = not bad
    return CriterionResult(
        4,
        "slice covariance signs",
        ok,
        f"{checked} disjoint covariances nonpositive, coordinate-sum variance 0; "
        f"{len(bad)} failures",
    )


def criterion_5() -> CriterionResult:
    """Lift construction at scale: the empirical point probability at the
    target level agrees with the independence limit and beats 1/e."""
    lifted = construct_lift(2000, 20, 1, 2, seed=55)
    target = Fraction(19, 20) ** 19
    est = estimate_point(lifted.graph, 20, lifted.level, 100000, seed=56)
    gap = abs(float(est.estimate) - float(target))
    above_e = float(est.estimate) > math.exp(-1)
    ok = lifted.level == 19 and gap <= 0.02 and above_e
    return CriterionResult(
        5,
        "lift construction point probability",
        ok,
        f"level {lifted.level}, estimate {float(est.estimate):.5f}, "
        f"limit {float(target):.5f}, |gap| = {gap:.5f}, above 1/e: {above_e}",
    )


def criterion_6() -> CriterionResult:
    """Split construction at scale: empirical mass at level 30 vs the
    exact binomial limit over every level-attaining overlap count."""
    graph = construct_split(400, range(1, 101), 3)
    level = split_target_level(8, 2, 3)
    attaining = [j for j in range(9) if split_target_level(8, j, 3) == level]
    limit = sum(
        Fraction(comb(8, j)) * Fraction(1, 4) ** j * Fraction(3, 4) ** (8 - j)
        for j in attaining
    )
    est = estimate_point(graph, 8, level, 100000, seed=66)
    gap = abs(float(est.estimate) - float(limit))
    ok = level == 30 and attaining == [2, 3] and gap <= 0.02
    return CriterionResult(
        6,
        "split construction point probability",
        ok,
        f"level {level} attained at overlaps {attaining}, estimate "
        f"{float(est.estimate):.5f}, limit {float(limit):.5f} = {limit}, |gap| = {gap:.5f}",
    )


def criterion_7() -> CriterionResult:
    """The coordinate sum's largest Rademacher point mass is exactly the
    central binomial ratio for every m <= 20."""
    bad = []
    for m in range(1, 21):
        poly = MultilinearPoly.from_terms(m, {(i,): 1 for i in range(1, m + 1)})
        _, prob = exhaustive_distribution(poly, "rademacher").max_point_probability()
        if prob != Fraction(comb(m, m // 2), 2**m):
            bad.append(m)
    ok = not bad
    return CriterionResult(
        7,
        "coordinate-sum extremal point mass",
        ok,
        f"m = 1..20 exact central binomial ratios; failures: {bad}",
    )


def criterion_8() -> CriterionResult:
    """Greedy cover soundness: 300 seeded random 3-uniform graphs, every
    certificate terminates under the default cap and verifies."""
    rng = new_generator(8008)
    failures = 0
    pivot_sizes = []
    for _ in range(300):
        n = 4 + rand_below(rng, 6)
        p = Fraction(1 + rand_below(rng, 3), 8)
        graph = random_hypergraph(n, 3, p, rng)
        cert = greedy_cover(graph, 2)
        if not cert.terminated:
            failures += 1
            continue
        pivot_sizes.append(len(cert.pivot))
        if not verify_cover(graph, cert.pivot, 2).ok:
            failures += 1
    ok = failures == 0
    biggest = max(pivot_sizes, default=0)
    return CriterionResult(
        8,
        "greedy cover soundness battery",
        ok,
        f"300 instances, {failures} failures, largest pivot {biggest}",
    )


def criterion_9() -> CriterionResult:
    """Discrepancy totals: 0 for complete and empty graphs (r <= 3,
    n <= 8, every s), 8 for the single-edge spot, with every per-sequence
    weight checked against its size bound during enumeration."""
    bad = []
    sequences = 0
    for r in range(1, 4):
        for n in range(max(2, r), 9):
            edges = list(itertools.combinations(range(1, n + 1), r))
            complete = from_edges(n, r, edges)
            empty = from_edges(n, r, [])
            for s in range(1, r + 1):
                if 2 * s > n:
                    continue
                for graph, name in ((complete, "complete"), (empty, "empty")):
                    rep = signed_discrepancy(graph, s)
                    sequences += rep.sequences_checked
                    if rep.total != 0:
                        bad.append((name, n, r, s, rep.total))
    spot = signed_discrepancy(from_edges(4, 2, [(1, 2)]), 1)
    sequences += spot.sequences_checked
    if spot.total != 8:
        bad.append(("single-edge", spot.total))
    ok = not bad
    return CriterionResult(
        9,
        "discrepancy vanishing and spot totals",
        ok,
        f"{sequences} sequences enumerated under the per-sequence bound; failures: {bad}",
    )


def criterion_10() -> CriterionResult:
    """Junta slice-vs-product TV bound over the full (n, k, s) sweep with
    50 seeded random tables per cell."""
    rng = new_generator(1010)
    failures = 0
    checked = 0
    for n in range(2, 17):
        for k in range(1, n // 2 + 1):
            for s in range(1, min(3, n) + 1):
                for _ in range(50):
                    coords = tuple(sorted(sample_ordered(rng, n, s)))
                    table = {
                        t: rand_below(rng, 4)
                        for size in range(s + 1)
                        for t in itertools.combinations(coords, size)
                    }
                    rep = junta_tv(table, coords, n, k)
                    checked += 1
                    if rep.tv > rep.bound:
                        failures += 1
    ok = failures == 0
    return CriterionResult(
        10,
        "junta TV bound sweep",
        ok,
        f"{checked} tables across n <= 16, k <= n/2, s <= 3; {failures} violations",
    )


def criterion_11() -> CriterionResult:
    """Every sign-expansion coefficient from the criterion-1 battery obeys
    the size bound q 2^|I| n^(d-|I|), at q = 1 as an edge indicator's
    coefficients are 1, and vanishes beyond the degree.  Each instance
    counts its 2^k indices; only those its table holds are read, as an
    absent one is 0 and meets both."""
    battery = _coupling_battery()
    failures = 0
    checked = 0
    for n, r, k, poly, report in battery:
        d = poly.degree
        checked += 2**k
        for idx, a in report.coefficients.items():
            if abs(a) > coefficient_bound(d, n, len(idx)):
                failures += 1
            if len(idx) > d and a != 0:
                failures += 1
    ok = failures == 0
    return CriterionResult(
        11,
        "sign-expansion coefficient size bounds",
        ok,
        f"{checked} coefficients against q 2^|I| n^(d-|I|); {failures} violations",
    )


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_criterion(index: int) -> CriterionResult:
    if index not in CRITERIA:
        raise ValueError(f"no acceptance criterion numbered {index}")
    return CRITERIA[index]()
