"""Anticoncentration toolbox: hypergeometric-vs-binomial TV, the
binomial point-mass bound, interval checks for sparse nonnegative
polynomials, junta TV on the slice, and exact slice moments."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, e

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats.anticonc import (
    TVReport,
    _comb0,
    _junta_coords,
    hypergeom_binom_tv,
    junta_tv,
    max_prob_binomial_one,
    poisson_interval_check,
    slice_covariance,
    slice_monomial_mean,
    slice_moments,
)
from edgestats.hypergraph import random_hypergraph
from edgestats.multilinear import MultilinearPoly, edge_indicator_poly
from edgestats.profiles import exact_profile


# ---------------------------------------------------------------------------
# hypergeometric vs binomial


def _hypergeom_pmf(n, k, t):
    """Law of |U cap T| for a uniform k-subset U of [1..n] and a fixed
    t-set T, on the full index range 0..t (zeros included).  The earlier
    public hypergeom_pmf, kept with _binom_pmf as the Fraction oracle of
    hypergeom_binom_tv."""
    if not (0 <= k <= n and 0 <= t <= n):
        raise ValueError(f"need 0 <= k, t <= n, got n={n}, k={k}, t={t}")
    total = comb(n, k)
    return {j: Fraction(comb(t, j) * _comb0(n - t, k - j), total) for j in range(t + 1)}


def _binom_pmf(t, p):
    """Binomial(t, p) point masses on 0..t, exactly."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
    q = 1 - p
    return {j: comb(t, j) * p**j * q ** (t - j) for j in range(t + 1)}


def _fraction_hypergeom_binom_tv(n, k, t):
    """The earlier Fraction body of hypergeom_binom_tv, kept as its oracle."""
    if n < 1:
        raise ValueError(f"Binomial(t, k/n) needs n >= 1, got n={n}")
    hyp = _hypergeom_pmf(n, k, t)
    p = Fraction(k, n)
    binom = _binom_pmf(t, p)
    tv = sum((abs(hyp[j] - binom[j]) for j in range(t + 1)), Fraction(0)) / 2
    bound = Fraction(t - 1, n - 1) if n >= 2 else Fraction(0)
    precondition = p * (1 - p) * t >= 1
    return TVReport(tv, bound, precondition)


def test_hypergeom_pmf_is_a_distribution():
    pmf = _hypergeom_pmf(10, 4, 3)
    assert sum(pmf.values()) == 1
    assert pmf[0] == Fraction(comb(7, 4), comb(10, 4))
    assert sum(_binom_pmf(7, Fraction(2, 5)).values()) == 1


def test_tv_matches_the_fraction_oracle():
    for n in range(1, 31):
        for k in range(n + 1):
            for t in range(n + 1):
                report = hypergeom_binom_tv(n, k, t)
                assert report == _fraction_hypergeom_binom_tv(n, k, t), (n, k, t)
                assert type(report.tv) is Fraction and type(report.bound) is Fraction


@pytest.mark.parametrize(
    "n, k, t, message",
    [
        (0, 0, 0, "n >= 1"),
        (-3, -1, -1, "n >= 1"),
        (0, 9, 9, "n >= 1"),
        (5, 9, 2, "need 0 <= k, t <= n, got n=5, k=9, t=2"),
        (5, 2, 9, "need 0 <= k, t <= n, got n=5, k=2, t=9"),
        (5, -1, 2, "need 0 <= k, t <= n, got n=5, k=-1, t=2"),
        (5, 2, -1, "need 0 <= k, t <= n, got n=5, k=2, t=-1"),
    ],
)
def test_tv_refuses_as_the_oracle_did(n, k, t, message):
    for tv in (hypergeom_binom_tv, _fraction_hypergeom_binom_tv):
        with pytest.raises(ValueError, match=message):
            tv(n, k, t)


def test_tv_spot_values():
    report = hypergeom_binom_tv(8, 4, 4)
    assert report.tv == Fraction(39, 280)
    assert report.bound == Fraction(3, 7)
    assert report.precondition_met
    assert not report.violated

    small = hypergeom_binom_tv(4, 2, 2)
    assert small.tv == Fraction(1, 6)
    assert not small.precondition_met
    assert not small.violated


def test_tv_vanishes_for_single_draws():
    for n in range(2, 8):
        for k in range(1, n + 1):
            assert hypergeom_binom_tv(n, k, 1).tv == 0


def test_tv_rejects_an_empty_ground_set():
    # Binomial(t, k/n) has no rate at n = 0.
    with pytest.raises(ValueError, match="n >= 1"):
        hypergeom_binom_tv(0, 0, 0)


def test_tv_bound_holds_across_a_sweep():
    for n in range(2, 26):
        for k in range(0, n + 1):
            for t in range(1, n + 1):
                report = hypergeom_binom_tv(n, k, t)
                assert not report.violated


# ---------------------------------------------------------------------------
# binomial point mass


def test_max_prob_binomial_one_values():
    assert max_prob_binomial_one(Fraction(1)) == 1
    assert max_prob_binomial_one(Fraction(1, 2)) == Fraction(1, 2)
    near_e = max_prob_binomial_one(Fraction(1, 100))
    assert 1 / e < float(near_e) < 1 / e + 0.01
    with pytest.raises(ValueError):
        max_prob_binomial_one(Fraction(0))


def test_max_prob_binomial_one_dominates_every_trial_count():
    for p in (Fraction(1, 7), Fraction(2, 5), Fraction(9, 10)):
        best = max_prob_binomial_one(p)
        for m in range(1, 60):
            assert m * p * (1 - p) ** (m - 1) <= best


def _scanned_max_prob_binomial_one(p):
    """The earlier forward scan, kept as the oracle of the closed form."""
    best = p  # m = 1
    m = 2
    while True:
        cur = m * p * (1 - p) ** (m - 1)
        if cur < best:
            return best
        best = cur
        m += 1


def test_max_prob_binomial_one_matches_the_scan():
    for b in range(1, 61):
        for a in range(1, b + 1):
            p = Fraction(a, b)
            assert max_prob_binomial_one(p) == _scanned_max_prob_binomial_one(p), p


# ---------------------------------------------------------------------------
# interval checks


def test_poisson_single_variable():
    p = MultilinearPoly.from_terms(1, {(1,): 1})
    report = poisson_interval_check(p, Fraction(1, 100), 1, 0)
    assert report.probability == Fraction(1, 100)
    assert report.bound_satisfied
    assert report.precondition_met
    assert report.e_bound is None


def test_poisson_sum_of_five():
    p = MultilinearPoly.from_terms(5, {(i,): 1 for i in range(1, 6)})
    report = poisson_interval_check(p, Fraction(1, 10), 1, 0)
    assert report.probability == 5 * Fraction(1, 10) * Fraction(9, 10) ** 4
    assert report.active_count == 5


def test_poisson_mixed_coefficients():
    p = MultilinearPoly.from_terms(2, {(1,): 2, (2,): 1, (1, 2): 1})
    report = poisson_interval_check(p, Fraction(1, 10), 2, 0)
    assert report.probability == Fraction(9, 100)


def test_poisson_radius_widens_the_event():
    p = MultilinearPoly.from_terms(2, {(1,): 2, (2,): 1, (1, 2): 1})
    report = poisson_interval_check(p, Fraction(1, 10), 2, 1)
    # |F - 2| <= 1 catches F in {1, 2}: (0,1) and (1,0)
    assert report.probability == Fraction(9, 100) + Fraction(9, 100)
    assert not report.precondition_met  # 2 > 9 * 1 fails


def test_poisson_gamma_adds_the_float_comparison():
    p = MultilinearPoly.from_terms(1, {(1,): 1})
    report = poisson_interval_check(p, Fraction(1, 50), 1, 0, gamma=0.05)
    assert report.e_bound == pytest.approx(1 / e + 0.05)
    assert report.e_bound_satisfied


def test_poisson_rejects_bad_polynomials():
    with pytest.raises(ValueError, match="negative"):
        poisson_interval_check(
            MultilinearPoly.from_terms(1, {(1,): -1}), Fraction(1, 2), 0, 0
        )
    with pytest.raises(ValueError, match="constant"):
        poisson_interval_check(
            MultilinearPoly.from_terms(1, {(): 1, (1,): 1}), Fraction(1, 2), 1, 0
        )
    wide = MultilinearPoly.from_terms(21, {(i,): 1 for i in range(1, 22)})
    with pytest.raises(ValueError, match="cap of 20"):
        poisson_interval_check(wide, Fraction(1, 2), 1, 0)
    with pytest.raises(ValueError, match="radius"):
        poisson_interval_check(
            MultilinearPoly.from_terms(1, {(1,): 1}), Fraction(1, 2), 1, -1
        )
    for gamma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="gamma must be finite"):
            poisson_interval_check(
                MultilinearPoly.from_terms(1, {(1,): 1}), Fraction(1, 2), 1, 0, gamma=gamma
            )


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_poisson_bound_on_random_sparse_polynomials(seed):
    """The binomial point-mass bound holds for every nonnegative sparse
    polynomial, level, and radius in this fuzz family."""
    import random

    rnd = random.Random(seed)
    s = rnd.randint(1, 6)
    supports = [
        tuple(sorted(sup))
        for size in range(1, s + 1)
        for sup in itertools.combinations(range(1, s + 1), size)
    ]
    chosen = rnd.sample(supports, rnd.randint(1, min(6, len(supports))))
    poly = MultilinearPoly.from_terms(s, {sup: rnd.randint(1, 3) for sup in chosen})
    total = sum(c for _, c in poly.terms)
    radius = Fraction(rnd.randint(0, 2), 2)
    level = Fraction(3) ** s * radius + 1 + rnd.randint(0, int(total) + 2)
    for p in (Fraction(1, 50), Fraction(1, 20)):
        report = poisson_interval_check(poly, p, level, radius)
        assert report.precondition_met
        assert report.bound_satisfied


# ---------------------------------------------------------------------------
# junta TV on the slice


def test_junta_tv_single_coordinate_is_exact():
    table = {(): "lo", (1,): "hi"}
    report = junta_tv(table, (1,), 10, 4)
    assert report.tv == 0


def test_junta_tv_pair_product():
    table = {(): 0, (1,): 0, (2,): 0, (1, 2): 1}
    report = junta_tv(table, (1, 2), 4, 2)
    assert report.tv == Fraction(1, 12)
    assert report.bound == 1
    assert not report.violated


def test_junta_tv_constant_table():
    table = {t: "same" for size in range(4) for t in itertools.combinations((2, 5, 7), size)}
    assert junta_tv(table, (2, 5, 7), 20, 6).tv == 0


def _fraction_junta_tv(table, coords, n, k):
    """The earlier Fraction body of junta_tv, kept as its oracle."""
    s_coords = _junta_coords(coords, n, k)
    s = len(s_coords)
    p = Fraction(k, n)
    total = comb(n, k)
    slice_law, product_law = {}, {}
    for size in range(s + 1):
        for t in itertools.combinations(s_coords, size):
            if t not in table:
                raise ValueError(f"table is missing the subset {t}")
            v = table[t]
            pr_slice = Fraction(_comb0(n - s, k - size), total)
            pr_prod = p**size * (1 - p) ** (s - size)
            slice_law[v] = slice_law.get(v, Fraction(0)) + pr_slice
            product_law[v] = product_law.get(v, Fraction(0)) + pr_prod
    tv = sum((abs(slice_law[v] - product_law[v]) for v in slice_law), Fraction(0)) / 2
    bound = (max(Fraction(s), Fraction(2 * n, k)) - 1) / (n - 1)
    return TVReport(tv, bound, True)


@pytest.mark.parametrize("seed", range(12))
def test_junta_tv_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    pool = ["lo", "hi", "", 0, 1, -2, Fraction(1, 2), (1, 2), None]
    for _ in range(40):
        s = rng.randint(0, 6)
        n = rng.randint(max(2, s), 24)
        k = rng.randint(1, n // 2)
        coords = rng.sample(range(1, n + 1), s)
        values = rng.sample(pool, rng.randint(1, len(pool)))
        table = {
            t: rng.choice(values)
            for size in range(s + 1)
            for t in itertools.combinations(sorted(coords), size)
        }
        report = junta_tv(table, coords, n, k)
        assert report == _fraction_junta_tv(table, coords, n, k), (table, coords, n, k)
        assert type(report.tv) is Fraction


def test_junta_tv_validation():
    table = {(): 0, (1,): 1}
    with pytest.raises(ValueError, match=re.escape("junta (1, 1) repeats a vertex")):
        junta_tv(table, (1, 1), 8, 3)
    with pytest.raises(ValueError, match="k <= n/2"):
        junta_tv(table, (1,), 8, 5)
    with pytest.raises(ValueError, match="missing"):
        junta_tv({(): 0}, (1,), 8, 3)
    wide = tuple(range(1, 16))
    with pytest.raises(ValueError, match="cap"):
        junta_tv({}, wide, 40, 10)


# ---------------------------------------------------------------------------
# slice moments


def test_slice_monomial_mean_values():
    assert slice_monomial_mean(0, 6, 3) == 1
    assert slice_monomial_mean(1, 6, 3) == Fraction(1, 2)
    assert slice_monomial_mean(2, 4, 2) == Fraction(1, 6)
    assert slice_monomial_mean(5, 6, 3) == 0  # more vertices than the slice


def test_slice_monomial_mean_is_the_product_of_the_draw_ratios():
    """Pr[a fixed size-set lies inside a uniform k-subset] is the product,
    over its vertices in turn, of (k - i) / (n - i)."""
    for n in range(9):
        for k in range(n + 1):
            for size in range(n + 1):
                expected = Fraction(1)
                for i in range(size):
                    expected *= Fraction(k - i, n - i)
                assert slice_monomial_mean(size, n, k) == expected, (size, n, k)


@pytest.mark.parametrize("size, n, k", [(1, 4, 5), (0, 4, -1), (0, 0, 1)])
def test_slice_monomial_mean_refuses_a_weight_outside_the_slice(size, n, k):
    with pytest.raises(ValueError, match=rf"^slice weight {k} outside \[0\.\.{n}\]$"):
        slice_monomial_mean(size, n, k)


def test_slice_covariance_spots():
    assert slice_covariance((1,), (2,), 4, 2) == Fraction(-1, 12)
    assert slice_covariance((1, 2), (1, 2), 4, 2) == Fraction(5, 36)
    assert slice_covariance((1, 2), (2, 3), 4, 2) == Fraction(-1, 36)


def test_disjoint_monomials_never_correlate_positively():
    for n in range(2, 9):
        for k in range(0, n + 1):
            for a in range(1, n):
                for b in range(1, n - a + 1):
                    w = tuple(range(1, a + 1))
                    t = tuple(range(a + 1, a + b + 1))
                    assert slice_covariance(w, t, n, k) <= 0


def test_slice_moments_of_a_sum_are_degenerate():
    poly = MultilinearPoly.from_terms(6, {(i,): 1 for i in range(1, 7)})
    mom = slice_moments(poly, 6, 4)
    assert mom.mean == 4
    assert mom.variance == 0


def test_slice_moments_match_the_exact_profile():
    g = random_hypergraph(7, 2, Fraction(1, 2), 321)
    k = 3
    mom = slice_moments(edge_indicator_poly(g), 7, k)
    prof = exact_profile(g, k)
    assert mom.mean == prof.mean()
    second = Fraction(
        sum(lvl * lvl * mult for lvl, mult in prof.counts.items()), prof.total
    )
    assert mom.variance == second - prof.mean() ** 2


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    st.dictionaries(
        st.sampled_from(
            [
                tuple(s)
                for size in range(1, 4)
                for s in itertools.combinations(range(1, 6), size)
            ]
        ),
        coeffs,
        max_size=5,
    ),
    st.integers(0, 5),
)
@settings(max_examples=50, deadline=None)
def test_grouped_variance_equals_the_pair_loop(terms, k):
    """The grouped variance agrees with the naive double loop over
    support pairs, coefficient by coefficient."""
    poly = MultilinearPoly.from_terms(5, terms)
    mom = slice_moments(poly, 5, k)
    naive = Fraction(0)
    body = [(s, c) for s, c in poly.terms if s]
    for s1, c1 in body:
        for s2, c2 in body:
            naive += c1 * c2 * slice_covariance(s1, s2, 5, k)
    assert mom.variance == naive


def test_variance_growth_stays_polynomially_tame():
    """Seeded half-density graphs at the half slice: the variance of the
    induced edge count stays below n^(2r-2) as n grows."""
    for r in (2, 3):
        for n in range(4 * r, 61, 8):
            g = random_hypergraph(n, r, Fraction(1, 2), 1000 + n)
            mom = slice_moments(edge_indicator_poly(g), n, n // 2)
            assert 0 < mom.variance <= n ** (2 * r - 2)


def test_slice_moments_validation():
    poly = MultilinearPoly.from_terms(9, {(9,): 1})
    message = "polynomial (9,) leaves the vertex range [1..5]"
    with pytest.raises(ValueError, match=re.escape(message)):
        slice_moments(poly, 5, 2)
    with pytest.raises(ValueError, match="slice weight"):
        slice_moments(MultilinearPoly.from_terms(4, {}), 4, 5)


def test_slice_moments_refuses_too_many_support_subsets():
    # Two 20-variable supports have 2 * 2^20 subsets to tabulate.
    poly = MultilinearPoly.from_terms(21, {tuple(range(1, 21)): 1, tuple(range(2, 22)): 1})
    with pytest.raises(ValueError, match="support subsets = 2097152 exceeds the cap of 1048576"):
        slice_moments(poly, 21, 10)
