"""Multilinear polynomials: evaluation, exact value distributions, the
subset-lattice kernels, and the .mlp text format."""

import itertools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats.hypergraph import from_edges
from edgestats.multilinear import (
    MAX_ACTIVE_VARS,
    MultilinearPoly,
    ValueDistribution,
    _cover_sums,
    _subset_transform,
    _walsh,
    _zeta,
    edge_indicator_poly,
    exhaustive_distribution,
    format_mlp,
    parse_mlp,
)


def sample_poly():
    """3 x1 x2 + x3 x4 + 5 x1 on four variables."""
    return MultilinearPoly.from_terms(
        4, {(1, 2): 3, (3, 4): 1, (1,): 5}
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_on_all_boolean_points():
    """Literal oracle: recompute each of the 16 values term by term."""
    p = sample_poly()
    for bits in itertools.product((0, 1), repeat=4):
        expected = 3 * bits[0] * bits[1] + bits[2] * bits[3] + 5 * bits[0]
        assert p.evaluate(bits) == expected


def test_evaluate_accepts_mappings_and_fractions():
    p = sample_poly()
    assert p.evaluate({1: Fraction(1, 2), 2: 1, 3: 0, 4: 7}) == Fraction(4)


def test_evaluate_rejects_bad_inputs():
    p = sample_poly()
    with pytest.raises(ValueError, match="length"):
        p.evaluate((1, 0))
    with pytest.raises(ValueError, match="missing"):
        p.evaluate({1: 1, 2: 1})


def test_coeff_lookup_and_degree():
    p = sample_poly()
    assert p.coeff((2, 1)) == 3
    assert p.coeff((1, 3)) == 0
    assert p.degree == 2
    assert MultilinearPoly.from_terms(3, {}).degree == 0
    assert p.active_variables == (1, 2, 3, 4)


def test_from_terms_rejects_duplicates_and_drops_zeros():
    with pytest.raises(ValueError, match="duplicate"):
        MultilinearPoly.from_terms(3, {(1, 2): 1, (2, 1): 2})
    p = MultilinearPoly.from_terms(3, {(1,): 0, (2,): 2})
    assert p.terms == (((2,), Fraction(2)),)


# ---------------------------------------------------------------------------
# exact distributions


def test_distribution_single_variable_bernoulli():
    p = MultilinearPoly.from_terms(1, {(1,): 1})
    dist = exhaustive_distribution(p, Fraction(1, 3))
    assert dict(dist.atoms) == {Fraction(0): Fraction(2, 3), Fraction(1): Fraction(1, 3)}


def test_distribution_pair_rademacher():
    p = MultilinearPoly.from_terms(2, {(1, 2): 1})
    dist = exhaustive_distribution(p, "rademacher")
    assert dict(dist.atoms) == {Fraction(-1): Fraction(1, 2), Fraction(1): Fraction(1, 2)}


def test_distribution_four_signs():
    p = MultilinearPoly.from_terms(4, {(i,): 1 for i in range(1, 5)})
    dist = exhaustive_distribution(p, "rademacher")
    value, prob = dist.max_point_probability()
    assert (value, prob) == (0, Fraction(6, 16))
    assert dist.interval_probability(0, 2) == Fraction(14, 16)
    assert 3 not in dict(dist.atoms)


def test_distribution_sign_sums_hit_the_central_binomial():
    """sup-point mass of x_1 + ... + x_m under signs is C(m, floor(m/2)) / 2^m."""
    for m in range(1, 21):
        p = MultilinearPoly.from_terms(m, {(i,): 1 for i in range(1, m + 1)})
        _, prob = exhaustive_distribution(p, "rademacher").max_point_probability()
        assert prob == Fraction(comb(m, m // 2), 2**m)


def test_distribution_degenerate_product_loves_zero():
    """(x_1 + x_2)(x_3 + ... + x_m) vanishes whenever the first factor
    does, so the sup-point mass never decays with m."""
    for m in (4, 8, 12):
        terms = {(a, j): 1 for a in (1, 2) for j in range(3, m + 1)}
        p = MultilinearPoly.from_terms(m, terms)
        dist = exhaustive_distribution(p, "rademacher")
        assert dict(dist.atoms)[0] >= Fraction(1, 2)


def test_distribution_power_sums_decay_like_inverse_sqrt():
    """Multilinearised (x_1 + ... + x_m)^d for d = 2, 3: the sup-point
    mass times sqrt(m) stays inside a constant window.  Under x_i^2 = 1
    the powers reduce to m + 2 e_2 and (3m - 2) e_1 + 6 e_3, with e_j the
    elementary symmetric polynomials."""

    def e(m, j, coeff):  # coeff * e_j(x_1, ..., x_m), as a term map
        return dict.fromkeys(itertools.combinations(range(1, m + 1), j), coeff)

    for d in (2, 3):
        for m in range(d, 21):
            terms = e(m, 0, m) | e(m, 2, 2) if d == 2 else e(m, 1, 3 * m - 2) | e(m, 3, 6)
            power = MultilinearPoly.from_terms(m, terms)
            for plus in range(m + 1):
                assert power.evaluate([1] * plus + [-1] * (m - plus)) == (2 * plus - m) ** d
            _, prob = exhaustive_distribution(power, "rademacher").max_point_probability()
            scaled = float(prob) * math.sqrt(m)
            assert 0.4 <= scaled <= 1.7, (d, m, scaled)


def test_distribution_respects_active_variable_cap():
    m = MAX_ACTIVE_VARS + 1
    p = MultilinearPoly.from_terms(m, {(i,): 1 for i in range(1, m + 1)})
    with pytest.raises(ValueError, match="exceeds"):
        exhaustive_distribution(p, "rademacher")


def test_distribution_rejects_unknown_law():
    p = MultilinearPoly.from_terms(1, {(1,): 1})
    with pytest.raises(ValueError, match="law"):
        exhaustive_distribution(p, "gaussian")
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        exhaustive_distribution(p, Fraction(3, 2))


def _fraction_law_branches(law):
    if isinstance(law, str):
        if law.lower() != "rademacher":
            raise ValueError(f"unknown input law {law!r}; use 'rademacher' or a rational p")
        half = Fraction(1, 2)
        return (Fraction(-1), half), (Fraction(1), half)
    p = Fraction(law)
    if not 0 <= p <= 1:
        raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    return (Fraction(0), 1 - p), (Fraction(1), p)


def _fraction_exhaustive_distribution(poly, law):
    """The earlier Fraction body of exhaustive_distribution, kept as its
    oracle: the same memoised recursion on Fraction coefficients and
    probabilities."""
    (v_lo, p_lo), (v_hi, p_hi) = _fraction_law_branches(law)
    memo = {}

    def dist(coeffs):
        shift = coeffs.get((), Fraction(0))
        body = {s: c for s, c in coeffs.items() if s and c != 0}
        key = tuple(sorted(body.items()))
        got = memo.get(key)
        if got is None:
            if not body:
                got = {Fraction(0): Fraction(1)}
            else:
                var = min(s[0] for s in body)
                without, with_v = {}, {}
                for s, c in body.items():
                    if s and s[0] == var:
                        with_v[s[1:]] = c
                    else:
                        without[s] = c
                got = {}
                for value, weight in ((v_lo, p_lo), (v_hi, p_hi)):
                    child = dict(without)
                    for s, c in with_v.items():
                        child[s] = child.get(s, Fraction(0)) + c * value
                    for atom, pr in dist(child).items():
                        got[atom] = got.get(atom, Fraction(0)) + weight * pr
            memo[key] = got
        if shift == 0:
            return got
        return {atom + shift: pr for atom, pr in got.items()}

    got = dist(dict(poly.terms))
    assert sum(got.values()) == 1 and min(got.values()) >= 0
    return ValueDistribution(tuple(sorted((v, p) for v, p in got.items() if p != 0)))


def _random_poly(rng):
    """Up to 8 variables; negative, non-integer and cancelling coefficients,
    sometimes a constant term.  A term may bring a partner on its support
    minus the least variable, with the opposite or the equal coefficient,
    so that setting that variable to 1 or to -1 cancels the pair."""
    n = rng.randint(0, 8)
    terms = {}
    for _ in range(rng.randint(0, 7)):
        support = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))))
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
        terms[support] = c
        if support and rng.random() < 0.4:
            terms[support[1:]] = rng.choice((-c, c))
    return MultilinearPoly.from_terms(n, terms)


@pytest.mark.parametrize(
    "law", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 50), "rademacher"], ids=str
)
def test_distribution_matches_the_fraction_oracle(law):
    rng = random.Random(7)
    for _ in range(150):
        poly = _random_poly(rng)
        dist = exhaustive_distribution(poly, law)
        assert dist == _fraction_exhaustive_distribution(poly, law), format_mlp(poly)
        assert all(type(v) is Fraction and type(p) is Fraction for v, p in dist.atoms)


def test_distribution_matches_the_fraction_oracle_on_symmetric_sums():
    for m in (5, 12, 20):
        sums = MultilinearPoly.from_terms(m, {(i,): Fraction(3, 2) for i in range(1, m + 1)})
        for law in (Fraction(2, 7), "rademacher"):
            assert exhaustive_distribution(sums, law) == _fraction_exhaustive_distribution(sums, law)


def test_edge_indicator_counts_edges():
    g = from_edges(4, 2, [(1, 2), (3, 4)])
    p = edge_indicator_poly(g)
    assert p.evaluate((1, 1, 1, 0)) == 1
    assert p.evaluate((1, 1, 1, 1)) == 2


# ---------------------------------------------------------------------------
# .mlp format


def test_mlp_round_trip():
    p = sample_poly()
    assert parse_mlp(format_mlp(p)) == p


def test_mlp_parses_comments_and_fractions():
    p = parse_mlp("3\n# comment\n1/2 : 1 2\n-5 :\n")
    assert p.coeff((1, 2)) == Fraction(1, 2)
    assert p.coeff(()) == -5


def test_mlp_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_mlp("2\n1 : 2 1\n")  # not ascending
    with pytest.raises(ValueError, match="line 3"):
        parse_mlp("2\n1 : 1\n2 : 1\n")  # duplicate support
    with pytest.raises(ValueError, match="line 1"):
        parse_mlp("x\n")
    with pytest.raises(ValueError, match="empty"):
        parse_mlp("# nothing here\n")


# ---------------------------------------------------------------------------
# the subset-lattice kernels


def _moebius(lo, hi):  # the inverse of _zeta (Moebius inversion)
    return lo, hi - lo


def _subsets(coords):
    return [t for size in range(len(coords) + 1) for t in itertools.combinations(coords, size)]


@given(st.integers(0, 2**30), st.booleans())
@settings(max_examples=40, deadline=None)
def test_subset_transform_matches_each_butterflys_definition(seed, fractions):
    """Each pair function, run through the kernel, equals its sum over the
    subset lattice written out; absent weights count as 0."""
    rng = random.Random(seed)
    coords = tuple(sorted(rng.sample(range(1, 10), rng.randint(0, 6))))
    subsets = _subsets(coords)
    weights = {
        t: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if fractions else rng.randint(-9, 9)
        for t in subsets
        if rng.random() < 0.7
    }

    def w(t):
        return weights.get(t, 0)

    zeta = _subset_transform(coords, weights, _zeta)
    moebius = _subset_transform(coords, weights, _moebius)
    walsh = _subset_transform(coords, weights, _walsh)
    for out in (zeta, moebius, walsh):
        assert sorted(out) == sorted(subsets)
    for t in subsets:
        inside = [s for s in subsets if set(s) <= set(t)]
        assert zeta[t] == sum(w(s) for s in inside)
        assert moebius[t] == sum((-1) ** (len(t) - len(s)) * w(s) for s in inside)
        assert walsh[t] == sum((-1) ** len(set(s) & set(t)) * w(s) for s in subsets)
    assert _subset_transform(coords, zeta, _moebius) == {t: w(t) for t in subsets}


@given(st.integers(0, 2**30), st.booleans())
@settings(max_examples=40, deadline=None)
def test_cover_sums_match_their_definition(seed, fractions):
    """Each size-subset of some support gathers the total weight of the
    supports containing it; size 0 gathers every weight under ()."""
    rng = random.Random(seed)
    terms = [
        (
            tuple(sorted(rng.sample(range(1, 9), rng.randint(0, 5)))),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if fractions else rng.randint(-9, 9),
        )
        for _ in range(rng.randint(0, 8))
    ]
    for size in range(6):
        keys = {a for support, _ in terms for a in itertools.combinations(support, size)}
        expected = {a: sum(w for support, w in terms if set(a) <= set(support)) for a in keys}
        assert _cover_sums(terms, size) == expected
    assert _cover_sums([((), 3), ((1, 2), 4)], 0) == {(): 7}
    assert _cover_sums([((), 3)], 1) == {}
    assert _cover_sums([], 0) == {}
