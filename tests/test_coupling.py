"""Sign expansions over pair couplings: exact coefficients, the
exhaustive expansion identity, and size bounds."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestats import coupling
from edgestats.coupling import (
    Coupling,
    check_sign_expansion,
    coefficient_bound,
    sample_coupling,
    sign_expansion_table,
)
from edgestats.hypergraph import (
    from_edges,
    induced_edge_count,
    matching_number,
    random_hypergraph,
)
from edgestats.multilinear import MultilinearPoly, edge_indicator_poly
from edgestats.rng import new_generator, rand_below, sample_ordered


# ---------------------------------------------------------------------------
# coupling objects


def test_coupling_validation():
    with pytest.raises(ValueError, match=re.escape("coupling (1, 2, 2, 3) repeats a vertex")):
        Coupling(4, ((1, 2), (2, 3)), (1, 1))
    with pytest.raises(ValueError, match="range"):
        Coupling(4, ((1, 5),), (1,))
    with pytest.raises(ValueError, match="one sign per pair"):
        Coupling(4, ((1, 2),), (1, -1))
    with pytest.raises(ValueError, match="signs"):
        Coupling(4, ((1, 2),), (0,))


def test_sample_coupling_determinism():
    a = sample_coupling(10, 3, seed=5)
    b = sample_coupling(10, 3, seed=5)
    assert a == b
    assert a.k == 3
    assert len({v for pair in a.pairs for v in pair}) == 6


def test_sample_coupling_tight_fit_uses_every_vertex():
    c = sample_coupling(8, 4, seed=17)
    assert {v for pair in c.pairs for v in pair} == set(range(1, 9))
    with pytest.raises(ValueError, match="2k <= n"):
        sample_coupling(7, 4, seed=0)


def test_sample_coupling_rejects_a_negative_pair_count():
    with pytest.raises(ValueError, match="k=-1"):
        sample_coupling(10, -1, seed=0)


# ---------------------------------------------------------------------------
# frozen worked examples for the expansion coefficients


def expansion_coefficient(poly, pairs, index):
    """The coefficient of the sign monomial prod_{i in index} xi_i, read
    off the module docstring term by term: a support W inside the paired
    vertices that holds no pair entirely touches the pairs J(W), and feeds
    the index I when I lies in J(W), with weight (-1)^(minus slots of I hit
    by W) times its coefficient times 2^(-|W|)."""
    paired = {v for pair in pairs for v in pair}
    total = Fraction(0)
    for support, coeff in poly.terms:
        w = set(support)
        if not w <= paired or any(set(pair) <= w for pair in pairs):
            continue
        touched = {i for i, pair in enumerate(pairs, start=1) if w & set(pair)}
        if set(index) <= touched:
            minus_hits = sum(1 for i in index if pairs[i - 1][0] in w)
            total += (-1) ** minus_hits * coeff / 2 ** len(w)
    return total


def test_single_variable_on_its_plus_slot():
    # x_1 with pair (minus=2, plus=1) selects x_1 = (1 + sign)/2.
    p = MultilinearPoly.from_terms(2, {(1,): 1})
    table = sign_expansion_table(p, [(2, 1)])
    assert table == {(): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_single_variable_on_its_minus_slot():
    # x_1 with pair (minus=1, plus=2) selects x_1 = (1 - sign)/2.
    p = MultilinearPoly.from_terms(2, {(1,): 1})
    table = sign_expansion_table(p, [(1, 2)])
    assert table == {(): Fraction(1, 2), (1,): Fraction(-1, 2)}


def test_product_of_two_plus_slots():
    p = MultilinearPoly.from_terms(4, {(1, 2): 1})
    table = sign_expansion_table(p, [(3, 1), (4, 2)])
    assert table == {
        (): Fraction(1, 4),
        (1,): Fraction(1, 4),
        (2,): Fraction(1, 4),
        (1, 2): Fraction(1, 4),
    }


def test_product_of_two_minus_slots():
    p = MultilinearPoly.from_terms(4, {(1, 2): 1})
    table = sign_expansion_table(p, [(1, 3), (2, 4)])
    assert table[(1,)] == Fraction(-1, 4)
    assert table[(2,)] == Fraction(-1, 4)
    assert table[(1, 2)] == Fraction(1, 4)
    assert expansion_coefficient(p, [(1, 3), (2, 4)], (2,)) == Fraction(-1, 4)


def test_support_outside_the_pairs_contributes_nothing():
    p = MultilinearPoly.from_terms(4, {(1,): 1})
    assert sign_expansion_table(p, [(2, 3)]) == {}


def test_support_straddling_one_pair_contributes_nothing():
    # The chosen vector never holds both slots of a pair.
    p = MultilinearPoly.from_terms(4, {(1, 2): 1})
    report = check_sign_expansion(p, [(1, 2), (3, 4)])
    assert report.coefficients == {}
    assert report.max_abs_discrepancy == 0


def test_constant_term_passes_through():
    p = MultilinearPoly.from_terms(2, {(): Fraction(7, 3)})
    assert sign_expansion_table(p, [(1, 2)]) == {(): Fraction(7, 3)}


def test_zero_polynomial_has_empty_table():
    assert sign_expansion_table(MultilinearPoly.from_terms(4, {}), [(1, 2), (3, 4)]) == {}


# ---------------------------------------------------------------------------
# the expansion identity itself


def test_all_plus_signs_recover_the_plus_slot_count():
    g = from_edges(6, 2, [(1, 2), (2, 3), (4, 5), (5, 6)])
    poly = edge_indicator_poly(g)
    pairs = [(1, 2), (3, 4), (5, 6)]
    table = sign_expansion_table(poly, pairs)
    at_all_plus = sum(table.values())
    assert at_all_plus == induced_edge_count(g, {2, 4, 6})


def test_check_sign_expansion_report_shape():
    p = MultilinearPoly.from_terms(4, {(1, 2): 2, (3,): 1})
    report = check_sign_expansion(p, [(1, 3), (2, 4)])
    assert report.k == 2
    assert report.assignments_checked == 4
    assert report.max_abs_discrepancy == 0
    for idx, coeff in report.coefficients.items():
        assert coeff == expansion_coefficient(p, [(1, 3), (2, 4)], idx)


def test_check_sign_expansion_caps_k():
    p = MultilinearPoly.from_terms(42, {})
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(21)]
    with pytest.raises(ValueError, match="cap"):
        check_sign_expansion(p, pairs)


@given(st.integers(0, 2**30))
@settings(max_examples=50, deadline=None)
def test_expansion_identity_on_random_graphs(seed):
    rng = new_generator(seed)
    r = 2 + rand_below(rng, 2)
    n = r + 1 + rand_below(rng, 8)
    k = 1 + rand_below(rng, min(4, n // 2))
    g = random_hypergraph(n, r, Fraction(1, 2), rng)
    flat = sample_ordered(rng, n, 2 * k)
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(k)]
    report = check_sign_expansion(edge_indicator_poly(g), pairs)
    assert report.max_abs_discrepancy == 0


def signed_instance(seed):
    """A seeded polynomial on up to 10 variables with signed rational
    coefficients, and the pairs of a seeded coupling on its variables."""
    rng = new_generator(seed)
    n = rand_below(rng, 11)
    terms = {}
    for _ in range(rand_below(rng, 12)):
        support = tuple(sorted(sample_ordered(rng, n, rand_below(rng, min(n, 4) + 1))))
        terms[support] = Fraction(rand_below(rng, 19) - 9, 1 + rand_below(rng, 7))
    poly = MultilinearPoly.from_terms(n, terms)
    return poly, sample_coupling(n, rand_below(rng, n // 2 + 1), seed).pairs


@given(st.integers(0, 2**30))
@settings(max_examples=50, deadline=None)
def test_expansion_identity_on_signed_rational_polynomials(seed):
    report = check_sign_expansion(*signed_instance(seed))
    assert report.max_abs_discrepancy == 0


@given(st.integers(0, 2**30))
@settings(max_examples=50, deadline=None)
def test_table_matches_the_definition_at_every_index(seed):
    """Each of the 2^k sign indices, present in the table or absent from
    it, carries the coefficient the definition gives; none present is 0."""
    poly, pairs = signed_instance(seed)
    table = sign_expansion_table(poly, pairs)
    assert 0 not in table.values()
    for size in range(len(pairs) + 1):
        for idx in itertools.combinations(range(1, len(pairs) + 1), size):
            assert table.get(idx, 0) == expansion_coefficient(poly, pairs, idx)


def test_the_check_does_not_grow_with_the_vertex_ids():
    """Pairs near n = 10^20, and a support off the pairs: the check reads
    2k slot bits, so it runs at once and the identity holds."""
    n = 10**20
    poly = MultilinearPoly.from_terms(
        n, {(): Fraction(3, 7), (n - 3, n): 1, (n - 2,): 2, (1, n - 1): Fraction(1, 3), (n - 3, n - 2): 5}
    )
    pairs = [(n - 3, n - 2), (n - 1, n)]
    report = check_sign_expansion(poly, pairs)
    assert report.assignments_checked == 4
    assert report.max_abs_discrepancy == 0
    for idx in [(), (1,), (2,), (1, 2)]:
        assert report.coefficients.get(idx, 0) == expansion_coefficient(poly, pairs, idx)


@pytest.mark.parametrize("index, delta", [((1,), Fraction(1, 7)), ((1, 2, 3), Fraction(-3))])
def test_a_wrong_expansion_table_is_caught(monkeypatch, index, delta):
    """The direct side does not read the table: moving one coefficient
    (present, or absent for a degree-2 polynomial) by delta moves the
    expansion by |delta| at every sign vector."""
    poly = edge_indicator_poly(from_edges(6, 2, [(1, 2), (2, 3), (4, 5), (5, 6), (1, 6)]))
    honest = coupling.sign_expansion_table

    def skewed(p, pairs):
        table = honest(p, pairs)
        table[index] = table.get(index, Fraction(0)) + delta
        return table

    monkeypatch.setattr(coupling, "sign_expansion_table", skewed)
    report = check_sign_expansion(poly, [(1, 2), (3, 4), (5, 6)])
    assert report.max_abs_discrepancy == abs(delta)


# ---------------------------------------------------------------------------
# coefficient size thresholds


def test_coefficient_bound_values():
    assert coefficient_bound(2, 5, 0) == 25
    assert coefficient_bound(2, 5, 1) == 10
    assert coefficient_bound(2, 5, 3) == 0  # indices above the degree


def test_expansion_coefficients_obey_the_size_bound():
    rng = new_generator(77)
    for _ in range(40):
        n = 5 + rand_below(rng, 5)
        r = 2 + rand_below(rng, 2)
        k = 1 + rand_below(rng, min(4, n // 2))
        g = random_hypergraph(n, r, Fraction(1, 2), rng)
        poly = edge_indicator_poly(g)
        flat = sample_ordered(rng, n, 2 * k)
        pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(k)]
        table = sign_expansion_table(poly, pairs)
        for idx, coeff in table.items():
            assert abs(coeff) <= coefficient_bound(poly.degree, n, len(idx))


# ---------------------------------------------------------------------------
# subsampled matchings keep a share of a large matching


def test_half_subsamples_of_a_matched_graph_usually_keep_an_edge():
    """Seeded graphs on 24 vertices with matching number >= 4: a uniform
    12-subset induces at least one edge in the vast majority of draws."""
    rng = new_generator(2024)
    graphs = []
    while len(graphs) < 5:
        g = random_hypergraph(24, 2, Fraction(1, 8), rng)
        if matching_number(g) >= 4:
            graphs.append(g)
    for g in graphs:
        hits = 0
        for _ in range(200):
            u = sample_ordered(rng, 24, 12)
            if induced_edge_count(g, u) >= 1:
                hits += 1
        assert hits >= 180, hits
