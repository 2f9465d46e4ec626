"""Every cap on work in the package, refused through one helper with one
message shape before the work it guards has started, and every check of
vertex ids against [1..n], refused through one helper with one shape."""

import re
from fractions import Fraction
from math import comb

import pytest

from edgestats import anticonc, coupling, cover, discrepancy, hypergraph, multilinear, profiles
from edgestats.anticonc import (
    hypergeom_binom_tv,
    junta_tv,
    poisson_interval_check,
    slice_covariance,
    slice_moments,
)
from edgestats.coupling import Coupling, check_sign_expansion
from edgestats.cover import greedy_cover, verify_cover
from edgestats.discrepancy import signed_discrepancy
from edgestats.hypergraph import (
    construct_lift,
    construct_split,
    from_edges,
    induced_edge_count,
    lift_supersets,
)
from edgestats.multilinear import MultilinearPoly, exhaustive_distribution
from edgestats.profiles import conditional_junta, estimate_point, exact_profile
from edgestats.rng import new_generator


class Forbidden:
    """Stands in for the first step of the work a cap guards: calling it or
    reading from it fails the test."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} ran before the cap refused")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was read before the cap refused")


def singletons(n):
    return MultilinearPoly.from_terms(n, {(v,): 1 for v in range(1, n + 1)})


# id -> (the refused call, its whole message, (module, name) of its work)
CAPS = {
    "lift_supersets": (
        lambda: lift_supersets(from_edges(10**4, 1, [[1], [2]]), 3),
        "2 base edges times C(9999,2) supersets = 99970002 exceeds the cap of 10000000",
        (hypergraph, "itertools"),
    ),
    "construct_lift": (
        lambda: construct_lift(5000, 10, 2, 3, 0),
        "C(5000,2) base draws = 12497500 exceeds the cap of 10000000",
        (hypergraph, "_coin_edges"),
    ),
    "construct_split": (
        lambda: construct_split(3000, [1, 2], 4),
        f"2 * C(2998,3) split edges = {2 * comb(2998, 3)} exceeds the cap of 10000000",
        (hypergraph, "itertools"),
    ),
    "exact_profile": (
        lambda: exact_profile(from_edges(40, 2, [(1, 2)]), 20, max_subsets=1000),
        "max_subsets: C(40,20) subsets = 137846528820 exceeds the cap of 1000",
        (profiles, "_inside_counts"),
    ),
    "conditional_junta": (
        lambda: conditional_junta(from_edges(21, 2, []), 2, range(1, 22)),
        "2^21 pivot subsets = 2097152 exceeds the cap of 1048576",
        (profiles, "_trace_groups"),
    ),
    "exhaustive_distribution": (
        lambda: exhaustive_distribution(singletons(25), "rademacher"),
        "active variables = 25 exceeds the cap of 24",
        (multilinear, "_law_branches"),
    ),
    "poisson_interval_check": (
        lambda: poisson_interval_check(singletons(21), Fraction(1, 2), 1, 0),
        "active variables = 21 exceeds the cap of 20",
        (anticonc, "exhaustive_distribution"),
    ),
    "_junta_coords": (
        lambda: junta_tv({}, range(1, 16), 40, 10),
        "2^15 junta table entries = 32768 exceeds the cap of 16384",
        (anticonc, "_slice_product_gaps"),
    ),
    "slice_moments": (
        lambda: slice_moments(
            MultilinearPoly.from_terms(21, {tuple(range(1, 21)): 1, tuple(range(2, 22)): 1}), 21, 10
        ),
        "support subsets = 2097152 exceeds the cap of 1048576",
        (anticonc, "_cover_sums"),
    ),
    "check_sign_expansion": (
        lambda: check_sign_expansion(singletons(42), [(2 * i - 1, 2 * i) for i in range(1, 22)]),
        "sign variables = 21 exceeds the cap of 20",
        (coupling, "sign_expansion_table"),
    ),
    "signed_discrepancy-terms": (
        lambda: signed_discrepancy(from_edges(100, 2, [(1, 2)]), 2, term_cap=10),
        "term_cap: 100^4 * C(100,0) elementary terms = 100000000 exceeds the cap of 10",
        (discrepancy, "_cover_sums"),
    ),
    "signed_discrepancy-weights": (
        lambda: signed_discrepancy(from_edges(100, 2, [(1, 2)]), 2, collect_weights=True),
        "stored sequence weights = 94109400 exceeds the cap of 10000000",
        (discrepancy, "_cover_sums"),
    ),
    "verify_cover": (
        lambda: verify_cover(from_edges(30, 2, [(1, 2)]), range(1, 27), 1),
        "2^26 pivot subset checks = 67108864 exceeds the cap of 33554432",
        (cover, "_trace_groups"),
    ),
    "slice-gap-bits": (
        lambda: hypergeom_binom_tv(10**6, 5 * 10**5, 2),
        "bits of C(1000000,500000) * 1000000^2 = 1000040 exceeds the cap of 100000",
        (anticonc, "comb"),
    ),
    "slice-gap-work": (
        lambda: hypergeom_binom_tv(3000, 1500, 3000),
        "3001 gap terms times 39000 bits = 117039000 exceeds the cap of 1000000",
        (anticonc, "comb"),
    ),
    "exact_profile-vertices": (
        lambda: exact_profile(from_edges(10**7 + 1, 2, [(1, 2)]), 10**7),
        "vertices listed = 10000001 exceeds the cap of 10000000",
        (profiles, "_outside_counts"),
    ),
    "construct_lift-vertices": (
        lambda: construct_lift(10**7 + 1, 10**7 + 1, 10**7 + 1, 10**7 + 1, 0),
        "vertices listed = 10000001 exceeds the cap of 10000000",
        (hypergraph, "_coin_edges"),
    ),
    "construct_split-vertices": (
        lambda: construct_split(10**7 + 2, [1], 10**7 + 2),
        "vertices off the side listed = 10000001 exceeds the cap of 10000000",
        (hypergraph, "_side_runs"),
    ),
    "estimate_point": (
        lambda: estimate_point(from_edges(10**8, 2, []), 10**7 + 1, 0, 1, 0),
        "vertices per sample = 10000001 exceeds the cap of 10000000",
        (profiles, "sample_ordered"),
    ),
    "estimate_point-draws": (
        lambda: estimate_point(from_edges(10, 2, []), 2, 0, 10**9, 0),
        "draws for 1000000000 samples of 2 vertices = 2000000000 exceeds the cap of 1000000000",
        (profiles, "_edge_counter"),
    ),
}


@pytest.mark.parametrize("site", CAPS)
def test_every_cap_refuses_with_one_message_before_its_work(site, monkeypatch):
    call, message, (module, work) = CAPS[site]
    assert re.fullmatch(r".+ = \d+ exceeds the cap of \d+", message)
    monkeypatch.setattr(module, work, Forbidden(work))
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# id -> (the refused call, its whole message, (module, name) of its work);
# each count's lower bound passes its cap, so the count is never computed.
BOUND_CAPS = {
    "_check_cap_by_bound": (
        lambda: construct_split(10**20, [3, 2000], 10**12),
        "2 * C(99999999999999999998,999999999999) split edges = at least 2^999999999999"
        " exceeds the cap of 10000000",
        (hypergraph, "comb"),
    ),
    "default_step_cap": (
        lambda: greedy_cover(from_edges(10**6, 10**8, []), 1),
        "default step cap 10 * (100000000*1)^100000002 = at least 2^2600000055"
        " exceeds the cap of 2^65536",
        (cover, "_first_bad_trace"),
    ),
    "per_sequence_bound": (
        lambda: signed_discrepancy(from_edges(10**6, 10**8, []), 64),
        "per-sequence bound 2^64 * 1000000^99999936 = at least 2^1899998848"
        " exceeds the cap of 2^65536",
        (discrepancy, "_cover_sums"),
    ),
    "max_prob_binomial_one": (
        lambda: poisson_interval_check(singletons(2), Fraction(1, 10**20), 1, Fraction(1, 2)),
        "denominator 100000000000000000000^99999999999999999999 of (1 - p)^99999999999999999999"
        " = at least 2^6599999999999999999934 exceeds the cap of 2^65536",
        (anticonc, "exhaustive_distribution"),
    ),
}


@pytest.mark.parametrize("site", BOUND_CAPS)
def test_every_cap_refuses_from_its_lower_bound_before_its_work(site, monkeypatch):
    call, message, (module, work) = BOUND_CAPS[site]
    assert re.fullmatch(r".+ = at least 2\^\d+ exceeds the cap of (\d+|2\^\d+)", message)
    monkeypatch.setattr(module, work, Forbidden(work))
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_count_past_two_to_the_64_is_shown_by_its_bit_length():
    # 2^15000 has 4516 digits, past the 4300 that str() of an int allows.
    with pytest.raises(ValueError) as info:
        verify_cover(from_edges(15000, 2, []), range(1, 15001), 1)
    assert str(info.value) == (
        "2^15000 pivot subset checks = at least 2^15000 exceeds the cap of 33554432"
    )


def test_a_lift_refuses_while_its_base_is_drawn(monkeypatch):
    """At n = 100000, k = 2, s = 1, r = 2 each base vertex has 99,999
    supersets, so the 101st base edge passes the cap: the lift refuses
    there, with the base drawn so far, not after all C(n, 1) coins.  The
    coins are counted at the generator: at p = 1/2 a coin is decided by
    the first 2-bit draw below 2."""
    draws = []

    class Counted:
        def __init__(self, seed):
            self.inner = new_generator(seed)

        def getrandbits(self, bits):
            draws.append(self.inner.getrandbits(bits))
            return draws[-1]

    monkeypatch.setattr(hypergraph, "new_generator", Counted)
    with pytest.raises(ValueError) as info:
        construct_lift(100000, 2, 1, 2, 0)
    assert str(info.value) == (
        "101 base edges times C(99999,1) supersets = 10099899 exceeds the cap of 10000000"
    )
    assert 101 <= sum(x < 2 for x in draws) < 1000


# id -> (the refused call, its whole message)
VERTEX_CHECKS = {
    "_canonical_edge-range": (
        lambda: from_edges(4, 2, [(1, 0)]),
        "edge (0, 1) leaves the vertex range [1..4]",
    ),
    "_canonical_edge-repeat": (
        lambda: from_edges(4, 2, [(1, 1)]),
        "edge (1, 1) repeats a vertex",
    ),
    "induced_edge_count": (
        lambda: induced_edge_count(from_edges(4, 2, []), {9, 1, 1}),
        "subset (1, 9) leaves the vertex range [1..4]",
    ),
    "construct_split": (
        lambda: construct_split(5, [2, 0, 2], 2),
        "distinguished side (0, 2) leaves the vertex range [1..5]",
    ),
    "from_terms-range": (
        lambda: MultilinearPoly.from_terms(3, {(4, 1): 1}),
        "support (1, 4) leaves the vertex range [1..3]",
    ),
    "from_terms-repeat": (
        lambda: MultilinearPoly.from_terms(3, {(2, 2): 1}),
        "support (2, 2) repeats a vertex",
    ),
    "_validate_pairs-range": (
        lambda: Coupling(4, ((5, 1),), (1,)),
        "coupling (1, 5) leaves the vertex range [1..4]",
    ),
    "_validate_pairs-repeat": (
        lambda: Coupling(4, ((1, 2), (2, 3)), (1, 1)),
        "coupling (1, 2, 2, 3) repeats a vertex",
    ),
    "conditional_junta": (
        lambda: conditional_junta(from_edges(4, 2, []), 2, [5, 5]),
        "pivot (5,) leaves the vertex range [1..4]",
    ),
    "_junta_coords-range": (
        lambda: junta_tv({}, (1, 0), 8, 3),
        "junta (0, 1) leaves the vertex range [1..8]",
    ),
    "_junta_coords-repeat": (
        lambda: junta_tv({}, (1, 1), 8, 3),
        "junta (1, 1) repeats a vertex",
    ),
    "slice_covariance": (
        lambda: slice_covariance((1,), (9, 1), 5, 2),
        "support union (1, 9) leaves the vertex range [1..5]",
    ),
    "slice_moments": (
        lambda: slice_moments(MultilinearPoly.from_terms(9, {(9,): 1}), 5, 2),
        "polynomial (9,) leaves the vertex range [1..5]",
    ),
    "verify_cover": (
        lambda: verify_cover(from_edges(4, 2, []), [0], 1),
        "pivot (0,) leaves the vertex range [1..4]",
    ),
}


@pytest.mark.parametrize("site", VERTEX_CHECKS)
def test_every_vertex_check_refuses_with_one_message(site):
    call, message = VERTEX_CHECKS[site]
    shape = r".+ \([\d, ]*\) (leaves the vertex range \[1\.\.\d+\]|repeats a vertex)"
    assert re.fullmatch(shape, message)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# id -> (the refused call, its whole message)
SUBSET_SIZES = {
    "exact_profile": (
        lambda: exact_profile(from_edges(4, 2, []), 5),
        "subset size 5 outside [0..4]",
    ),
    "estimate_point": (
        lambda: estimate_point(from_edges(4, 2, []), -1, 0, 1, 0),
        "subset size -1 outside [0..4]",
    ),
    "conditional_junta": (
        lambda: conditional_junta(from_edges(3, 2, []), 7, [1]),
        "subset size 7 outside [0..3]",
    ),
}


@pytest.mark.parametrize("site", SUBSET_SIZES)
def test_every_subset_size_check_refuses_with_one_message(site):
    call, message = SUBSET_SIZES[site]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
