"""The .hg and .mlp text formats: a file round-trips through its formatter,
and a bad record is refused with "line N: " and the very message that
from_edges or from_terms gives for the same records."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgestats.hypergraph import format_hg, from_edges, parse_hg
from edgestats.multilinear import MultilinearPoly, format_mlp, parse_mlp
from edgestats.serialize import format_rational

# Before each record: nothing, a blank line, or a comment line.
NOISE = st.lists(st.sampled_from([None, "", "# a comment"]), min_size=40, max_size=40)


def write(header, records, noise):
    """The text of a file, with the 1-based line number of each record."""
    lines, numbers = [header], []
    for record, extra in zip(records, noise):
        if extra is not None:
            lines.append(extra)
        lines.append(record)
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


def refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@st.composite
def edge_lists(draw):
    """(n, r, distinct ascending edges), r > n and no edges included."""
    n, r = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else []
    return n, r, edges


@st.composite
def term_lists(draw):
    """(n, [(support, coefficient)]) with distinct supports, the empty
    (constant) support and zero coefficients included."""
    n = draw(st.integers(0, 6))
    pool = [s for size in range(n + 1) for s in itertools.combinations(range(1, n + 1), size)]
    supports = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    coeffs = st.just(Fraction(0)) | st.fractions(-1000, 1000, max_denominator=50)
    return n, [(s, draw(coeffs)) for s in supports]


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_an_hg_file_round_trips(case):
    n, r, edges = case
    graph = from_edges(n, r, edges)
    assert parse_hg(format_hg(graph)) == graph


@given(term_lists())
@settings(max_examples=80, deadline=None)
def test_an_mlp_file_round_trips(case):
    n, terms = case
    poly = MultilinearPoly.from_terms(n, dict(terms))
    assert parse_mlp(format_mlp(poly)) == poly


@given(edge_lists(), st.sampled_from(["range", "size", "repeat", "duplicate"]), st.data(), NOISE)
@settings(max_examples=120, deadline=None)
def test_a_bad_hg_record_is_refused_as_from_edges_refuses_it(case, kind, data, noise):
    n, r, edges = case
    assume(kind != "repeat" or r >= 2)
    assume(kind != "duplicate" or edges)
    # A duplicate goes right after an edge; any other bad record anywhere.
    at = data.draw(st.integers(kind == "duplicate", len(edges)), label="position")
    bad = {
        "range": tuple(range(n + 2 - r, n + 2)),  # its last id is n + 1
        "size": tuple(range(1, r + 2)),
        "repeat": (1, 1) + tuple(range(2, r)),
        "duplicate": edges[at - 1] if at else None,
    }[kind]
    records = edges[:at] + [bad] + edges[at:]
    text, numbers = write(f"{n} {r}", [" ".join(map(str, e)) for e in records], noise)
    expected = refusal(lambda: from_edges(n, r, records))
    assert refusal(lambda: parse_hg(text)) == f"line {numbers[at]}: {expected}"


@given(term_lists(), st.sampled_from(["range", "repeat", "duplicate"]), st.data(), NOISE)
@settings(max_examples=120, deadline=None)
def test_a_bad_mlp_record_is_refused_as_from_terms_refuses_it(case, kind, data, noise):
    n, terms = case
    assume(kind != "duplicate" or terms)
    at = data.draw(st.integers(kind == "duplicate", len(terms)), label="position")
    bad = {
        "range": (tuple(range(1, n + 2))[-2:], Fraction(1)),  # its last id is n + 1
        "repeat": ((1, 1), Fraction(1)),
        "duplicate": terms[at - 1] if at else None,
    }[kind]
    records = terms[:at] + [bad] + terms[at:]
    lines = [f"{format_rational(c)} : {' '.join(map(str, s))}" for s, c in records]
    text, numbers = write(str(n), lines, noise)
    # from_terms reads terms.items(), which here may repeat a support.
    pairs = SimpleNamespace(items=lambda: records)
    expected = refusal(lambda: MultilinearPoly.from_terms(n, pairs))
    assert refusal(lambda: parse_mlp(text)) == f"line {numbers[at]}: {expected}"
