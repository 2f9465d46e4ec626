"""The .hg and .mlp text formats: a file round-trips through its formatter,
and a bad record is refused with "line N: " and the very message that
from_edges or from_terms gives for the same records.  A .hg file is
written by runs, byte for byte as the per-edge writer writes it, and one
holding a graph given by a side is read back as that side.  A clean .hg
text in order is read in bulk, one whose only fault is its edge order
is sorted once and read in bulk too, and any other text line by line, to
the same graph or the same refusal."""

import builtins
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgestats import hypergraph
from edgestats.hypergraph import (
    Hypergraph,
    construct_lift,
    construct_split,
    format_hg,
    from_edges,
    induced_edge_count,
    parse_hg,
    random_hypergraph,
)
from edgestats.multilinear import MultilinearPoly, format_mlp, parse_mlp
from edgestats.rng import new_generator, rand_below
from edgestats.serialize import format_rational

# Before each record: nothing, a blank line, or a comment line; or nothing
# before every record, which makes a clean file.
NOISE = st.just([None] * 40) | st.lists(
    st.sampled_from([None, "", "# a comment"]), min_size=40, max_size=40
)


def write(header, records, noise):
    """The text of a file, with the 1-based line number of each record."""
    lines, numbers = [header], []
    for record, extra in zip(records, noise):
        if extra is not None:
            lines.append(extra)
        lines.append(record)
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


def format_by_edge(graph):
    """The per-edge writer, the oracle for format_hg's bytes."""
    lines = [f"{graph.n} {graph.r}"] + [" ".join(str(v) for v in e) for e in graph.edges]
    return "\n".join(lines) + "\n"


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
    text = format_hg(graph)
    assert text == format_by_edge(graph)
    assert parse_hg(text) == graph


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


@st.composite
def described_graphs(draw):
    """A graph given by a side D and edge types A: any D of [1..n], the
    empty and the full one included, any A of [0..r], and r up to n + 2."""
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, n + 2))
    side = draw(st.sets(st.integers(1, n))) if n else set()
    types = draw(st.sets(st.integers(0, r), min_size=1))
    return Hypergraph(n, r, None, frozenset(side), tuple(sorted(types)))


DESCRIBED = {
    "split": lambda: construct_split(9, [2, 5, 6], 3),
    "lift": lambda: construct_lift(10, 4, 1, 3, 1).graph,
    "r = 1": lambda: construct_split(6, [2, 4], 1),
    "empty side": lambda: construct_split(6, [], 2),
    "r > n": lambda: Hypergraph(2, 3, None, frozenset({1}), (1,)),
}


def check_described(graph):
    text = format_hg(graph)
    assert graph._edges is None  # written by runs: no edge tuple built
    assert text == format_by_edge(graph)
    assert parse_hg(text) == graph


@pytest.mark.parametrize("name", DESCRIBED)
def test_format_hg_writes_a_construction_by_its_runs(name):
    check_described(DESCRIBED[name]())


@given(described_graphs())
@settings(max_examples=80, deadline=None)
def test_format_hg_writes_any_described_graph_by_its_runs(graph):
    check_described(graph)


def test_a_split_or_lift_file_is_read_as_its_side():
    split = construct_split(30, range(4, 12), 3)
    lift = construct_lift(40, 10, 1, 2, 3).graph
    for graph in (split, lift):
        text = format_hg(graph)
        # Read the same way whether the file is clean or not.
        for written in (text, "# a comment\n" + text.replace("\n", "\n\n", 5)):
            parsed = parse_hg(written)
            assert (parsed._side, parsed._types, parsed._edges) == (graph._side, graph._types, None)
            assert parsed == graph
    # A random graph has more than two degree classes.
    assert parse_hg(format_hg(random_hypergraph(12, 3, Fraction(1, 2), 5)))._side is None


def test_a_certified_file_on_a_huge_ground_set_lists_no_vertex_off_its_side(monkeypatch):
    def short_range(*args):
        listed = builtins.range(*args)
        assert listed.stop - listed.start < 10**6, "listed the vertices off the side"
        return listed

    monkeypatch.setattr(hypergraph, "range", short_range, raising=False)
    text = "100000000000000000000 2\n1 2\n1 3\n2 3\n"
    graph = parse_hg(text)
    assert (graph._side, graph._types) == ({1, 2, 3}, (2,))
    assert format_hg(graph) == text
    assert graph.edges == ((1, 2), (1, 3), (2, 3))
    assert induced_edge_count(graph, [2, 3, 10**19]) == 1


def read(text):
    """What parse_hg makes of a text: the graph and its side, or the refusal."""
    try:
        graph = parse_hg(text)
    except ValueError as exc:
        return str(exc)
    return graph, graph._side, graph._types


@given(edge_lists(), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_a_clean_text_out_of_order_is_read_as_the_line_reader_reads_it(case, repeat, data):
    n, r, edges = case
    lines = [" ".join(map(str, e)) for e in edges]
    if repeat and lines:
        copy = data.draw(st.sampled_from(lines), label="repeated line")
        lines.insert(data.draw(st.integers(0, len(lines)), label="position"), copy)
    else:
        lines = data.draw(st.permutations(lines), label="order")
    text = "\n".join([f"{n} {r}", *lines]) + "\n"
    # A comment makes the text unclean, so it is read line by line.
    assert read(text) == read(text + "# a comment\n")


def test_the_bulk_reader_and_the_line_reader_accept_the_same_tokens(monkeypatch):
    text = "1_000 +2\n1\t7\n  2   0_9  \n03 +5\n"
    by_line = parse_hg(text + "# a comment\n")
    monkeypatch.setattr(hypergraph, "_read_records", None)  # the clean text is read in bulk
    assert parse_hg(text) == by_line == from_edges(1000, 2, [(1, 7), (2, 9), (3, 5)])


@pytest.mark.parametrize("kind", ["reversed split", "shuffled plain"])
def test_a_clean_text_out_of_order_is_sorted_once_and_read_in_bulk(kind, monkeypatch):
    """A clean text that fails only the edge order is read without the
    line reader, equal to its ordered text; a split is still its side."""
    if kind == "reversed split":
        graph = construct_split(30, range(1, 6), 3)
        header, *lines = format_hg(graph).splitlines()
        lines.reverse()
    else:
        graph = random_hypergraph(12, 3, Fraction(1, 2), 2)
        header, *lines = format_hg(graph).splitlines()
        rng = new_generator(3)
        lines = [lines.pop(rand_below(rng, len(lines))) for _ in range(len(lines))]
    text = "\n".join([header, *lines]) + "\n"
    assert text != format_hg(graph)
    ordered = parse_hg(format_hg(graph))
    monkeypatch.setattr(hypergraph, "_read_records", None)
    parsed = parse_hg(text)
    if kind == "reversed split":
        assert (parsed._side, parsed._types, parsed._edges) == (frozenset(range(1, 6)), (1,), None)
    assert (parsed, parsed._side, parsed._types) == (ordered, ordered._side, ordered._types)
    assert parsed == graph


def short(builtin, what):
    """``builtin``, failing the test when given 1000 items or more."""

    def call(*args, **kwargs):
        out = builtin(*args, **kwargs)
        assert len(out) < 1000, what
        return out

    return call


def test_the_bulk_reader_neither_sorts_nor_lists_the_edges_of_a_side(monkeypatch):
    plain = random_hypergraph(30, 3, Fraction(1, 2), 1)
    split = construct_split(60, range(1, 11), 3)
    texts = [format_hg(plain), format_hg(split)]
    assert min(plain.edge_count, split.edge_count) >= 1000
    monkeypatch.setattr(hypergraph, "sorted", short(builtins.sorted, "sorted the edges"), raising=False)
    assert parse_hg(texts[0]) == plain
    monkeypatch.setattr(hypergraph, "tuple", short(builtins.tuple, "listed the edges"), raising=False)
    parsed = parse_hg(texts[1])
    assert (parsed._side, parsed._types, parsed._edges) == (split._side, (1,), None)


def test_an_edgeless_text_with_a_huge_uniformity_is_read_at_once(monkeypatch):
    monkeypatch.setattr(hypergraph, "range", short(builtins.range, "one column per r"), raising=False)
    graph = parse_hg("100000000000000000000 1000000000000\n")
    assert (graph.n, graph.r, graph.edges) == (10**20, 10**12, ())
