"""End-to-end command-line behaviour: exit codes, JSON report shape,
byte-for-byte determinism, and file round trips."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import shlex
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgestats import cli, hypergraph
from edgestats.anticonc import junta_tv
from edgestats.cli import main
from edgestats.hypergraph import (
    construct_lift,
    construct_split,
    format_hg,
    from_edges,
    induced_edge_count,
    parse_hg,
    random_hypergraph,
)
from edgestats.multilinear import MultilinearPoly, format_mlp, parse_mlp
from edgestats.rng import new_generator, rand_below, sample_ordered


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def c5_path(tmp_path):
    g = from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    path = tmp_path / "c5.hg"
    path.write_text(format_hg(g))
    return str(path)


@pytest.fixture
def poly_path(tmp_path):
    p = MultilinearPoly.from_terms(4, {(1, 2): 1, (3, 4): 1})
    path = tmp_path / "poly.mlp"
    path.write_text(format_mlp(p))
    return str(path)


# ---------------------------------------------------------------------------
# exit code 0 paths


def test_profile_spot(c5_path, capsys):
    code, out, _ = run_cli(["profile", "--input", c5_path, "--k", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "profile"
    assert report["results"]["counts"] == {"1": "5", "2": "5"}
    assert report["violations"] == []
    assert len(report["input_digest"]) == 64


def test_estimate_reports_are_byte_identical(c5_path, capsys):
    argv = [
        "estimate",
        "--input",
        c5_path,
        "--k",
        "3",
        "--level",
        "1",
        "--samples",
        "200",
        "--seed",
        "9",
    ]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert code == 0
    assert first == second
    assert json.loads(first)["seed"] == 9


def test_estimate_depends_on_the_seed(c5_path, capsys):
    base = ["estimate", "--input", c5_path, "--k", "3", "--level", "1", "--samples", "200"]
    _, a, _ = run_cli(base + ["--seed", "1"], capsys)
    _, b, _ = run_cli(base + ["--seed", "2"], capsys)
    assert json.loads(a)["results"]["hits"] != json.loads(b)["results"]["hits"]


def test_construct_round_trips_through_the_parser(tmp_path, capsys):
    out_path = tmp_path / "split.hg"
    code, out, _ = run_cli(
        ["construct", "split", "--n", "4", "--side", "1 2", "--r", "2", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["edge_count"] == 4
    graph = parse_hg(out_path.read_text())
    assert graph.edges == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_a_split_is_written_and_estimated_without_its_edges(tmp_path, monkeypatch, capsys):
    """construct split writes its file by runs, building no edge tuple, and
    estimate reads that file as its side, building no tail index."""
    graphs = []
    monkeypatch.setattr(cli, "format_hg", lambda graph: graphs.append(graph) or format_hg(graph))
    monkeypatch.setattr(cli, "parse_hg", lambda text: graphs.append(parse_hg(text)) or graphs[-1])
    monkeypatch.setattr(hypergraph, "_tail_index", None)
    out = str(tmp_path / "split.hg")
    argv = ["construct", "split", "--n", "40", "--side", "1 5 9 30", "--r", "3", "--out", out]
    assert run_cli(argv, capsys)[0] == 0
    argv = ["estimate", "--input", out, "--k", "8", "--level", "2", "--samples", "50", "--seed", "0"]
    assert run_cli(argv, capsys)[0] == 0
    written, read = graphs
    assert written._edges is None
    assert (read._side, read._types) == (written._side, written._types)
    assert read._edges is None


def test_construct_lift_is_reproducible(tmp_path, capsys):
    argv = [
        "construct",
        "lift",
        "--n",
        "30",
        "--k",
        "10",
        "--s",
        "1",
        "--r",
        "2",
        "--seed",
        "3",
        "--out",
        str(tmp_path / "lift.hg"),
    ]
    _, a, _ = run_cli(argv, capsys)
    _, b, _ = run_cli(argv, capsys)
    assert json.loads(a)["results"]["out_digest"] == json.loads(b)["results"]["out_digest"]
    assert json.loads(a)["results"]["level"] == 9


def test_coupling_check_with_explicit_pairs(poly_path, capsys):
    code, out, _ = run_cli(
        ["coupling-check", "--input", poly_path, "--pairs", "1,3 2,4"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["max_abs_discrepancy"] == "0/1"
    assert report["violations"] == []


def test_coupling_check_sampling_mode(poly_path, capsys):
    argv = ["coupling-check", "--input", poly_path, "--sample-k", "2", "--seed", "4"]
    code, a, _ = run_cli(argv, capsys)
    assert code == 0
    _, b, _ = run_cli(argv, capsys)
    assert a == b


def test_discrepancy_with_heaviest(c5_path, capsys):
    code, out, _ = run_cli(
        ["discrepancy", "--input", c5_path, "--s", "1", "--top", "3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["total"] == "0"
    assert len(report["results"]["heaviest"]) == 3


def test_anticonc_ehm_spot(capsys):
    code, out, _ = run_cli(["anticonc", "ehm", "--n", "8", "--k", "4", "--t", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["tv"] == "39/280"
    assert report["results"]["bound"] == "3/7"


def test_anticonc_poisson_with_rational_flags(tmp_path, capsys):
    path = tmp_path / "pois.mlp"
    path.write_text("3\n1 : 1\n2 : 2 3\n")
    code, out, _ = run_cli(
        [
            "anticonc",
            "poisson",
            "--input",
            str(path),
            "--p",
            "1/50",
            "--level",
            "1",
            "--radius",
            "0",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["bound_satisfied"] is True
    assert report["violations"] == []


def test_anticonc_junta_tv_spot(tmp_path, capsys):
    path = tmp_path / "junta.mlp"
    path.write_text("6\n1 : 1\n1 : 2\n")
    code, out, _ = run_cli(
        ["anticonc", "junta-tv", "--input", str(path), "--n", "6", "--k", "3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["tv"] == "1/10"
    assert report["results"]["bound"] == "3/5"


def test_anticonc_junta_tv_table_is_the_pointwise_evaluation(tmp_path, capsys):
    """The command's report equals junta_tv on the table of the polynomial
    evaluated at every 0/1 point of its active coordinates."""
    rng = new_generator(8)
    path = tmp_path / "junta.mlp"
    for _ in range(10):
        n = 2 + rand_below(rng, 8)
        terms = {
            tuple(sorted(sample_ordered(rng, n, rand_below(rng, min(n, 3) + 1)))): Fraction(
                rand_below(rng, 9) - 4, 1 + rand_below(rng, 3)
            )
            for _ in range(rand_below(rng, 5))
        }
        poly = MultilinearPoly.from_terms(n, terms)
        path.write_text(format_mlp(poly))
        k = 1 + rand_below(rng, n // 2)
        code, out, _ = run_cli(
            ["anticonc", "junta-tv", "--input", str(path), "--n", str(n), "--k", str(k)], capsys
        )
        coords = poly.active_variables
        table = {
            t: poly.evaluate([1 if v in t else 0 for v in range(1, n + 1)])
            for size in range(len(coords) + 1)
            for t in itertools.combinations(coords, size)
        }
        rep = junta_tv(table, coords, n, k)
        assert code == (1 if rep.violated else 0)
        assert json.loads(out)["results"] == rep.to_json_dict()


def test_anticonc_junta_tv_refuses_a_wide_junta_before_its_table(sweep_inputs, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("the 2^30 table was started")

    monkeypatch.setattr(cli, "_subset_transform", no_table)
    code, out, err = run_cli(
        ["anticonc", "junta-tv", "--input", sweep_inputs["wide"], "--n", "60", "--k", "2"], capsys
    )
    assert (code, out) == (2, "")
    assert "2^30 junta table entries = 1073741824 exceeds the cap of 16384" in err


def test_anticonc_moments_spot(poly_path, capsys):
    code, out, _ = run_cli(
        ["anticonc", "moments", "--input", poly_path, "--n", "4", "--k", "2"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["mean"] == "1/3"
    assert report["results"]["variance"] == "2/9"


def test_cover_run_then_verify(tmp_path, capsys):
    path = tmp_path / "tri.hg"
    path.write_text("6 3\n1 2 3\n")
    code, out, _ = run_cli(["cover", "run", "--input", str(path), "--m", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    pivot = report["results"]["pivot"]
    assert report["results"]["terminated"] is True
    pivot_arg = " ".join(str(v) for v in pivot)
    code, out, _ = run_cli(
        ["cover", "verify", "--input", str(path), "--pivot", pivot_arg, "--m", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["ok"] is True


def test_suite_acceptance_subset(capsys):
    code, out, err = run_cli(["suite", "acceptance", "--only", "4,7"], capsys)
    assert code == 0
    report = json.loads(out)
    criteria = report["results"]["criteria"]
    assert [c["index"] for c in criteria] == [4, 7]
    assert all(c["ok"] for c in criteria)
    assert "PASS" in err  # human-readable lines go to stderr


# ---------------------------------------------------------------------------
# exit code 1: a verified inequality fails


def test_cover_verify_failure_returns_one(tmp_path, capsys):
    path = tmp_path / "one.hg"
    path.write_text("2 2\n1 2\n")
    code, out, _ = run_cli(
        ["cover", "verify", "--input", str(path), "--pivot", "", "--m", "2"], capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["violations"]
    assert report["results"]["failing_subset"] == []


def test_a_crlf_file_reads_as_its_lf_text_and_is_digested_as_written(c5_path, tmp_path, capsys):
    data = Path(c5_path).read_bytes().replace(b"\n", b"\r\n")
    crlf = tmp_path / "crlf.hg"
    crlf.write_bytes(data)
    reports = []
    for path in (c5_path, str(crlf)):
        code, out, _ = run_cli(["profile", "--input", path, "--k", "3"], capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[1]["input_digest"] == hashlib.sha256(data).hexdigest()


@st.composite
def estimated_graphs(draw):
    """A graph on at most 10 vertices and a sample size k: a split or an
    s = 1 lift, which estimate counts by its side, or m edges drawn so
    that it counts by the given branch of the kernel (scan: m < k;
    positional: k <= m <= max(C(k, r), C(k, r - 1)); tail: m above both).
    A graph with r = 1, at most one edge, or every r-set reads back as a
    side, as do more graphs on few vertices, so the branches draw r >= 2,
    2 <= m < C(n, r) and n >= 5."""
    kind = draw(st.sampled_from(["split", "lift", "tail", "positional", "scan"]))
    if kind in ("split", "lift"):
        n = draw(st.integers(1, 10))
        r = draw(st.integers(1, min(4, n)))
        k = draw(st.integers(0, n))
        if kind == "split":
            return construct_split(n, draw(st.sets(st.integers(1, n))), r), k
        return construct_lift(n, draw(st.integers(r, n)), 1, r, draw(st.integers(0, 99))).graph, k
    n = draw(st.integers(5, 10))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(0, n))
    switch = max(comb(k, r), comb(k, r - 1))
    low, high = {"scan": (2, k - 1), "positional": (k, switch), "tail": (max(k, switch + 1), comb(n, r))}[kind]
    low, high = max(low, 2), min(high, comb(n, r) - 1)
    assume(low <= high)
    pool = list(itertools.combinations(range(1, n + 1), r))
    rng = new_generator(draw(st.integers(0, 2**30)))
    picked = sample_ordered(rng, len(pool), draw(st.integers(low, high)))
    return from_edges(n, r, [pool[i - 1] for i in picked]), k


@pytest.fixture(scope="module")
def hg_file(tmp_path_factory):
    return tmp_path_factory.mktemp("estimate") / "graph.hg"


@given(estimated_graphs(), st.integers(0, 2**30))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_estimate_hits_are_the_replayed_samples_counted_by_the_definition(hg_file, case, seed):
    """estimate on a written graph exits 0 and reports as hits the replayed
    draws of its seed, each counted by induced_edge_count, that reach the
    highest count among them; k = -1 and k = n + 1 exit 2 and print
    nothing."""
    graph, k = case
    hg_file.write_text(format_hg(graph))
    replay = new_generator(seed)
    counts = [induced_edge_count(graph, sample_ordered(replay, graph.n, k)) for _ in range(30)]

    def run(size):
        argv = ["estimate", "--input", str(hg_file), "--k", str(size), "--level", str(max(counts))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--samples", "30", "--seed", str(seed)])
        return code, out.getvalue()

    code, out = run(k)
    assert code == 0
    assert json.loads(out)["results"]["hits"] == counts.count(max(counts))
    for size in (-1, graph.n + 1):
        assert run(size) == (2, "")


def test_estimate_at_a_uniformity_equal_to_k_scans_three_edges(tmp_path, capsys):
    """Three shifted edges of 20,000 vertices on 20,002, sampled at
    k = 20,000: estimate scans the three edges rather than probe the
    20,000 tuples of 19,999 vertices a tail index would (seconds), exits
    0 in under a second, and reports the replayed sample counted by the
    definition."""
    r = 20000
    path = tmp_path / "shifted.hg"
    edges = [" ".join(map(str, range(i, i + r))) + "\n" for i in (1, 2, 3)]
    path.write_text(f"{r + 2} {r}\n" + "".join(edges))
    graph = parse_hg(path.read_text())
    assert graph._side is None and graph.edge_count == 3
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["estimate", "--input", str(path), "--k", str(r), "--level", "0", "--samples", "1", "--seed", "0"], capsys
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    count = induced_edge_count(graph, sample_ordered(new_generator(0), r + 2, r))
    assert json.loads(out)["results"]["hits"] == (count == 0)


# ---------------------------------------------------------------------------
# exit code 2: usage and input errors


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run_cli(["profile", "--input", "no-such-file.hg", "--k", "2"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_header_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("bad\n1 2\n")
    code, _, err = run_cli(["profile", "--input", str(path), "--k", "2"], capsys)
    assert code == 2
    assert "line 1" in err


def case(text, name, message):
    """A malformed file, its whole refusal, and an id naming the case by
    its text and by its fault and line."""
    return pytest.param(text, message, id=f"{text}-{name}")


@pytest.mark.parametrize(
    "text, message",
    [
        case("4 2\n1 x\n", "line 2: non-integer vertex id", "line 2: expected integers, got '1 x'"),
        case(
            "4 2\n2 1\n", "line 2: vertices must be strictly ascending",
            "line 2: edge (2, 1) is not written strictly ascending",
        ),
        case(
            "4 2\n1 1\n", "line 2: vertices must be strictly ascending",
            "line 2: edge (1, 1) repeats a vertex",
        ),
        case(
            "4 2\n0 1\n", "line 2: vertex outside [1..4]",
            "line 2: edge (0, 1) leaves the vertex range [1..4]",
        ),
        case(
            "4 2\n1 5\n", "line 2: vertex outside [1..4]",
            "line 2: edge (1, 5) leaves the vertex range [1..4]",
        ),
        case(
            "4 2\n1 2 3\n", "line 2: edge has 3 vertices, expected 2",
            "line 2: edge (1, 2, 3) has 3 vertices, expected 2",
        ),
        case(
            "4 2\n1 2\n# again\n1 2\n", "line 4: duplicate edge (1, 2)",
            "line 4: duplicate edge (1, 2)",
        ),
        case(
            "nonsense\n1 2\n", "line 1: header must be '<n> <r>'",
            "line 1: expected integers, got 'nonsense'",
        ),
        case(
            "# n r\n4 x\n", "line 2: header must hold two integers",
            "line 2: expected integers, got '4 x'",
        ),
        case(
            "4 0\n", "line 1: invalid header values n=4, r=0",
            "line 1: uniformity must be a positive integer, got 0",
        ),
        case(
            "# only a comment\n\n", "empty input: missing '<n> <r>' header line",
            "empty input: missing '<n> <r>' header line",
        ),
    ],
)
def test_malformed_hg_is_refused_with_its_line(tmp_path, capsys, text, message):
    with pytest.raises(ValueError) as info:
        parse_hg(text)
    assert str(info.value) == message
    path = tmp_path / "bad.hg"
    path.write_text(text)
    code, out, err = run_cli(["profile", "--input", str(path), "--k", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        case(
            "3\n1 : 1 x\n", "line 2: non-integer variable id",
            "line 2: expected integers, got '1 x'",
        ),
        case(
            "3\n1/x : 1\n", "line 2: invalid rational literal",
            "line 2: invalid rational literal '1/x ': invalid literal for int() with base 10: 'x'",
        ),
        case(
            "3\n1 : 2 1\n", "line 2: variables must be strictly ascending",
            "line 2: term support (2, 1) is not written strictly ascending",
        ),
        case(
            "3\n1 : 0 1\n", "line 2: variable outside [1..3]",
            "line 2: support (0, 1) leaves the vertex range [1..3]",
        ),
        case(
            "3\n1 : 1 4\n", "line 2: variable outside [1..3]",
            "line 2: support (1, 4) leaves the vertex range [1..3]",
        ),
        case(
            "3\n1 : 1 2\n\n2 : 1 2\n", "line 4: duplicate support (1, 2)",
            "line 4: duplicate term support (1, 2)",
        ),
        case(
            "3\n1 2\n", "line 2: expected '<coeff> : <vars>'",
            "line 2: expected '<coeff> : <ids>', got '1 2'",
        ),
        case(
            "three\n", "line 1: header must be the variable count",
            "line 1: expected integers, got 'three'",
        ),
        case(
            "# n\n-1\n", "line 2: negative variable count -1",
            "line 2: variable count must be nonnegative, got -1",
        ),
        case(
            "# only a comment\n", "empty input: missing variable-count header line",
            "empty input: missing '<n>' header line",
        ),
    ],
)
def test_malformed_mlp_is_refused_with_its_line(tmp_path, capsys, text, message):
    with pytest.raises(ValueError) as info:
        parse_mlp(text)
    assert str(info.value) == message
    path = tmp_path / "bad.mlp"
    path.write_text(text)
    code, out, err = run_cli(
        ["anticonc", "moments", "--input", str(path), "--n", "3", "--k", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sampling_mode_requires_a_seed(poly_path, capsys):
    code, _, err = run_cli(
        ["coupling-check", "--input", poly_path, "--sample-k", "2"], capsys
    )
    assert code == 2
    assert "--seed" in err


def test_pairs_and_sampling_are_mutually_exclusive(poly_path, capsys):
    code, _, err = run_cli(
        [
            "coupling-check",
            "--input",
            poly_path,
            "--pairs",
            "1,2",
            "--sample-k",
            "1",
            "--seed",
            "0",
        ],
        capsys,
    )
    assert code == 2
    assert "excludes" in err


def test_unknown_criterion_is_rejected(capsys):
    code, _, err = run_cli(["suite", "acceptance", "--only", "99"], capsys)
    assert code == 2
    assert "unknown" in err


ONLY_REFUSALS = {
    ",": "--only ',' selects no criterion",
    " ": "--only ' ' selects no criterion",
    "": "--only '' selects no criterion",
    "x": "--only must be a list of integers, got 'x'",
}


@pytest.mark.parametrize("only", ONLY_REFUSALS)
def test_an_empty_criterion_selection_is_rejected(only, capsys):
    code, out, err = run_cli(["suite", "acceptance", "--only", only], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {ONLY_REFUSALS[only]}\n"


def test_argparse_usage_error_is_exit_two(capsys):
    code, _, _ = run_cli(["profile", "--k", "2"], capsys)  # no --input
    assert code == 2


def test_malformed_pair_token(poly_path, capsys):
    code, _, err = run_cli(
        ["coupling-check", "--input", poly_path, "--pairs", "1-2"], capsys
    )
    assert code == 2
    assert "a,b" in err


def test_anticonc_ehm_on_an_empty_ground_set_is_a_usage_error(capsys):
    code, out, err = run_cli(["anticonc", "ehm", "--n", "0", "--k", "0", "--t", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("k, t", [("9", "2"), ("2", "9")])
def test_anticonc_ehm_past_the_ground_set_is_a_usage_error(k, t, capsys):
    code, out, err = run_cli(["anticonc", "ehm", "--n", "5", "--k", k, "--t", t], capsys)
    assert code == 2
    assert out == ""
    assert f"need 0 <= k, t <= n, got n=5, k={k}, t={t}" in err


@pytest.mark.parametrize(
    "construction",
    [
        ["split", "--n", "4", "--side", "1 2", "--r", "2"],
        ["lift", "--n", "6", "--k", "4", "--s", "1", "--r", "2", "--seed", "0"],
    ],
)
def test_construct_into_a_missing_directory_is_a_usage_error(tmp_path, capsys, construction):
    out_path = tmp_path / "missing" / "g.hg"
    code, out, err = run_cli(["construct", *construction, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not out_path.parent.exists()


# ---------------------------------------------------------------------------
# the exit-code contract on parameter edge cases


# One 30-variable support has 2^30 subsets to tabulate; the split graph
# would have about 9.0e9 edges and the lift about 5.0e9; --top on 100
# vertices at s = 2 would store 94,109,400 sequence weights; the TV sums
# at n = 10^6 reduce a denominator C(n, k) * n^t of about 10^6 bits.  The
# four counts from the n = 10^6 split on have 250,000 bits or more, so
# computing one exactly would take seconds: they are refused by a lower
# bound first.
OVERSIZED = [
    "anticonc moments --input {wide_support} --n 30 --k 10",
    "construct split --n 3000 --side 1,2 --r 4 --out {out}",
    "construct lift --n 100000 --k 2 --s 1 --r 2 --seed 0 --out {out}",
    "discrepancy --input {hundred} --s 2 --top 1",
    "anticonc ehm --n 1000000 --k 500000 --t 2",
    "anticonc junta-tv --input {poly} --n 1000000 --k 500000",
    "construct split --n 1000000 --side 1 --r 500000 --out {out}",
    "construct lift --n 1000000 --k 500000 --s 250000 --r 250000 --seed 0 --out {out}",
    "profile --input {million} --k 500000",
    "discrepancy --input {million_wide} --s 250000",
    # a cheap lower bound of about 2^(10^12), refused without building it
    "construct split --n 100000000000000000000 --side 3,2000 --r 1000000000000 --out {out}",
    "discrepancy --input {huge_wide} --s 2000",
    # closed forms of at least 2.6e9, 1.9e9 and 6.6e21 bits, refused before they are computed
    "cover run --input {million_huge_r} --m 1",
    "discrepancy --input {million_huge_r} --s 64",
    "anticonc poisson --input {poly} --p 1/100000000000000000000 --level 1 --radius 1/2",
    # few subsets, draws or edges, but each of 10^8 to 10^20 vertex ids
    "profile --input {huge_huge} --k 0",
    "profile --input {huge_4} --k 100000000000000000000",
    "construct lift --n 1000000000000 --k 1000000000000 --s 1000000000000 --r 1000000000000 --seed 0 --out {out}",
    "estimate --input {n_1e8} --k 100000000 --level 0 --samples 1 --seed 0",
    "construct split --n 1000000000000 --side 1 --r 1000000000000 --out {out}",
    # 10^20 samples, and a coupling of 10^8 pairs past the 20 sign variables
    "estimate --input {c5} --k 2 --level 1 --samples 100000000000000000000 --seed 0",
    "coupling-check --input {huge_pair} --sample-k 100000000 --seed 0",
]


# Reports holding a number of more than 4300 digits, and the field each
# names: a per-sequence bound of 2^20000, the variance of a coefficient of
# 10^4000, and a point mass over a denominator of 2^10000 + 1.
UNPRINTABLE = {
    "discrepancy --input {two_20000} --s 1": "results.per_sequence_bound",
    "anticonc moments --input {huge_coefficient} --n 3 --k 2": "results.variance",
    "anticonc poisson --input {single} --p {long_p} --level 1 --radius 0": "results.binomial_bound",
}


# Cover runs whose residue family is a random graph on 200 vertices, and
# the exit code of each: exact matching on it must not take exponential
# time.
MATCHED_RESIDUES = {
    "cover verify --input {fan_200} --pivot 1 --m 100": 1,
    "cover run --input {fan_200} --m 100": 0,
}


@pytest.fixture(scope="module")
def fan_200_text():
    """A 3-graph on 201 vertices, {1} with each edge of a random graph on
    200 vertices shifted up by one: pivot {1} leaves that graph (403
    edges, matching number 98) as a residue family."""
    graph = random_hypergraph(200, 2, Fraction(4, 199), 0)
    return format_hg(from_edges(201, 3, [(1, a + 1, b + 1) for a, b in graph.edges]))


@pytest.fixture
def sweep_inputs(tmp_path, fan_200_text):
    leaves = 1500
    texts = {
        "c5": "5 2\n1 2\n2 3\n3 4\n4 5\n1 5\n",
        "empty": "0 1\n",
        "r_above_n": "2 3\n",
        "r_far_above_n": "40 60\n",
        "star": f"{leaves + 1} 2\n" + "".join(f"1 {v}\n" for v in range(2, leaves + 2)),
        "poly": "2\n1 : 1 2\n",
        "wide": "30\n" + "".join(f"1 : {v}\n" for v in range(1, 31)),
        "wide_support": "30\n1 : " + " ".join(str(v) for v in range(1, 31)) + "\n",
        "hundred": "100 2\n1 2\n",
        "million": "1000000 2\n",
        "million_wide": "1000000 500000\n",
        "huge_n": "100000000000000000000 2\n1 2\n1 3\n2 3\n",
        "huge_pair": "100000000000000000000\n1 : 1 2\n",
        "huge_far_pair": "100000000000000000000\n1 : 1 99999999999999999998\n",
        "far_support": "100000000\n3/7 :\n2 : 2 3 99999999\n",
        "huge_wide": "100000000000000000000 1000000000000\n",
        "one_2000": "1 2000\n",
        "wide_3000": "3000 2000\n",
        "million_huge_r": "1000000 100000000\n",
        "hundred_60": "100 60\n",
        "huge_huge": "100000000000000000000 100000000000000000000\n",
        "huge_4": "100000000000000000000 4\n",
        "n_1e8": "100000000 2\n",
        "million_quarter": "1000000 250000\n",
        "two_20000": "2 20000\n",
        "huge_coefficient": f"3\n{10**4000} : 1 2\n1 : 3\n",
        "single": "2\n1 : 1\n",
        "fan_200": fan_200_text,
    }
    b = 2**10000 + 1
    paths = {"dir": str(tmp_path), "out": str(tmp_path / "out.hg"), "long_p": f"{b // 3}/{b}"}
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


EDGE_CASES = [
    # zeros
    "profile --input {c5} --k 0",
    "profile --input {c5} --k 2 --max-subsets 0",
    "estimate --input {c5} --k 0 --level 0 --samples 0 --seed 0",
    "discrepancy --input {c5} --s 0",
    "discrepancy --input {c5} --s 1 --term-cap 0",
    "cover run --input {c5} --m 0",
    "cover run --input {c5} --m 2 --step-cap 0",
    "cover verify --input {c5} --pivot 0 --m 0",
    "anticonc ehm --n 0 --k 0 --t 0",
    "anticonc moments --input {poly} --n 0 --k 0",
    "anticonc junta-tv --input {poly} --n 0 --k 0",
    "anticonc poisson --input {poly} --p 0 --level 0 --radius 0",
    "coupling-check --input {poly} --sample-k 0 --seed 0",
    "construct split --n 0 --side 1 --r 1 --out {out}",
    "construct lift --n 0 --k 0 --s 0 --r 0 --seed 0 --out {out}",
    "suite acceptance --only 0",
    # negatives
    "profile --input {c5} --k -1",
    "estimate --input {c5} --k 2 --level -1 --samples -5 --seed -1",
    "discrepancy --input {c5} --s -1",
    "cover run --input {c5} --m -1",
    "cover run --input {c5} --m 2 --step-cap -1",
    "cover verify --input {c5} --pivot -1 --m 1",
    "anticonc ehm --n -3 --k -1 --t -1",
    "anticonc junta-tv --input {poly} --n 2 --k -1",
    "coupling-check --input {poly} --sample-k -1 --seed 0",
    "construct lift --n -1 --k -1 --s -1 --r -1 --seed -1 --out {out}",
    # the empty graph on no vertices
    "profile --input {empty} --k 0",
    "estimate --input {empty} --k 0 --level 0 --samples 3 --seed 0",
    "discrepancy --input {empty} --s 1",
    "cover run --input {empty} --m 1",
    # uniformity above the vertex count
    "profile --input {r_above_n} --k 2",
    "discrepancy --input {r_above_n} --s 1",
    "cover run --input {r_above_n} --m 1",
    "construct split --n 2 --side 1 --r 3 --out {out}",
    # r = 1 on a huge ground set: the side's singletons, no list of the rest
    "construct split --n 1000000000000 --side 1,5 --r 1 --out {out}",
    # an empty side on a huge ground set: no edges, no list of the rest
    "construct split --n 1000000000000 --side , --r 2 --out {out}",
    # r - s above n: no co-degree, so no walk over the 40!/22! prefixes
    "discrepancy --input {r_far_above_n} --s 10",
    # an unwritable --out: the path is a directory
    "construct split --n 4 --side 1 --r 2 --out {dir}",
    # a search deeper than the recursion limit
    "cover run --input {star} --m 2",
    # a draw count or test-set size past the ground set
    "anticonc ehm --n 5 --k 9 --t 2",
    "anticonc ehm --n 5 --k 2 --t 9",
    # a vertex count far above the largest vertex of an edge
    "estimate --input {huge_n} --k 2 --level 1 --samples 10 --seed 0",
    # a pivot that misses an edge
    "cover verify --input {c5} --pivot 1,2 --m 1",
    # exact matching on a 200-vertex residue graph, polynomial in its size
    *MATCHED_RESIDUES,
    # a junta past the 2^14 arity cap, refused before its table is built
    "anticonc junta-tv --input {wide} --n 60 --k 2",
    # a gamma that JSON cannot carry
    "anticonc poisson --input {poly} --p 1/2 --level 1 --radius 0 --gamma nan",
    "anticonc poisson --input {poly} --p 1/2 --level 1 --radius 0 --gamma inf",
    # pairs far above 2k on a huge ground set: slot masks, not vertex masks
    "coupling-check --input {huge_pair} --sample-k 1 --seed 0",
    "coupling-check --input {huge_far_pair} --sample-k 0 --seed 0",
    "coupling-check --input {far_support} --sample-k 8 --seed 2",
    # a report whose default step cap has too many digits to print
    "cover run --input {one_2000} --m 2000",
    "cover run --input {wide_3000} --m 1",
    *UNPRINTABLE,
    # a 112-digit default step cap, printed
    "cover run --input {hundred_60} --m 1",
    # one draw of 500,000 vertices, under the per-sample cap
    "estimate --input {million_quarter} --k 500000 --level 0 --samples 1 --seed 0",
    # work past a cap, refused before it starts
    *OVERSIZED,
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", EDGE_CASES)
def test_every_edge_case_keeps_the_exit_code_contract(argv, sweep_inputs, capsys):
    code, out, _ = run_cli([word.format(**sweep_inputs) for word in argv.split()], capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_work_is_refused_before_it_starts(argv, sweep_inputs, capsys):
    start = time.perf_counter()
    code, out, err = run_cli([word.format(**sweep_inputs) for word in argv.split()], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "cap" in err
    assert not (Path(sweep_inputs["dir"]) / "out.hg").exists()


@pytest.mark.parametrize("argv", MATCHED_RESIDUES)
def test_a_cover_over_a_200_vertex_residue_graph_finishes_at_once(argv, sweep_inputs, capsys):
    start = time.perf_counter()
    code, out, _ = run_cli([word.format(**sweep_inputs) for word in argv.split()], capsys)
    assert time.perf_counter() - start < 2
    assert code == MATCHED_RESIDUES[argv]
    json.loads(out)


@pytest.mark.parametrize("side, r", [("", "0"), ("", "-3"), ("1 2", "0")])
def test_construct_split_refuses_a_nonpositive_uniformity(tmp_path, capsys, side, r):
    out_path = tmp_path / "g.hg"
    code, out, err = run_cli(
        ["construct", "split", "--n", "5", "--side", side, "--r", r, "--out", str(out_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert f"uniformity must be a positive integer, got {r}" in err
    assert not out_path.exists()


def test_negative_sample_k_is_named_in_the_error(poly_path, capsys):
    code, out, err = run_cli(
        ["coupling-check", "--input", poly_path, "--sample-k", "-1", "--seed", "0"], capsys
    )
    assert code == 2
    assert out == ""
    assert "k=-1" in err


def test_negative_top_is_a_usage_error(c5_path, capsys):
    code, out, err = run_cli(["discrepancy", "--input", c5_path, "--s", "1", "--top", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--top" in err


def test_an_unprintable_report_names_its_field(sweep_inputs, capsys):
    argv = ["cover", "run", "--input", sweep_inputs["wide_3000"], "--m", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: report field params.step_cap has too many digits to print\n"


@pytest.mark.parametrize("argv", UNPRINTABLE)
def test_a_number_too_long_to_print_names_its_field(argv, sweep_inputs, capsys):
    code, out, err = run_cli([word.format(**sweep_inputs) for word in argv.split()], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: report field {UNPRINTABLE[argv]} has too many digits to print\n"


def test_cover_verify_names_the_missed_edge(c5_path, capsys):
    code, out, _ = run_cli(["cover", "verify", "--input", c5_path, "--pivot", "1 2", "--m", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["violations"] == ["pivot misses edge [3, 4]"]
    assert report["results"]["failing_edge"] == [3, 4]


# ---------------------------------------------------------------------------
# Recorded reports: one invocation per leaf command (two for coupling-check's
# modes), pinned to its exit code and the sha256 of its stdout.  They run in
# the directory of their inputs with relative names, so the echoed paths are
# the same on every machine.

REPORT_INPUTS = {
    "c5.hg": "5 2\n1 2\n2 3\n3 4\n4 5\n1 5\n",
    "poly.mlp": "4\n1 : 1 2\n1 : 3 4\n",
}

RECORDED_REPORTS = {
    "profile --input c5.hg --k 3": (0, "a577551f62be3f46baba8a42318ecd6082f7282fe8041c4a5d208b99b5b52c41"),
    "estimate --input c5.hg --k 3 --level 2 --samples 200 --seed 7": (0, "51171764a2c74c4c1f179b64ca2021a715842afe0eec934ecd5e47f4ca749ec0"),
    "construct lift --n 8 --k 4 --s 2 --r 3 --seed 1 --out lift.hg": (0, "b012e5a1fe9f55096e569c6eaea9804940863043d463efd2647ed16c7511f950"),
    "construct lift --n 8 --k 4 --s 1 --r 3 --seed 1 --out lift1.hg": (0, "6820d62f805810c4777bf4cad16a29f624e6d29f12f900d37909ddea46ef3ee9"),
    "construct split --n 6 --side 1,2 --r 2 --out split.hg": (0, "d6b194698b52a2a1d05f3c6df4f9367f77df64d5bf59fbd23504b9195a5e736f"),
    "coupling-check --input poly.mlp --pairs '2,1 4,3'": (0, "c8bd8ab8c1f496a00f3e23e46b2a89bac334dbfc9763e3eefe7296c62dac4c7a"),
    "coupling-check --input poly.mlp --sample-k 2 --seed 3": (0, "e50ad610753464f8ac15312a826571dec7320ef465ee0839cc795ee8993f4c46"),
    "discrepancy --input c5.hg --s 2 --top 3": (0, "8a0ac31d4580942cde3865bbd2219ed6c5600b9bd264724527f1e541d39e1f2e"),
    "anticonc ehm --n 20 --k 5 --t 3": (0, "4ed4ba52a5f0ce0bd481926e287ceea4d73f8e9de88e0d5d1801723d34b3d432"),
    "anticonc poisson --input poly.mlp --p 1/3 --level 1 --radius 0 --gamma 0.05": (0, "fbcae22f274f3f56179f393b2f4e83e8ff545c455b965230b5c9ce3247492949"),
    "anticonc junta-tv --input poly.mlp --n 8 --k 4": (0, "9b7ab4dca41d6733e69ac4fbea4e1c6a136ed1a07ed6811b439e8c186e92fb36"),
    "anticonc moments --input poly.mlp --n 6 --k 3": (0, "422ca359bba440a8fe248ac19327daf04457661f1bd740777dabbbc8029017c8"),
    "cover run --input c5.hg --m 3": (0, "6b847ce7af983afa958e55520b9f54de01656262012d9bd680e6b8a9be885bff"),
    "cover verify --input c5.hg --pivot 1,2 --m 1": (1, "0f6cb214c25b1ae1622613f2d07ef1ec6880427a84507488ba2e8db4b894c4de"),
    "suite acceptance --only 4": (0, "9ffb754ffd177089004d429cbd5c9d77809f4265bb559019c49474e6d51350ee"),
}


@pytest.mark.parametrize("argv", RECORDED_REPORTS)
def test_every_command_prints_its_recorded_report(argv, tmp_path, monkeypatch, capsys):
    for name, text in REPORT_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(shlex.split(argv), capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RECORDED_REPORTS[argv]


def _leaf_commands(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_commands(child, (*path, name))
            return
    yield " ".join(path)


def test_every_command_has_a_contract_case_and_a_recorded_report():
    leaves = set(_leaf_commands(cli.build_parser()))
    assert len(leaves) == 13
    for cases in (EDGE_CASES, RECORDED_REPORTS):
        covered = {leaf for leaf in leaves for case in cases if case.startswith(leaf + " ")}
        assert leaves - covered == set()
