"""The four benchmark workloads.

Each workload function takes the imported package, the workload
seed and the scale, generates every input from the seed (this is the
set-up the benchmark times) and returns the ops of one pass.  The package
receives only those inputs.  At seed ``DEFAULT_SEED`` the parameters of
acceptance criteria 5 and 6 are reproduced exactly (construction seed 55,
estimate seeds 56 and 66), so the frozen hit counts 37388 and 52311 apply.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from pathlib import Path

from ops import Op, digest

DEFAULT_SEED = 0
WORK_DIR = Path(".perfbench") / "work"
MODULES = (
    "rng",
    "serialize",
    "hypergraph",
    "multilinear",
    "profiles",
    "coupling",
    "anticonc",
    "discrepancy",
    "cover",
    "acceptance",
    "cli",
)
# Time limit of the matching cliff probe: generous for any polynomial
# maximum-matching algorithm on 200 vertices, far below the exponential
# search's running time there (it timed out on each of 41 seeds tried).
CLIFF_LIMIT_S = 2.0


class Edgestats:
    """The package's modules, imported from ``src``."""

    def __init__(self, src: Path):
        self.package = importlib.import_module("edgestats")
        origin = Path(self.package.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"edgestats was imported from {origin}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"edgestats.{name}"))

    def loaded_modules(self):
        return [self.package] + [getattr(self, name) for name in MODULES]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with sha512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}")


def _mean_edges(edges: int, n: int, k: int, r: int) -> Fraction:
    """Exact mean induced edge count of a uniform k-subset."""
    return Fraction(edges * comb(n - r, k - r), comb(n, k))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lift_probability(n: int, base_size: int) -> Fraction:
    """Exact Pr[e(G[U]) = 19] for a 20-subset U of the s = 1, r = 2 lift:
    U meets the base in exactly one vertex."""
    return Fraction(base_size * comb(n - base_size, 19), comb(n, 20))


def split_probability(n: int, side: int) -> Fraction:
    """Exact Pr[e(G[U]) = 30] for an 8-subset U of the r = 3 split graph:
    U meets the side in 2 or 3 vertices."""
    return Fraction(sum(comb(side, j) * comb(n - side, 8 - j) for j in (2, 3)), comb(n, 8))


def estimate_problems(hits: int, samples: int, want_samples: int, p: Fraction | None) -> list[str]:
    """The hit rate must lie within five standard errors of the exact p."""
    if samples != want_samples or not 0 <= hits <= samples:
        return [f"{hits} hits of {samples} samples, want {want_samples} samples"]
    if p is None:
        return []
    tol = 5 * math.sqrt(p * (1 - p) / samples)
    if abs(hits / samples - p) > tol:
        return [f"hit rate {hits / samples} is more than {tol:.4f} from {float(p)}"]
    return []


# ---------------------------------------------------------------------------
# mc-paper


def mc_paper(es: Edgestats, seed: int, tiny: bool) -> list[Op]:
    hg, pr = es.hypergraph, es.profiles
    lift_n, split_n, side, samples = (200, 40, 10, 2000) if tiny else (2000, 400, 100, 100_000)
    sparse_n, sparse_m, sparse_k, sparse_samples = (60, 100, 20, 1000) if tiny else (120, 400, 40, 20_000)
    rng = _rng("mc-paper", seed)
    picked: set[tuple[int, ...]] = set()
    while len(picked) < sparse_m:
        picked.add(tuple(sorted(rng.sample(range(1, sparse_n + 1), 3))))
    sparse = hg.from_edges(sparse_n, 3, sorted(picked))
    if comb(sparse_k, 3) < sparse.edge_count:
        raise ValueError("the sparse estimate must take the edge-scan strategy")
    sparse_level = round(_mean_edges(sparse.edge_count, sparse_n, sparse_k, 3))
    sparse_seed = 77 + 1000 * seed
    replayed: list[int] = []

    def sparse_reference_hits() -> int:
        """Replay the estimate's seeded draws and count the induced edges
        of each sample through a vertex index, not an edge scan.  Run once,
        outside any timed region (the first pass is never traced)."""
        if not replayed:
            by_first: dict[int, list[tuple[int, int]]] = {}
            for a, b, c in sparse.edges:
                by_first.setdefault(a, []).append((b, c))
            draws = es.rng.new_generator(sparse_seed)
            hits = 0
            for _ in range(sparse_samples):
                u = set(es.rng.sample_ordered(draws, sparse_n, sparse_k))
                induced = sum(b in u and c in u for a in u for b, c in by_first.get(a, ()))
                hits += induced == sparse_level
            replayed.append(hits)
        return replayed[0]

    def check_lift(built, ctx):
        b = built.base.edge_count
        want = comb(lift_n, 2) - comb(lift_n - b, 2)
        problems = [] if built.level == 19 else [f"level {built.level}, want 19"]
        if built.graph.edge_count != want:
            problems.append(f"{built.graph.edge_count} lift edges, want {want}")
        return problems

    def check_estimate(probability, want_samples):
        def check(est, ctx):
            return estimate_problems(est.hits, est.samples, want_samples, probability(ctx))

        return check

    def check_split(graph, ctx):
        want = side * comb(split_n - side, 2)
        return [] if graph.edge_count == want else [f"{graph.edge_count} edges, want {want}"]

    def check_sparse(est, ctx):
        problems = estimate_problems(est.hits, est.samples, sparse_samples, None)
        want = sparse_reference_hits()
        return problems if est.hits == want else problems + [f"{est.hits} hits, the replayed draws give {want}"]

    def hits(est):
        return str(est.hits)

    def samples_of(est):
        return {"samples": est.samples}

    return [
        Op(
            "lift-construct",
            lambda ctx: hg.construct_lift(lift_n, 20, 1, 2, 55 + 1000 * seed),
            check_lift,
            lambda built: f"{built.graph.edge_count}:{digest(built.base.edges)}",
        ),
        Op(
            "lift-estimate",
            lambda ctx: pr.estimate_point(ctx["lift-construct"].graph, 20, 19, samples, 56 + 1000 * seed),
            check_estimate(lambda ctx: lift_probability(lift_n, ctx["lift-construct"].base.edge_count), samples),
            hits,
            samples_of,
        ),
        Op(
            "split-construct",
            lambda ctx: hg.construct_split(split_n, range(1, side + 1), 3),
            check_split,
            lambda graph: f"{graph.edge_count}:{graph.edges[0]}:{graph.edges[-1]}",
        ),
        Op(
            "split-estimate",
            lambda ctx: pr.estimate_point(ctx["split-construct"], 8, 30, samples, 66 + 1000 * seed),
            check_estimate(lambda ctx: split_probability(split_n, side), samples),
            hits,
            samples_of,
        ),
        Op(
            "sparse-estimate",
            lambda ctx: pr.estimate_point(sparse, sparse_k, sparse_level, sparse_samples, sparse_seed),
            check_sparse,
            hits,
            samples_of,
        ),
    ]


# ---------------------------------------------------------------------------
# exact-rational


def _criterion_op(es: Edgestats, index: int) -> Op:
    def check(res, ctx):
        return [] if res.ok else [f"criterion {index} failed: {res.detail}"]

    return Op(
        f"criterion-{index:02d}",
        lambda ctx: es.acceptance.run_criterion(index),
        check,
        lambda res: digest([res.ok, res.detail]),
    )


def exact_rational(es: Edgestats, seed: int, tiny: bool) -> list[Op]:
    hg, pr, an, cp, ml = es.hypergraph, es.profiles, es.anticonc, es.coupling, es.multilinear
    rng = _rng("exact-rational", seed)
    prof_n, prof_k = (12, 5) if tiny else (20, 8)
    junta_n, junta_k, pivot_size = (12, 5, 4) if tiny else (30, 12, 10)
    sign_n, sign_k = (12, 5) if tiny else (24, 11)
    profile_graph = hg.random_hypergraph(prof_n, 3, Fraction(1, 2), rng.getrandbits(31))
    junta_graph = hg.random_hypergraph(junta_n, 3, Fraction(1, 16), rng.getrandbits(31))
    pivot = sorted(rng.sample(range(1, junta_n + 1), pivot_size))
    sign_poly = ml.edge_indicator_poly(hg.random_hypergraph(sign_n, 3, Fraction(1, 32), rng.getrandbits(31)))
    pairs = cp.sample_coupling(sign_n, sign_k, rng.getrandbits(31)).pairs
    profile_poly = ml.edge_indicator_poly(profile_graph)
    prof_mean = _mean_edges(profile_graph.edge_count, prof_n, prof_k, 3)

    def check_profile(profile, ctx):
        problems = []
        if profile.total != comb(prof_n, prof_k) or sum(profile.counts.values()) != profile.total:
            problems.append(f"counts sum to {sum(profile.counts.values())}, want C({prof_n},{prof_k})")
        if profile.mean() != prof_mean:
            problems.append(f"mean {profile.mean()}, want {prof_mean}")
        return problems

    def check_junta(table, ctx):
        # Law of total expectation over the pivot intersection.
        total_p = sum(table.subset_probability(t) for t, _ in table.feasible_items())
        mean = sum(table.subset_probability(t) * v for t, v in table.feasible_items())
        want = _mean_edges(junta_graph.edge_count, junta_n, junta_k, 3)
        problems = [] if total_p == 1 else [f"pivot probabilities sum to {total_p}"]
        if mean != want:
            problems.append(f"table averages to {mean}, want {want}")
        return problems

    def check_sign(report, ctx):
        problems = []
        if report.max_abs_discrepancy != 0:
            problems.append(f"max |discrepancy| {report.max_abs_discrepancy}")
        if report.assignments_checked != 2**sign_k:
            problems.append(f"{report.assignments_checked} sign vectors, want {2**sign_k}")
        return problems

    def check_moments(moments, ctx):
        problems = [] if moments.mean == prof_mean else [f"mean {moments.mean}, want {prof_mean}"]
        profile = ctx.get("exact-profile")
        if profile is not None:
            second = Fraction(sum(c * c * m for c, m in profile.counts.items()), profile.total)
            if moments.variance != second - prof_mean**2:
                problems.append(f"variance {moments.variance} disagrees with the exact profile")
        return problems

    criteria = (1, 4, 7, 11) if tiny else (1, 2, 3, 4, 7, 10, 11)
    return [_criterion_op(es, i) for i in criteria] + [
        Op(
            "exact-profile",
            lambda ctx: pr.exact_profile(profile_graph, prof_k),
            check_profile,
            lambda p: digest(p.to_json_dict()),
            lambda p: {"subsets": p.total},
        ),
        Op(
            "conditional-junta",
            lambda ctx: pr.conditional_junta(junta_graph, junta_k, pivot),
            check_junta,
            lambda t: digest(t.to_json_dict()),
        ),
        Op(
            "sign-expansion",
            lambda ctx: cp.check_sign_expansion(sign_poly, pairs),
            check_sign,
            lambda rep: digest(rep.to_json_dict()),
            lambda rep: {"sign_vectors": rep.assignments_checked},
        ),
        Op(
            "slice-moments",
            lambda ctx: an.slice_moments(profile_poly, prof_n, prof_k),
            check_moments,
            lambda m: digest(m.to_json_dict()),
        ),
    ]


# ---------------------------------------------------------------------------
# search


def _greedy_matching(edges) -> int:
    used: set[int] = set()
    size = 0
    for e in edges:
        if used.isdisjoint(e):
            used.update(e)
            size += 1
    return size


def search(es: Edgestats, seed: int, tiny: bool) -> list[Op]:
    hg, cv, ds = es.hypergraph, es.cover, es.discrepancy
    rng = _rng("search", seed)
    cover_graphs, match_graphs = (4, 10) if tiny else (20, 2000)
    disc2_n, disc3_n = (7, 6) if tiny else (12, 9)
    # Small graphs, many of them: the exponential search time is heavy-tailed
    # in n, and a few hard graphs at n >= 24 would make the battery seed-bound.
    match_n = 20 if tiny else 16
    cliff_n = 200

    def rand(n, r, p):
        return hg.random_hypergraph(n, r, p, rng.getrandbits(31))

    covers = []
    for _ in range(cover_graphs):
        g = rand(12, 3, Fraction(1, 8))
        covers.append((g, hg.matching_number(g) + 1))
    disc2 = rand(disc2_n, 3, Fraction(1, 2))
    disc3 = rand(disc3_n, 3, Fraction(1, 2))
    # Complete and empty 3-graphs at the same sizes: their totals are 0.
    trivial = [
        (graph, s)
        for n, s in ((disc2_n, 2), (disc3_n, 3))
        for graph in (hg.from_edges(n, 3, itertools.combinations(range(1, n + 1), 3)), hg.from_edges(n, 3, []))
    ]
    # Average degree 4: p = 4 / (n - 1).
    matchings = [rand(match_n, 2, Fraction(4, match_n - 1)) for _ in range(match_graphs)]
    cliff = rand(cliff_n, 2, Fraction(4, cliff_n - 1))
    cliff_greedy = _greedy_matching(cliff.edges)

    def check_certs(certs, ctx):
        return [f"graph {i}: step cap reached" for i, c in enumerate(certs) if not c.terminated]

    def verify(ctx):
        certs = ctx["cover-greedy"]
        return [cv.verify_cover(g, c.pivot, m) for (g, m), c in zip(covers, certs)]

    def check_verify(vers, ctx):
        return [f"graph {i}: pivot rejected" for i, v in enumerate(vers) if not v.ok]

    def check_discrepancy(graph, s):
        def check(rep, ctx):
            problems = []
            weights = {w.sequence: w.weight for w in rep.weights}
            if rep.sequences_checked != perm(graph.n, 2 * s) or len(weights) != rep.sequences_checked:
                problems.append(f"{rep.sequences_checked} sequences, want {perm(graph.n, 2 * s)}")
            if sum(weights.values()) != rep.total or max(weights.values()) != rep.max_weight:
                problems.append("weights disagree with the total or the maximum")
            if rep.max_weight > rep.per_sequence_bound:
                problems.append(f"weight {rep.max_weight} above the bound")
            # Swapping the slots of the first pair flips every sign.
            if any(weights[(q[1], q[0]) + q[2:]] != w for q, w in weights.items()):
                problems.append("weights not invariant under a slot swap")
            return problems

        return check

    def check_trivial(reps, ctx):
        return [f"graph {i}: total {rep.total}, want 0" for i, rep in enumerate(reps) if rep.total != 0]

    def match_all(ctx):
        return [(hg.matching_number(g), hg.lex_min_maximum_matching(g)) for g in matchings]

    def check_matchings(results, ctx):
        problems = []
        for i, (g, (nu, chosen)) in enumerate(zip(matchings, results)):
            covered = [v for e in chosen for v in e]
            if len(chosen) != nu or len(set(covered)) != len(covered):
                problems.append(f"graph {i}: {len(chosen)} edges chosen, matching number {nu}")
            elif not set(chosen) <= g.edge_set or tuple(sorted(chosen)) != chosen:
                problems.append(f"graph {i}: chosen edges are not sorted graph edges")
            elif any(set(covered).isdisjoint(e) for e in g.edges):
                problems.append(f"graph {i}: matching is not maximal")
        return problems

    def check_cliff(nu, ctx):
        ok = cliff_greedy <= nu <= cliff_n // 2
        return [] if ok else [f"matching number {nu} outside [{cliff_greedy}, {cliff_n // 2}]"]

    def seqs(rep):
        return {"sequences": rep.sequences_checked}

    return [
        _criterion_op(es, 8),
        _criterion_op(es, 9),
        Op(
            "cover-greedy",
            lambda ctx: [cv.greedy_cover(g, m) for g, m in covers],
            check_certs,
            lambda certs: digest([c.to_json_dict() for c in certs]),
        ),
        Op(
            "cover-verify",
            verify,
            check_verify,
            lambda vers: digest([v.to_json_dict() for v in vers]),
            lambda vers: {"residual_checks": sum(v.checked_subsets for v in vers)},
        ),
        Op(
            "discrepancy-s2",
            lambda ctx: ds.signed_discrepancy(disc2, 2, collect_weights=True),
            check_discrepancy(disc2, 2),
            lambda rep: digest(rep.to_json_dict()),
            seqs,
        ),
        Op(
            "discrepancy-s3",
            lambda ctx: ds.signed_discrepancy(disc3, 3, collect_weights=True),
            check_discrepancy(disc3, 3),
            lambda rep: digest(rep.to_json_dict()),
            seqs,
        ),
        Op(
            "discrepancy-trivial",
            lambda ctx: [ds.signed_discrepancy(graph, s) for graph, s in trivial],
            check_trivial,
            lambda reps: digest([rep.to_json_dict() for rep in reps]),
        ),
        Op("matching-battery", match_all, check_matchings, digest),
        Op(
            "matching-cliff",
            lambda ctx: hg.matching_number(cliff),
            check_cliff,
            None,
            limit_s=CLIFF_LIMIT_S,
            known_defect="matching_number is exponential on a 200-vertex random graph",
        ),
    ]


# ---------------------------------------------------------------------------
# cli-roundtrip


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def cli_roundtrip(es: Edgestats, seed: int, tiny: bool) -> list[Op]:
    hg, ml = es.hypergraph, es.multilinear
    rng = _rng("cli-roundtrip", seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = {name: str(WORK_DIR / name) for name in ("split.hg", "lift.hg", "a.hg", "b.hg", "poly.mlp", "sparse.mlp", "junta.mlp")}
    split_n, split_side = (32, 8) if tiny else (200, 50)
    lift_n = 60 if tiny else 300
    samples = 500 if tiny else 20_000
    a_n, a_k = (9, 4) if tiny else (16, 6)
    b_n = 7 if tiny else 10
    poly_n, poly_k, sample_k = (12, 5, 4) if tiny else (20, 8, 8)

    side = sorted(rng.sample(range(1, split_n + 1), split_side))
    graph_a = hg.random_hypergraph(a_n, 3, Fraction(1, 4), rng.getrandbits(31))
    graph_b = hg.random_hypergraph(b_n, 3, Fraction(1, 2), rng.getrandbits(31))
    poly_graph = hg.random_hypergraph(poly_n, 3, Fraction(1, 8), rng.getrandbits(31))
    Path(path["a.hg"]).write_text(hg.format_hg(graph_a))
    Path(path["b.hg"]).write_text(hg.format_hg(graph_b))
    Path(path["poly.mlp"]).write_text(ml.format_mlp(ml.edge_indicator_poly(poly_graph)))

    def sparse_poly(active: int, terms: int) -> tuple[str, int]:
        supports = [w for size in (1, 2) for w in itertools.combinations(range(1, active + 1), size)]
        chosen = rng.sample(supports[active:], terms - active) + supports[:active]
        coeffs = {w: 1 + rng.randrange(3) for w in chosen}
        return ml.format_mlp(ml.MultilinearPoly.from_terms(active, coeffs)), sum(coeffs.values())

    sparse_text, sparse_total = sparse_poly(6, 9)
    Path(path["sparse.mlp"]).write_text(sparse_text)
    Path(path["junta.mlp"]).write_text(sparse_poly(3, 4)[0])
    radius = Fraction(1, 2)
    level = Fraction(3) ** 6 * radius + 1 + rng.randrange(sparse_total + 3)
    ehm_n = 30  # criterion 2 finds no violation for any k, t at n <= 30
    ehm_k, ehm_t = 1 + rng.randrange(ehm_n // 2), 1 + rng.randrange(ehm_n)
    seeds = [rng.getrandbits(31) for _ in range(3)]

    def run_cli(argv):
        def run(ctx):
            args = argv(ctx) if callable(argv) else argv
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = es.cli.main(list(args))
            return CliRun(code, out.getvalue(), err.getvalue())

        return run

    def op(name, argv, check=None, units=None, expect=0, known_defect=None):
        def full_check(res, ctx):
            if res.code != expect:
                return [f"exit code {res.code}, want {expect}: {res.stderr.strip()[-200:]}"]
            if expect != 0:
                return []
            report = json.loads(res.stdout)
            return check(report["results"], ctx) if check else []

        def unit_counts(res):
            work = units(json.loads(res.stdout)["results"]) if units and res.code == 0 else {}
            return {"stdout_bytes": len(res.stdout.encode()), **work}

        fingerprint = None if known_defect else (lambda res: f"{res.code}:{_sha(res.stdout)}")
        return Op(name, run_cli(argv), full_check, fingerprint, unit_counts, known_defect=known_defect)

    def file_digest(name):
        return hashlib.sha256(Path(path[name]).read_bytes()).hexdigest()

    def check_split(res, ctx):
        want = split_side * comb(split_n - split_side, 2)
        problems = [] if res["edge_count"] == want else [f"{res['edge_count']} edges, want {want}"]
        if res["out_digest"] != file_digest("split.hg"):
            problems.append("reported digest differs from the file written")
        return problems

    def check_lift(res, ctx):
        want = comb(lift_n, 2) - comb(lift_n - res["base_edge_count"], 2)
        problems = [] if res["edge_count"] == want else [f"{res['edge_count']} edges, want {want}"]
        if res["level"] != 19 or res["out_digest"] != file_digest("lift.hg"):
            problems.append("wrong level or digest")
        return problems

    def check_estimate(probability):
        def check(res, ctx):
            return estimate_problems(res["hits"], res["samples"], samples, probability(ctx))

        return check

    def lift_base_size(ctx):
        return json.loads(ctx["construct-lift"].stdout)["results"]["base_edge_count"]

    def samples_of(res):
        return {"samples": res["samples"]}

    def check_profile(res, ctx):
        counts = {int(c): int(m) for c, m in res["counts"].items()}
        problems = []
        if int(res["total"]) != comb(a_n, a_k) or sum(counts.values()) != comb(a_n, a_k):
            problems.append(f"counts sum to {sum(counts.values())}, want C({a_n},{a_k})")
        mean = Fraction(sum(c * m for c, m in counts.items()), comb(a_n, a_k))
        if mean != _mean_edges(graph_a.edge_count, a_n, a_k, 3):
            problems.append(f"profile mean {mean} is wrong")
        return problems

    def check_top(res, ctx):
        top = [int(w["weight"]) for w in res["heaviest"]]
        problems = [] if res["sequences_checked"] == perm(b_n, 4) else ["wrong sequence count"]
        if len(top) != 5 or top != sorted(top, reverse=True) or top[0] != int(res["max_weight"]):
            problems.append(f"heaviest weights {top} do not lead with the maximum")
        return problems

    def check_cover_run(res, ctx):
        return [] if res["terminated"] else ["cover did not terminate"]

    def verify_argv(ctx):
        pivot = json.loads(ctx["cover-run"].stdout)["results"]["pivot"]
        return ["cover", "verify", "--input", path["b.hg"], "--pivot", " ".join(map(str, pivot)), "--m", "2"]

    def check_verify(res, ctx):
        pivot = json.loads(ctx["cover-run"].stdout)["results"]["pivot"]
        ok = res["ok"] and res["checked_subsets"] == 2 ** len(pivot)
        return [] if ok else [f"verification {res}"]

    def check_coupling(res, ctx):
        ok = res["max_abs_discrepancy"] == "0/1" and res["assignments_checked"] == 2**sample_k
        return [] if ok else ["sign expansion identity failed"]

    def check_moments(res, ctx):
        want = _mean_edges(poly_graph.edge_count, poly_n, poly_k, 3)
        return [] if Fraction(res["mean"]) == want else [f"mean {res['mean']}, want {want}"]

    def check_suite(res, ctx):
        got = [(c["index"], c["ok"]) for c in res["criteria"]]
        return [] if got == [(4, True), (7, True)] else [f"criteria {got}"]

    return [
        op(
            "construct-split",
            ["construct", "split", "--n", str(split_n), "--side", " ".join(map(str, side)), "--r", "3", "--out", path["split.hg"]],
            check_split,
        ),
        op(
            "estimate-split",
            ["estimate", "--input", path["split.hg"], "--k", "8", "--level", "30", "--samples", str(samples), "--seed", str(seeds[0])],
            check_estimate(lambda ctx: split_probability(split_n, split_side)),
            samples_of,
        ),
        op(
            "construct-lift",
            ["construct", "lift", "--n", str(lift_n), "--k", "20", "--s", "1", "--r", "2", "--seed", str(seeds[1]), "--out", path["lift.hg"]],
            check_lift,
        ),
        op(
            "estimate-lift",
            ["estimate", "--input", path["lift.hg"], "--k", "20", "--level", "19", "--samples", str(samples), "--seed", str(seeds[2])],
            check_estimate(lambda ctx: lift_probability(lift_n, lift_base_size(ctx))),
            samples_of,
        ),
        op("profile", ["profile", "--input", path["a.hg"], "--k", str(a_k)], check_profile, lambda r: {"subsets": int(r["total"])}),
        op(
            "discrepancy-top",
            ["discrepancy", "--input", path["b.hg"], "--s", "2", "--top", "5"],
            check_top,
            lambda r: {"sequences": r["sequences_checked"]},
        ),
        op("cover-run", ["cover", "run", "--input", path["b.hg"], "--m", "2"], check_cover_run),
        op("cover-verify", verify_argv, check_verify),
        op(
            "coupling-check",
            ["coupling-check", "--input", path["poly.mlp"], "--sample-k", str(sample_k), "--seed", str(seeds[0])],
            check_coupling,
            lambda r: {"sign_vectors": r["assignments_checked"]},
        ),
        op("anticonc-ehm", ["anticonc", "ehm", "--n", str(ehm_n), "--k", str(ehm_k), "--t", str(ehm_t)]),
        op(
            "anticonc-poisson",
            ["anticonc", "poisson", "--input", path["sparse.mlp"], "--p", "1/50", "--level", f"{level.numerator}/{level.denominator}", "--radius", "1/2"],
        ),
        op("anticonc-junta-tv", ["anticonc", "junta-tv", "--input", path["junta.mlp"], "--n", "16", "--k", "6"]),
        op(
            "anticonc-moments",
            ["anticonc", "moments", "--input", path["poly.mlp"], "--n", str(poly_n), "--k", str(poly_k)],
            check_moments,
        ),
        op("suite-acceptance", ["suite", "acceptance", "--only", "4,7"], check_suite),
        op(
            "defect-ehm-zero",
            ["anticonc", "ehm", "--n", "0", "--k", "0", "--t", "0"],
            expect=2,
            known_defect="hypergeom_binom_tv raises ZeroDivisionError at n = 0",
        ),
        op(
            "defect-unwritable-out",
            ["construct", "split", "--n", "10", "--side", "1 2", "--r", "3", "--out", str(WORK_DIR / "missing" / "x.hg")],
            expect=2,
            known_defect="construct writes --out without catching OSError",
        ),
    ]


WORKLOADS = {
    "mc-paper": mc_paper,
    "exact-rational": exact_rational,
    "search": search,
    "cli-roundtrip": cli_roundtrip,
}
