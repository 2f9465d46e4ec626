"""Command-line interface.

Every command prints exactly one JSON report to stdout (sorted keys,
two-space indent, no timestamps), so identical invocations on identical
inputs are byte-identical.  Exit codes:

* 0 — the command ran and every checked inequality held;
* 1 — the command ran and a checked claim failed (a bound was beaten,
      a certificate did not verify, an acceptance criterion failed);
* 2 — usage or input error (bad arguments, unparsable file, parameters
      outside a documented cap).

Randomized commands (``estimate``, ``construct lift``, ``coupling-check``
in sampling mode) require an explicit ``--seed``; nothing is ever drawn
from ambient entropy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .acceptance import CRITERIA, run_all
from .anticonc import (
    _junta_coords,
    hypergeom_binom_tv,
    junta_tv,
    poisson_interval_check,
    slice_moments,
)
from .coupling import check_sign_expansion, sample_coupling
from .cover import greedy_cover, verify_cover
from .discrepancy import signed_discrepancy
from .hypergraph import construct_lift, construct_split, format_hg, parse_hg
from .multilinear import _subset_transform, _zeta, parse_mlp
from .profiles import estimate_point, exact_profile
from .serialize import parse_rational

__all__ = ["main", "build_parser"]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load(path_str: str, parse):
    path = Path(path_str)
    return parse(path.read_text()), _digest(path)


def _parse_vertex_list(text: str, label: str) -> tuple[int, ...]:
    try:
        out = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"{label} must be a list of integers, got {text!r}") from exc
    return out


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in text.split():
        parts = tok.split(",")
        if len(parts) != 2:
            raise ValueError(f"pair {tok!r} is not of the form a,b")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"pair {tok!r} is not a pair of integers") from exc
    return tuple(pairs)


def _report(command: str, params: dict, results: dict, violations: list[str], **extra) -> dict:
    report = {
        "command": command,
        "params": params,
        "results": results,
        "violations": violations,
    }
    report.update(extra)
    return report


# ---------------------------------------------------------------------------
# Command handlers.  Each returns its report; main emits it.


def _cmd_profile(args) -> dict:
    graph, digest = _load(args.input, parse_hg)
    profile = exact_profile(graph, args.k, max_subsets=args.max_subsets)
    return _report(
        "profile",
        {"input": args.input, "k": args.k, "max_subsets": args.max_subsets},
        profile.to_json_dict(),
        [],
        input_digest=digest,
    )


def _cmd_estimate(args) -> dict:
    graph, digest = _load(args.input, parse_hg)
    est = estimate_point(graph, args.k, args.level, args.samples, args.seed)
    return _report(
        "estimate",
        {
            "input": args.input,
            "k": args.k,
            "level": args.level,
            "samples": args.samples,
        },
        est.to_json_dict(),
        [],
        input_digest=digest,
        seed=args.seed,
    )


def _cmd_construct_lift(args) -> dict:
    built = construct_lift(args.n, args.k, args.s, args.r, args.seed)
    out = Path(args.out)
    out.write_text(format_hg(built.graph))
    results = {
        "n": built.graph.n,
        "r": built.graph.r,
        "edge_count": built.graph.edge_count,
        "base_edge_count": built.base.edge_count,
        "level": built.level,
        "out": args.out,
        "out_digest": _digest(out),
    }
    return _report(
        "construct lift",
        {"n": args.n, "k": args.k, "s": args.s, "r": args.r, "out": args.out},
        results,
        [],
        seed=args.seed,
    )


def _cmd_construct_split(args) -> dict:
    side = _parse_vertex_list(args.side, "--side")
    graph = construct_split(args.n, side, args.r)
    out = Path(args.out)
    out.write_text(format_hg(graph))
    results = {
        "n": graph.n,
        "r": graph.r,
        "edge_count": graph.edge_count,
        "side_size": len(set(side)),
        "out": args.out,
        "out_digest": _digest(out),
    }
    return _report(
        "construct split",
        {"n": args.n, "side": sorted(set(side)), "r": args.r, "out": args.out},
        results,
        [],
    )


def _cmd_coupling_check(args) -> dict:
    poly, digest = _load(args.input, parse_mlp)
    params: dict = {"input": args.input}
    extra: dict = {"input_digest": digest}
    if args.pairs is not None:
        if args.sample_k is not None or args.seed is not None:
            raise ValueError("--pairs excludes --sample-k/--seed")
        pairs = _parse_pairs(args.pairs)
        params["pairs"] = [list(p) for p in pairs]
    else:
        if args.sample_k is None:
            raise ValueError("provide either --pairs or --sample-k with --seed")
        if args.seed is None:
            raise ValueError("sampling a coupling requires --seed")
        coupling = sample_coupling(poly.n, args.sample_k, args.seed)
        pairs = coupling.pairs
        params["sample_k"] = args.sample_k
        extra["seed"] = args.seed
        extra["coupling"] = coupling.to_json_dict()
    rep = check_sign_expansion(poly, pairs)
    violations = []
    if rep.max_abs_discrepancy != 0:
        violations.append(
            f"sign expansion mismatch: max |discrepancy| = {rep.max_abs_discrepancy}"
        )
    return _report("coupling-check", params, rep.to_json_dict(), violations, **extra)


def _cmd_discrepancy(args) -> dict:
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative, got {args.top}")
    graph, digest = _load(args.input, parse_hg)
    rep = signed_discrepancy(
        graph, args.s, term_cap=args.term_cap, collect_weights=args.top > 0
    )
    results = rep.to_json_dict(top=args.top) if args.top > 0 else rep.to_json_dict()
    return _report(
        "discrepancy",
        {"input": args.input, "s": args.s, "term_cap": args.term_cap, "top": args.top},
        results,
        [],
        input_digest=digest,
    )


def _cmd_anticonc_ehm(args) -> dict:
    rep = hypergeom_binom_tv(args.n, args.k, args.t)
    violations = []
    if rep.violated:
        violations.append(f"tv {rep.tv} exceeds bound {rep.bound}")
    return _report(
        "anticonc ehm",
        {"n": args.n, "k": args.k, "t": args.t},
        rep.to_json_dict(),
        violations,
    )


def _cmd_anticonc_poisson(args) -> dict:
    poly, digest = _load(args.input, parse_mlp)
    p = parse_rational(args.p)
    level = parse_rational(args.level)
    radius = parse_rational(args.radius)
    gamma = None if args.gamma is None else float(args.gamma)
    rep = poisson_interval_check(poly, p, level, radius, gamma=gamma)
    violations = []
    if rep.precondition_met and not rep.bound_satisfied:
        violations.append(
            f"interval mass {rep.probability} exceeds binomial bound {rep.binomial_bound}"
        )
    return _report(
        "anticonc poisson",
        {
            "input": args.input,
            "p": args.p,
            "level": args.level,
            "radius": args.radius,
            "gamma": gamma,
        },
        rep.to_json_dict(),
        violations,
        input_digest=digest,
    )


def _cmd_anticonc_junta_tv(args) -> dict:
    poly, digest = _load(args.input, parse_mlp)
    coords = _junta_coords(poly.active_variables, args.n, args.k)
    # At the 0/1 point of T, poly is the sum of the terms with support inside T.
    table = _subset_transform(coords, dict(poly.terms), _zeta)
    rep = junta_tv(table, coords, args.n, args.k)
    violations = []
    if rep.violated:
        violations.append(f"tv {rep.tv} exceeds bound {rep.bound}")
    return _report(
        "anticonc junta-tv",
        {"input": args.input, "n": args.n, "k": args.k, "coords": list(coords)},
        rep.to_json_dict(),
        violations,
        input_digest=digest,
    )


def _cmd_anticonc_moments(args) -> dict:
    poly, digest = _load(args.input, parse_mlp)
    moments = slice_moments(poly, args.n, args.k)
    return _report(
        "anticonc moments",
        {"input": args.input, "n": args.n, "k": args.k},
        moments.to_json_dict(),
        [],
        input_digest=digest,
    )


def _cmd_cover_run(args) -> dict:
    graph, digest = _load(args.input, parse_hg)
    cert = greedy_cover(graph, args.m, step_cap=args.step_cap)
    violations = []
    if not cert.terminated:
        violations.append(f"step cap {cert.step_cap} reached before termination")
    return _report(
        "cover run",
        {"input": args.input, "m": args.m, "step_cap": cert.step_cap},
        cert.to_json_dict(),
        violations,
        input_digest=digest,
    )


def _cmd_cover_verify(args) -> dict:
    graph, digest = _load(args.input, parse_hg)
    pivot = _parse_vertex_list(args.pivot, "--pivot")
    ver = verify_cover(graph, pivot, args.m)
    violations = []
    if ver.failing_edge is not None:
        violations.append(f"pivot misses edge {list(ver.failing_edge)}")
    elif not ver.ok:
        violations.append(f"cover fails at subset {list(ver.failing_subset)}")
    return _report(
        "cover verify",
        {"input": args.input, "pivot": sorted(set(pivot)), "m": args.m},
        ver.to_json_dict(),
        violations,
        input_digest=digest,
    )


def _cmd_suite_acceptance(args) -> dict:
    only = None
    if args.only is not None:
        only = [int(tok) for tok in args.only.replace(",", " ").split()]
        unknown = sorted(set(only) - set(CRITERIA))
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
    results = run_all(only, report=lambda line: print(line, file=sys.stderr))
    failures = [r for r in results if not r.ok]
    return _report(
        "suite acceptance",
        {"only": sorted(set(only)) if only is not None else sorted(CRITERIA)},
        {"criteria": [r.to_json_dict() for r in results]},
        [f"criterion {r.index} failed: {r.name}" for r in failures],
    )


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgestats",
        description="Exact statistics of induced edge counts on random vertex subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="exhaustive induced-edge-count profile")
    p.add_argument("--input", required=True, help=".hg hypergraph file")
    p.add_argument("-k", "--k", type=int, required=True, help="subset size")
    p.add_argument("--max-subsets", type=int, default=10**8)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("estimate", help="Monte Carlo point-probability estimate")
    p.add_argument("--input", required=True, help=".hg hypergraph file")
    p.add_argument("-k", "--k", type=int, required=True)
    p.add_argument("--level", type=int, required=True, help="target induced edge count")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_estimate)

    c = sub.add_parser("construct", help="write a named construction to a .hg file")
    csub = c.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("lift", help="random sparse base lifted to supersets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output .hg path")
    p.set_defaults(func=_cmd_construct_lift)

    p = csub.add_parser("split", help="edges meeting a vertex side exactly once")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", required=True, help="side vertices, e.g. '1 2 3'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True, help="output .hg path")
    p.set_defaults(func=_cmd_construct_split)

    p = sub.add_parser(
        "coupling-check", help="verify the sign-expansion identity exhaustively"
    )
    p.add_argument("--input", required=True, help=".mlp polynomial file")
    p.add_argument("--pairs", help="explicit pairing, e.g. '2,1 4,3'")
    p.add_argument("--sample-k", type=int, help="sample this many disjoint pairs")
    p.add_argument("--seed", type=int, help="seed for sampling mode")
    p.set_defaults(func=_cmd_coupling_check)

    p = sub.add_parser("discrepancy", help="exact signed discrepancy total")
    p.add_argument("--input", required=True, help=".hg hypergraph file")
    p.add_argument("-s", "--s", type=int, required=True, help="pair count")
    p.add_argument("--term-cap", type=int, default=10**9)
    p.add_argument("--top", type=int, default=0, help="collect this many heaviest sequences")
    p.set_defaults(func=_cmd_discrepancy)

    a = sub.add_parser("anticonc", help="anticoncentration checks")
    asub = a.add_subparsers(dest="check", required=True)

    p = asub.add_parser("ehm", help="hypergeometric vs binomial TV bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_anticonc_ehm)

    p = asub.add_parser("poisson", help="interval mass vs binomial point-mass bound")
    p.add_argument("--input", required=True, help=".mlp polynomial file")
    p.add_argument("--p", required=True, help="Bernoulli rate, e.g. 1/50")
    p.add_argument("--level", required=True, help="interval centre")
    p.add_argument("--radius", required=True, help="interval half-width")
    p.add_argument("--gamma", type=float, help="also compare against 1/e + gamma")
    p.set_defaults(func=_cmd_anticonc_poisson)

    p = asub.add_parser("junta-tv", help="slice vs product pushforward TV")
    p.add_argument("--input", required=True, help=".mlp polynomial file (the junta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_anticonc_junta_tv)

    p = asub.add_parser("moments", help="exact slice mean and variance")
    p.add_argument("--input", required=True, help=".mlp polynomial file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_anticonc_moments)

    c = sub.add_parser("cover", help="greedy cover certificates")
    csub = c.add_subparsers(dest="mode", required=True)

    p = csub.add_parser("run", help="build a cover certificate greedily")
    p.add_argument("--input", required=True, help=".hg hypergraph file")
    p.add_argument("-m", "--m", type=int, required=True, help="target matching size")
    p.add_argument("--step-cap", type=int, default=None)
    p.set_defaults(func=_cmd_cover_run)

    p = csub.add_parser("verify", help="verify a claimed cover pivot")
    p.add_argument("--input", required=True, help=".hg hypergraph file")
    p.add_argument("--pivot", required=True, help="pivot vertices, e.g. '1 2 3'")
    p.add_argument("-m", "--m", type=int, required=True)
    p.set_defaults(func=_cmd_cover_verify)

    s = sub.add_parser("suite", help="run batteries")
    ssub = s.add_subparsers(dest="battery", required=True)

    p = ssub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_suite_acceptance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
