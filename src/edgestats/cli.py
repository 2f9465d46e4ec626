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

from .acceptance import CRITERIA, run_criterion
from .anticonc import (
    _junta_coords,
    hypergeom_binom_tv,
    junta_tv,
    poisson_interval_check,
    slice_moments,
)
from .coupling import MAX_SIGN_VARIABLES, check_sign_expansion, sample_coupling
from .cover import greedy_cover, verify_cover
from .discrepancy import DEFAULT_TERM_CAP, signed_discrepancy
from .hypergraph import _check_cap, construct_lift, construct_split, format_hg, parse_hg
from .multilinear import _subset_transform, _zeta, parse_mlp
from .profiles import DEFAULT_PROFILE_CAP, estimate_point, exact_profile
from .serialize import parse_rational

__all__ = ["main", "build_parser"]


def _load(path_str: str, parse):
    data = Path(path_str).read_bytes()
    return parse(data.decode("utf-8")), hashlib.sha256(data).hexdigest()


def _write_hg(graph, out: str) -> dict:
    data = format_hg(graph).encode("utf-8")
    Path(out).write_bytes(data)
    return {"out": out, "out_digest": hashlib.sha256(data).hexdigest()}


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
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


def _unprintable(value, path: str = "") -> str | None:
    """The path (as ``results.step_cap``) of the first number in a report,
    in the order json.dumps writes it, with more digits than Python
    converts to text (an int, or a rational that serialize._text left
    as it was); None if there is none."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        try:
            str(value)
        except ValueError:
            return path
        return None
    return next(filter(None, (_unprintable(v, p) for p, v in items)), None)


def _report(params: dict, results: dict, violations: list[str], **extra) -> dict:
    return {"params": params, "results": results, "violations": violations, **extra}


# ---------------------------------------------------------------------------
# Command handlers.  Each gets the parsed --input, if its command has one,
# and returns its report; main names the report, records the input and
# emits it.


def _cmd_profile(args, graph) -> dict:
    profile = exact_profile(graph, args.k, max_subsets=args.max_subsets)
    return _report({"k": args.k, "max_subsets": args.max_subsets}, profile.to_json_dict(), [])


def _cmd_estimate(args, graph) -> dict:
    est = estimate_point(graph, args.k, args.level, args.samples, args.seed)
    return _report(
        {"k": args.k, "level": args.level, "samples": args.samples},
        est.to_json_dict(),
        [],
        seed=args.seed,
    )


def _cmd_construct_lift(args) -> dict:
    built = construct_lift(args.n, args.k, args.s, args.r, args.seed)
    results = {
        "n": built.graph.n,
        "r": built.graph.r,
        "edge_count": built.graph.edge_count,
        "base_edge_count": built.base.edge_count,
        "level": built.level,
        **_write_hg(built.graph, args.out),
    }
    return _report(
        {"n": args.n, "k": args.k, "s": args.s, "r": args.r, "out": args.out},
        results,
        [],
        seed=args.seed,
    )


def _cmd_construct_split(args) -> dict:
    side = _parse_int_list(args.side, "--side")
    graph = construct_split(args.n, side, args.r)
    results = {
        "n": graph.n,
        "r": graph.r,
        "edge_count": graph.edge_count,
        "side_size": len(set(side)),
        **_write_hg(graph, args.out),
    }
    return _report(
        {"n": args.n, "side": sorted(set(side)), "r": args.r, "out": args.out}, results, []
    )


def _cmd_coupling_check(args, poly) -> dict:
    params: dict = {}
    extra: dict = {}
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
        # check_sign_expansion's cap, before the 2k vertices are drawn.
        _check_cap("sign variables", args.sample_k, MAX_SIGN_VARIABLES)
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
    return _report(params, rep.to_json_dict(), violations, **extra)


def _cmd_discrepancy(args, graph) -> dict:
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative, got {args.top}")
    rep = signed_discrepancy(
        graph, args.s, term_cap=args.term_cap, collect_weights=args.top > 0
    )
    return _report(
        {"s": args.s, "term_cap": args.term_cap, "top": args.top},
        rep.to_json_dict(top=args.top),
        [],
    )


def _cmd_anticonc_ehm(args) -> dict:
    rep = hypergeom_binom_tv(args.n, args.k, args.t)
    violations = []
    if rep.violated:
        violations.append(f"tv {rep.tv} exceeds bound {rep.bound}")
    return _report({"n": args.n, "k": args.k, "t": args.t}, rep.to_json_dict(), violations)


def _cmd_anticonc_poisson(args, poly) -> dict:
    p = parse_rational(args.p)
    level = parse_rational(args.level)
    radius = parse_rational(args.radius)
    rep = poisson_interval_check(poly, p, level, radius, gamma=args.gamma)
    violations = []
    if rep.precondition_met and not rep.bound_satisfied:
        violations.append(
            f"interval mass {rep.probability} exceeds binomial bound {rep.binomial_bound}"
        )
    return _report(
        {"p": args.p, "level": args.level, "radius": args.radius, "gamma": args.gamma},
        rep.to_json_dict(),
        violations,
    )


def _cmd_anticonc_junta_tv(args, poly) -> dict:
    coords = _junta_coords(poly.active_variables, args.n, args.k)
    # At the 0/1 point of T, poly is the sum of the terms with support inside T.
    table = _subset_transform(coords, dict(poly.terms), _zeta)
    rep = junta_tv(table, coords, args.n, args.k)
    violations = []
    if rep.violated:
        violations.append(f"tv {rep.tv} exceeds bound {rep.bound}")
    return _report(
        {"n": args.n, "k": args.k, "coords": list(coords)}, rep.to_json_dict(), violations
    )


def _cmd_anticonc_moments(args, poly) -> dict:
    moments = slice_moments(poly, args.n, args.k)
    return _report({"n": args.n, "k": args.k}, moments.to_json_dict(), [])


def _cmd_cover_run(args, graph) -> dict:
    cert = greedy_cover(graph, args.m, step_cap=args.step_cap)
    violations = []
    if not cert.terminated:
        violations.append(f"step cap {cert.step_cap} reached before termination")
    return _report({"m": args.m, "step_cap": cert.step_cap}, cert.to_json_dict(), violations)


def _cmd_cover_verify(args, graph) -> dict:
    pivot = _parse_int_list(args.pivot, "--pivot")
    ver = verify_cover(graph, pivot, args.m)
    violations = []
    if ver.failing_edge is not None:
        violations.append(f"pivot misses edge {list(ver.failing_edge)}")
    elif not ver.ok:
        violations.append(f"cover fails at subset {list(ver.failing_subset)}")
    return _report({"pivot": sorted(set(pivot)), "m": args.m}, ver.to_json_dict(), violations)


def _cmd_suite_acceptance(args) -> dict:
    indices = sorted(CRITERIA)
    if args.only is not None:
        indices = sorted(set(_parse_int_list(args.only, "--only")))
        if not indices:
            raise ValueError(f"--only {args.only!r} selects no criterion")
        unknown = sorted(set(indices) - set(CRITERIA))
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
    results = []
    for index in indices:
        results.append(run_criterion(index))
        print(results[-1].line, file=sys.stderr)
    failures = [r for r in results if not r.ok]
    return _report(
        {"only": indices},
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
    groups = {"": sub}
    hg = (parse_hg, ".hg hypergraph file")
    mlp = (parse_mlp, ".mlp polynomial file")

    def group(name, dest, help):
        groups[name] = sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def leaf(path, func, help, fmt=(None, None)):
        """Add the leaf command at ``path``; main names its report by the
        path and, when ``fmt`` gives a parser, reads --input with it."""
        parent, _, name = path.rpartition(" ")
        p = groups[parent].add_parser(name, help=help)
        parse, input_help = fmt
        p.set_defaults(func=func, report_name=path, parse=parse)
        if parse is not None:
            p.add_argument("--input", required=True, help=input_help)
        return p

    p = leaf("profile", _cmd_profile, "exhaustive induced-edge-count profile", hg)
    p.add_argument("-k", "--k", type=int, required=True, help="subset size")
    p.add_argument("--max-subsets", type=int, default=DEFAULT_PROFILE_CAP)

    p = leaf("estimate", _cmd_estimate, "Monte Carlo point-probability estimate", hg)
    p.add_argument("-k", "--k", type=int, required=True)
    p.add_argument("--level", type=int, required=True, help="target induced edge count")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    group("construct", "construction", "write a named construction to a .hg file")
    p = leaf("construct lift", _cmd_construct_lift, "random sparse base lifted to supersets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output .hg path")

    p = leaf("construct split", _cmd_construct_split, "edges meeting a vertex side exactly once")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", required=True, help="side vertices, e.g. '1 2 3'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True, help="output .hg path")

    p = leaf(
        "coupling-check",
        _cmd_coupling_check,
        "verify the sign-expansion identity exhaustively",
        mlp,
    )
    p.add_argument("--pairs", help="explicit pairing, e.g. '2,1 4,3'")
    p.add_argument("--sample-k", type=int, help="sample this many disjoint pairs")
    p.add_argument("--seed", type=int, help="seed for sampling mode")

    p = leaf("discrepancy", _cmd_discrepancy, "exact signed discrepancy total", hg)
    p.add_argument("-s", "--s", type=int, required=True, help="pair count")
    p.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
    p.add_argument("--top", type=int, default=0, help="collect this many heaviest sequences")

    group("anticonc", "check", "anticoncentration checks")
    p = leaf("anticonc ehm", _cmd_anticonc_ehm, "hypergeometric vs binomial TV bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = leaf(
        "anticonc poisson",
        _cmd_anticonc_poisson,
        "interval mass vs binomial point-mass bound",
        mlp,
    )
    p.add_argument("--p", required=True, help="Bernoulli rate, e.g. 1/50")
    p.add_argument("--level", required=True, help="interval centre")
    p.add_argument("--radius", required=True, help="interval half-width")
    p.add_argument("--gamma", type=float, help="also compare against 1/e + gamma")

    p = leaf(
        "anticonc junta-tv",
        _cmd_anticonc_junta_tv,
        "slice vs product pushforward TV",
        (parse_mlp, ".mlp polynomial file (the junta)"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = leaf("anticonc moments", _cmd_anticonc_moments, "exact slice mean and variance", mlp)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    group("cover", "mode", "greedy cover certificates")
    p = leaf("cover run", _cmd_cover_run, "build a cover certificate greedily", hg)
    p.add_argument("-m", "--m", type=int, required=True, help="target matching size")
    p.add_argument("--step-cap", type=int, default=None)

    p = leaf("cover verify", _cmd_cover_verify, "verify a claimed cover pivot", hg)
    p.add_argument("--pivot", required=True, help="pivot vertices, e.g. '1 2 3'")
    p.add_argument("-m", "--m", type=int, required=True)

    group("suite", "battery", "run batteries")
    p = leaf("suite acceptance", _cmd_suite_acceptance, "run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.parse is None:
            report = args.func(args)
        else:
            data, digest = _load(args.input, args.parse)
            report = args.func(args, data)
            report["params"]["input"] = args.input
            report["input_digest"] = digest
        report["command"] = args.report_name
        try:
            text = json.dumps(report, indent=2, sort_keys=True)
        except (ValueError, TypeError):
            # A number of more than 4300 digits cannot be printed.
            field = _unprintable(report)
            if field is None:
                raise
            raise ValueError(f"report field {field} has too many digits to print") from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
