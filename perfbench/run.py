"""Run one edgestats benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-paper --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured over as
many whole passes of the workload's ops as fit in ``--seconds`` (at least
one), each reported as the median over passes.  With ``--trace 1`` the
run makes one untraced and one traced pass and reports the per-layer
metrics; the spans are written to ``.perfbench/``.

``attempted`` and ``failed`` count ops (ops_attempted and ops_failed).
``correct`` is false when any op other than a known defect fails its
check.  Every op runs under a time limit and every exception is caught,
so one op never aborts the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import OpResult, run_op
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Edgestats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench")
FROZEN = HERE / "frozen.json"
SETUP_REPS = 7

LAYERS = (
    "rng",
    "hypergraph",
    "profiles",
    "multilinear",
    "coupling",
    "anticonc",
    "discrepancy",
    "cover",
    "acceptance",
    "cli",
)
CRITERIA_RUN = (1, 2, 3, 4, 7, 8, 9, 10, 11)
CLI_COMMANDS = (
    "construct-split",
    "construct-lift",
    "estimate",
    "profile",
    "discrepancy",
    "cover-run",
    "cover-verify",
    "coupling-check",
    "anticonc-ehm",
    "anticonc-poisson",
    "anticonc-junta-tv",
    "anticonc-moments",
    "suite-acceptance",
)
# Work unit an op reports -> throughput metric over the ops reporting it.
THROUGHPUTS = {
    "samples": "samples_per_s",
    "subsets": "subsets_per_s",
    "sequences": "sequences_per_s",
    "sign_vectors": "sign_vectors_per_s",
    "residual_checks": "residual_checks_per_s",
}


def end_to_end_metrics(setup_s: float, passes: list[list[OpResult]]) -> dict:
    # An op that hit its time limit measured the limit, not the package; it
    # still shows in ``failed`` and in hypergraph.matching_number.timeouts.
    finished = [[r.seconds for r in p if not r.timed_out] for p in passes]
    walls = [sum(p) for p in finished]
    slowest = [max(p, default=0.0) for p in finished]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "slowest_job_s": (statistics.median(slowest), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def layer_metrics(t: Tracer, untraced: list[OpResult], traced: list[OpResult]) -> dict:
    out: dict[str, tuple[float, str]] = {}

    def total(name):
        out[name + ".s"] = (t.seconds(name), "s")

    def own(name):
        out[name + ".self_s"] = (t.self_seconds(name), "s")

    def calls(name):
        out[name + ".calls"] = (t.calls(name), "count")

    def count(name):
        out[name] = (t.counts[name], "count")

    calls("rng.sample_ordered")
    own("rng.sample_ordered")
    total("hypergraph.construct_lift")
    total("hypergraph.construct_split")
    total("hypergraph.edge_set")
    count("hypergraph.edges_built")
    calls("hypergraph.matching_number")
    own("hypergraph.matching_number")
    total("hypergraph.lex_min_maximum_matching")
    count("hypergraph.matching_number.timeouts")
    total("hypergraph.parse_hg")
    count("hypergraph.parse_hg.edges")
    total("hypergraph.format_hg")
    total("hypergraph.random_hypergraph")
    own("profiles.estimate_point")
    count("profiles.samples")
    total("profiles.exact_profile")
    count("profiles.subsets")
    total("profiles.conditional_junta")
    calls("multilinear.exhaustive_distribution")
    own("multilinear.exhaustive_distribution")
    count("multilinear.atoms")
    total("coupling.sign_expansion_table")
    own("coupling.check_sign_expansion")
    count("coupling.sign_vectors")
    total("anticonc.hypergeom_binom_tv")
    own("anticonc.poisson_interval_check")
    total("anticonc.junta_tv")
    total("anticonc.slice_moments")
    total("anticonc.slice_covariance")
    total("discrepancy.signed_discrepancy")
    count("discrepancy.sequences")
    weighed = t.counts["discrepancy.weighed_sequences"]
    ratio = t.counts["discrepancy.nonzero_weights"] / weighed if weighed else 0.0
    out["discrepancy.nonzero_weight_ratio"] = (ratio, "ratio")
    own("cover.greedy_cover")
    count("cover.steps")
    own("cover.verify_cover")
    count("cover.residual_checks")
    for i in CRITERIA_RUN:
        total(f"acceptance.criterion_{i:02d}")
    for command in CLI_COMMANDS:
        total(f"cli.{command}")
    out["cli.stdout_bytes"] = (sum(r.units.get("stdout_bytes", 0) for r in traced), "bytes")
    tracebacks = sum(n for name, n in t.counts.items() if name.startswith("cli.") and name.endswith(".raised"))
    out["cli.tracebacks"] = (tracebacks, "count")
    for layer in LAYERS:
        out[layer + ".self_s"] = (t.layer_self_seconds(layer), "s")
    for unit, metric in THROUGHPUTS.items():
        work = sum(r.units.get(unit, 0) for r in untraced)
        seconds = sum(r.seconds for r in untraced if unit in r.units)
        out[metric] = (work / seconds if seconds else 0.0, "1/s")
    # Timed-out ops left out, as in wall_s.
    traced_wall = sum(r.seconds for r in traced if not r.timed_out)
    untraced_wall = sum(r.seconds for r in untraced if not r.timed_out)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(t.spans), "count")
    return out


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, load: tuple[float, float, float]) -> dict:
    revision = _git("rev-parse", "HEAD")
    dirty = None if revision is None else bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "git_dirty": dirty,
        "loadavg_start": load,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def setup(args, tracer: Tracer | None):
    """Import the package and generate the inputs, under the tracer if given."""
    es = Edgestats(SRC)
    build = WORKLOADS[args.workload]
    if tracer is None:
        return es, build(es, args.seed, args.scale == "tiny")
    tracer.install(es)
    try:
        return es, tracer.wrap("bench.setup", build)(es, args.seed, args.scale == "tiny")
    finally:
        tracer.uninstall()


def setup_seconds(args) -> float:
    """Median over SETUP_REPS fresh interpreters of the set-up time, each
    measured by setup_probe.py."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), args.scale],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup_probe.py exited {done.returncode}: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout))
    return statistics.median(times)


def run_pass(es, ops, frozen, tracer: Tracer | None = None) -> list[OpResult]:
    # Each pass pays for the criterion 1/11 battery, as a fresh process does.
    battery = getattr(es.acceptance, "_coupling_battery", None)
    if battery is not None:
        battery.cache_clear()
    ctx: dict = {}
    results = []
    if tracer is not None:
        tracer.install(es)
    try:
        for op in ops:
            if tracer is not None:
                op = dataclasses.replace(op, run=tracer.wrap(f"bench.{op.name}", op.run))
            result = run_op(op, ctx, frozen)
            if tracer is not None:
                tracer.unwind()
            results.append(result)
            status = "ok" if result.ok else ("FAIL (known defect)" if result.known_defect else "FAIL")
            detail = "" if result.ok else "  " + "; ".join(result.problems)
            print(f"  {op.name:<24} {result.seconds:9.4f} s  {status}{detail}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def load_frozen(args) -> dict | None:
    if args.seed != DEFAULT_SEED:
        return None
    table = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}
    frozen = dict(table.get(args.scale, {}).get(args.workload, {}))
    if args.corrupt_frozen is not None:
        frozen[args.corrupt_frozen] = "corrupted"
    return frozen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-frozen", metavar="OP", help="self-test: expect a wrong value for OP")
    args = parser.parse_args(argv)

    load = os.getloadavg()
    os.chdir(ROOT)
    if not (SRC / "edgestats" / "__init__.py").is_file():
        print(f"error: no edgestats package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    prov = provenance(args, load)
    tracer = Tracer(f"{args.workload}/{args.seed}/{time.time_ns()}") if args.trace else None
    try:
        es, ops = setup(args, tracer)
    except ImportError as exc:
        print(f"error: cannot import edgestats: {exc}", file=sys.stderr)
        return 2
    frozen = load_frozen(args)

    passes: list[list[OpResult]] = []
    if tracer is None:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(es, ops, frozen))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        metrics = end_to_end_metrics(setup_seconds(args), passes)
    else:
        passes.append(run_pass(es, ops, frozen))
        passes.append(run_pass(es, ops, frozen, tracer))
        metrics = layer_metrics(tracer, passes[0], passes[1])

    results = [r for p in passes for r in p]
    failed = [r for r in results if not r.ok]
    record = {
        "correct": all(r.known_defect for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}"
    report = {
        "provenance": prov,
        "passes": len(passes),
        "ops": [dataclasses.asdict(r) for r in results],
        "result": record,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl", {"provenance": prov, "run": tracer.run_id})
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
