"""Self-test of the benchmark at tiny scale; not part of the test suite.

    python3 perfbench/selftest.py

Checks that every workload completes at tiny scale, untraced and traced,
at the default seed (frozen values) and at another seed (invariants);
that the printed metric names are exactly those of BENCHMARK.json; that a
corrupted frozen value is reported as a failed op; and that the benchmark
fails without printing a result when the package sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench" / "bare"


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return done.returncode, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in ("0", "1"):
            for trace in (0, 1):
                label = f"{workload} seed {seed} trace {trace}"
                code, result = run("--workload", workload, "--seed", seed, "--trace", str(trace))
                if code != 0 or result is None:
                    failures.append(f"{label}: exit {code}, no result")
                    continue
                if not result["correct"] or result["attempted"] < 1:
                    failures.append(f"{label}: not correct ({result['failed']} failed)")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != names[trace]:
                    failures.append(f"{label}: metrics differ from BENCHMARK.json")
                print(f"{label}: {result['attempted']} ops, {result['failed']} failed", flush=True)

    _, clean = run("--workload", "cli-roundtrip", "--trace", "0")
    _, corrupt = run("--workload", "cli-roundtrip", "--trace", "0", "--corrupt-frozen", "anticonc-ehm")
    if clean is None or corrupt is None:
        failures.append("corrupted-digest run gave no result")
    elif corrupt["correct"] or corrupt["failed"] != clean["failed"] + 1:
        failures.append(f"corrupted digest not reported: {corrupt['failed']} vs {clean['failed']} failed")
    else:
        print("corrupted frozen digest: reported as one more failed op")

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    code, result = run("--workload", "search", "--trace", "0", cwd=BARE)
    shutil.rmtree(BARE)
    if code == 0 or result is not None:
        failures.append(f"without the sources: exit {code}, result {result}")
    else:
        print(f"without the sources: exit {code}, no result")

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
