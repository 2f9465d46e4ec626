"""Time one set-up in a fresh interpreter and print the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED full|tiny

The set-up is what a run pays before its first op: importing edgestats
(and the standard-library modules it needs) and generating the workload's
inputs from the seed.  run.py starts this several times per run and
reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

start = time.perf_counter()
sys.path.insert(0, str(SRC))
from workloads import WORKLOADS, Edgestats  # noqa: E402

workload, seed, scale = sys.argv[1:]
WORKLOADS[workload](Edgestats(SRC), int(seed), scale == "tiny")
print(time.perf_counter() - start)
