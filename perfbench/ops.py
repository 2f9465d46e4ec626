"""One timed benchmark operation and the runner that times and checks it.

An op is a single call (or a short fixed batch of calls) into edgestats.
The runner arms a per-op time limit, times the call, then checks the
result three ways, outside the timed region:

* the op's own invariants, which hold at every seed;
* the frozen fingerprint recorded for the default seed, when one is given;
* nothing may raise: an exception or a timeout is a failed op, never an
  aborted run.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

DEFAULT_LIMIT_S = 60.0


class OpTimeout(BaseException):
    """Raised from the SIGALRM handler when an op overruns its limit.

    A BaseException so that no ``except Exception`` inside the package can
    swallow it; only the runner catches it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def no_problems(result, ctx) -> list[str]:
    return []


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list[str]] = no_problems
    # Value compared with the frozen table at the default seed; None for
    # ops that have no frozen value (the known defects).
    fingerprint: Callable[[Any], str] | None = None
    # Work units the op completed, e.g. {"samples": 100000}.
    units: Callable[[Any], dict[str, int]] | None = None
    limit_s: float = DEFAULT_LIMIT_S
    # Why this op fails at the commit the benchmark was written against.
    known_defect: str | None = None


@dataclass
class OpResult:
    name: str
    seconds: float
    problems: list[str]
    units: dict[str, int] = field(default_factory=dict)
    raised: str | None = None
    timed_out: bool = False
    known_defect: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def digest(value) -> str:
    """sha256 of a JSON rendering; callers pass only deterministic data."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(op: Op, ctx: dict, frozen: dict | None) -> OpResult:
    """Time ``op`` under its limit, store its result in ``ctx`` and check it."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    result = None
    raised = None
    timed_out = False
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
            result = op.run(ctx)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        timed_out = True
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)

    out = OpResult(op.name, seconds, [], known_defect=op.known_defect is not None)
    if timed_out:
        out.timed_out = True
        out.problems.append(f"timed out after {op.limit_s:g} s")
        return out
    if raised is not None:
        out.raised = raised
        out.problems.append(f"raised {raised}")
        return out
    ctx[op.name] = result
    try:
        out.problems.extend(op.check(result, ctx))
        if op.units is not None:
            out.units = op.units(result)
        if frozen is not None and op.fingerprint is not None:
            got = op.fingerprint(result)
            want = frozen.get(op.name)
            if want is None:
                out.problems.append(f"no frozen value recorded for the default seed: got {got}")
            elif got != want:
                out.problems.append(f"frozen value mismatch: got {got}, want {want}")
    except Exception as exc:  # a check that cannot run counts against the op
        out.problems.append(f"check raised {type(exc).__name__}: {exc}")
    return out
