"""Span tracing around the public functions of each edgestats module.

The tracer swaps each traced function, wherever a loaded edgestats module
holds a reference to it, for a wrapper that times the call and charges
the time to the innermost open span.  ``uninstall`` puts every original
back.  Nothing inside the package changes; the spans live in this
benchmark's own files.

Two kinds of wrapper:

* a *span* wrapper records (run id, span id, parent id, name, start, end)
  for every call; used for coarse functions called at most a few
  thousand times per pass;
* a *tally* wrapper only adds to per-name call counts and times; used for
  the few functions called once per sample or per residual subset
  (``sample_ordered``, ``matching_number``, ``Hypergraph.edge_set``),
  where a record per call would cost more than the call.

Both kinds charge their duration to their parent, so self time (a span's
duration minus the time of its child spans) is exact for every name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable

from ops import OpTimeout

_now = time.perf_counter


def _discrepancy_counts(report) -> dict[str, int]:
    counts = {"discrepancy.sequences": report.sequences_checked}
    if report.weights is not None:
        counts["discrepancy.weighed_sequences"] = len(report.weights)
        counts["discrepancy.nonzero_weights"] = sum(1 for w in report.weights if w.weight)
    return counts


# (module, function, kind, counts taken from the return value).  "span"
# records every call, "tally" only aggregates (see the module docstring).
TRACED: list[tuple[str, str, str, Callable | None]] = [
    ("rng", "sample_ordered", "tally", None),
    ("hypergraph", "construct_lift", "span", lambda b: {"hypergraph.edges_built": b.graph.edge_count}),
    ("hypergraph", "construct_split", "span", lambda g: {"hypergraph.edges_built": g.edge_count}),
    ("hypergraph", "random_hypergraph", "span", lambda g: {"hypergraph.edges_built": g.edge_count}),
    ("hypergraph", "parse_hg", "span", lambda g: {"hypergraph.parse_hg.edges": g.edge_count}),
    ("hypergraph", "format_hg", "span", None),
    ("hypergraph", "lex_min_maximum_matching", "span", None),
    ("hypergraph", "matching_number", "tally", None),
    ("profiles", "estimate_point", "span", lambda e: {"profiles.samples": e.samples}),
    ("profiles", "exact_profile", "span", lambda p: {"profiles.subsets": p.total}),
    ("profiles", "conditional_junta", "span", None),
    ("multilinear", "exhaustive_distribution", "span", lambda d: {"multilinear.atoms": len(d.atoms)}),
    ("coupling", "sample_coupling", "span", None),
    ("coupling", "sign_expansion_table", "span", None),
    ("coupling", "check_sign_expansion", "span", lambda r: {"coupling.sign_vectors": r.assignments_checked}),
    ("anticonc", "hypergeom_binom_tv", "span", None),
    ("anticonc", "poisson_interval_check", "span", None),
    ("anticonc", "junta_tv", "span", None),
    ("anticonc", "slice_moments", "span", None),
    ("anticonc", "slice_covariance", "span", None),
    ("discrepancy", "signed_discrepancy", "span", _discrepancy_counts),
    ("cover", "greedy_cover", "span", lambda c: {"cover.steps": len(c.steps)}),
    ("cover", "verify_cover", "span", lambda v: {"cover.residual_checks": v.checked_subsets}),
] + [("acceptance", f"criterion_{i}", "span", None) for i in range(1, 12)]

# Subcommand groups whose second word names the command.
_CLI_GROUPS = {"construct", "anticonc", "cover", "suite"}


def cli_span_name(argv: list[str]) -> str:
    words = argv[:2] if argv and argv[0] in _CLI_GROUPS else argv[:1]
    return "cli." + "-".join(words)


def span_name(module: str, func: str) -> str:
    if module == "acceptance" and func.startswith("criterion_"):
        return f"acceptance.criterion_{int(func.split('_')[1]):02d}"
    return f"{module}.{func}"


class Tracer:
    """Collects spans and per-name totals for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        # Open frames: [span id, seconds spent in children].
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1
        self._undo: list[Callable[[], None]] = []

    # -- timing -----------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, record: bool) -> None:
        end = _now()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[1] += duration
        agg = self.totals[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        if record:
            self.spans.append((frame[0], parent[0], name, start, end))

    def wrap(self, name, fn, record=True, count=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(*args, **kwargs)
            frame = tracer._enter()
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except OpTimeout:
                tracer.counts[label + ".timeouts"] += 1
                raise
            except Exception:
                tracer.counts[label + ".raised"] += 1
                raise
            finally:
                tracer._exit(frame, label, start, record)
            if count is not None:
                tracer.counts.update(count(result))
            return result

        return wrapper

    def unwind(self) -> None:
        """Drop frames a timeout left open between a wrapper's entry and
        its ``try``, so the next op's spans get the right parent."""
        del self._stack[1:]

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, es, original, wrapper) -> None:
        for module in es.loaded_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(functools.partial(setattr, module, key, original))
        criteria = es.acceptance.CRITERIA
        for key, value in list(criteria.items()):
            if value is original:
                criteria[key] = wrapper
                self._undo.append(functools.partial(criteria.__setitem__, key, original))

    def install(self, es) -> None:
        for module, func, kind, count in TRACED:
            original = getattr(getattr(es, module), func)
            wrapper = self.wrap(span_name(module, func), original, kind == "span", count)
            self._replace_everywhere(es, original, wrapper)
        main = es.cli.main
        self._replace_everywhere(
            es, main, self.wrap("cli", main, name_of=lambda argv=None: cli_span_name(argv or []))
        )
        # edge_set is a lazily cached property: tally its getter.
        cls = es.hypergraph.Hypergraph
        prop = cls.__dict__["edge_set"]
        setattr(cls, "edge_set", property(self.wrap("hypergraph.edge_set", prop.fget, False)))
        self._undo.append(functools.partial(setattr, cls, "edge_set", prop))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting --------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(agg[2] for name, agg in self.totals.items() if name.startswith(prefix))

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON line per recorded span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
