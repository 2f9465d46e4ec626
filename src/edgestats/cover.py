"""Greedy vertex covers certifying matchings in every residual graph.

For an r-uniform graph G and a growing pivot set Z, the residue family of
a trace S inside Z collects the parts outside S of the edges whose exact
Z-intersection is S.  A trace is relevant when its family is nonempty but
every proper subtrace's family is empty; it is bad when additionally its
family's maximum matching has fewer than m edges.  The greedy cover
repeatedly picks the smallest bad relevant trace (size, then
lexicographic), adds the vertex set of the lexicographically least
maximum matching of its family, and stops when no bad trace remains; full
traces (|S| = r, whose residues are empty sets) are never treated as bad,
since a one-vertex-smaller trace always drives the verified conclusion.

The cover is validated by ``verify_cover``: for every subset X of the
final pivot Y, deleting the vertices of Y - X and truncating to residues
must leave a top uniformity class with a matching of size at least m, and
a nonempty Y must meet every edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import (
    _CLOSED_FORM_CAP,
    Hypergraph,
    _check_cap,
    _check_cap_by_bound,
    _trace_groups,
    _vertices,
    lex_min_maximum_matching,
    matching_number,
)

__all__ = [
    "CoverStep",
    "CoverCertificate",
    "default_step_cap",
    "greedy_cover",
    "CoverVerification",
    "verify_cover",
]

Trace = tuple[int, ...]

VERIFY_PIVOT_CAP = 25


def _minimal_traces(groups: dict[Trace, set[frozenset[int]]]) -> list[Trace]:
    """The traces with no proper subtrace among the groups, sorted by
    (size, lexicographic)."""
    out = [
        s
        for s in groups
        if not any(
            sub in groups for size in range(len(s)) for sub in itertools.combinations(s, size)
        )
    ]
    out.sort(key=lambda t: (len(t), t))
    return out


@dataclass(frozen=True)
class CoverStep:
    pivot_before: Trace
    trace: Trace
    matching: tuple[tuple[int, ...], ...]
    added: Trace

    def to_json_dict(self) -> dict:
        return {
            "pivot_before": list(self.pivot_before),
            "trace": list(self.trace),
            "matching": [list(e) for e in self.matching],
            "added": list(self.added),
        }


@dataclass(frozen=True)
class CoverCertificate:
    n: int
    r: int
    m: int
    pivot: Trace
    steps: tuple[CoverStep, ...]
    terminated: bool
    step_cap: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "pivot": list(self.pivot),
            "steps": [s.to_json_dict() for s in self.steps],
            "terminated": self.terminated,
            "step_cap": self.step_cap,
        }


def default_step_cap(r: int, m: int) -> int:
    """10 (r m)^(r + 2), refused past _CLOSED_FORM_CAP before it is computed."""
    return _check_cap_by_bound(
        f"default step cap 10 * ({r}*{m})^{r + 2}",
        (r + 2) * ((r * m).bit_length() - 1) + 3,
        lambda: 10 * (r * m) ** (r + 2),
        _CLOSED_FORM_CAP,
    )


def _first_bad_trace(graph: Hypergraph, pivot: frozenset[int], m: int) -> tuple[Trace, tuple[Trace, ...]] | None:
    """The first relevant trace, in (size, lex) order, whose residue
    family's maximum matching has fewer than m edges, with that matching;
    None when no trace is bad.  Full traces (|S| = r) are never bad."""
    groups = _trace_groups(graph, pivot)
    for s in _minimal_traces(groups):
        if len(s) >= graph.r:
            continue
        matching = lex_min_maximum_matching(groups[s])
        if len(matching) < m:
            return s, matching
    return None


def greedy_cover(graph: Hypergraph, m: int, step_cap: int | None = None) -> CoverCertificate:
    """Run the greedy trace-repair loop to a pivot with no bad trace.

    Deterministic throughout: bad traces are ordered by (size, lex), the
    matching added is the lexicographically least maximum one, and the
    pivot grows strictly each step.  If ``step_cap`` (default
    10 * (r*m)^(r+2)) is reached first, the certificate snapshot is
    returned with ``terminated`` false rather than raising.
    """
    if m < 1:
        raise ValueError(f"target matching size must be positive, got {m}")
    cap = default_step_cap(graph.r, m) if step_cap is None else step_cap
    if cap < 0:
        raise ValueError(f"step cap must be nonnegative, got {cap}")
    pivot: frozenset[int] = frozenset()
    steps: list[CoverStep] = []
    terminated = False
    while True:
        bad = _first_bad_trace(graph, pivot, m)
        if bad is None:
            terminated = True
            break
        if len(steps) >= cap:
            break
        trace, matching = bad
        added = tuple(sorted(set().union(*matching)))
        steps.append(CoverStep(tuple(sorted(pivot)), trace, matching, added))
        pivot = pivot | set(added)
    return CoverCertificate(
        graph.n, graph.r, m, tuple(sorted(pivot)), tuple(steps), terminated, cap
    )


@dataclass(frozen=True)
class CoverVerification:
    ok: bool
    failing_subset: Trace | None
    failing_edge: Trace | None
    checked_subsets: int

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failing_subset": None if self.failing_subset is None else list(self.failing_subset),
            "failing_edge": None if self.failing_edge is None else list(self.failing_edge),
            "checked_subsets": self.checked_subsets,
        }


def verify_cover(graph: Hypergraph, pivot: Iterable[int], m: int) -> CoverVerification:
    """Exhaustively check the cover conclusion for every subset of the pivot.

    Subsets are visited in (size, lexicographic) order and the first
    violation is returned as a witness: a kept-set X whose nonempty
    residual has a top uniformity class with matching below m.  A nonempty
    pivot must additionally meet every edge; the first uncovered edge (in
    edge order) is reported the same way.  A trace T leaves residues of
    size r - |T|, so the top class at X unites the residue families of the
    smallest non-full traces inside X.
    """
    y = _vertices(pivot, graph.n, "pivot")
    _check_cap(f"2^{len(y)} pivot subset checks", 1 << len(y), 1 << VERIFY_PIVOT_CAP)
    groups = _trace_groups(graph, frozenset(y))
    if y and () in groups:  # an edge missing the pivot is its own residue
        return CoverVerification(False, None, min(tuple(sorted(e)) for e in groups[()]), 0)
    levels = [
        [(frozenset(t), family) for t, family in groups.items() if len(t) == size]
        for size in range(min(graph.r, len(y) + 1))
    ]
    checked = 0
    for size in range(len(y) + 1):
        for x in itertools.combinations(y, size):
            checked += 1
            xset = frozenset(x)
            for level in levels:
                top = [res for t, family in level if t <= xset for res in family]
                if top:
                    if matching_number(top) < m:
                        return CoverVerification(False, x, None, checked)
                    break
    return CoverVerification(True, None, None, checked)
