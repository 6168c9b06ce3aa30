"""Aggregate recorded spans into a performance profile.

A :class:`~repro.obs.tracer.Tracer` holds the raw span trees of one
run; :func:`build_profile` collapses them two ways:

* **per span name** (:class:`ProfileEntry`) — call count, cumulative
  time (span durations, children included), *self* time (duration
  minus the direct children's durations) and error count,
  ranked hottest-self-time first;
* **per call path** (:class:`PathNode`) — the merged call tree, every
  occurrence of the same root-to-span name path folded into one node,
  which is what the flamegraph-style text report renders.

Open (never-closed) spans contribute their call count but zero time,
so a profile taken mid-run never reports negative self time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from .spans import Span
from .tracer import NullTracer, Tracer


@dataclass(frozen=True)
class ProfileEntry:
    """Aggregate timings of every span sharing one name."""

    name: str
    calls: int
    cum_ms: float
    self_ms: float
    errors: int = 0

    @property
    def mean_ms(self) -> float:
        """Average cumulative milliseconds per call."""
        return self.cum_ms / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class PathNode:
    """One node of the merged call tree (all spans on one name path)."""

    name: str
    calls: int
    cum_ms: float
    self_ms: float
    errors: int
    children: "Tuple[PathNode, ...]" = ()

    def walk(self, depth: int = 0):
        """Depth-first iteration of this node and its descendants."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass(frozen=True)
class Profile:
    """The aggregated view of one tracer's spans."""

    entries: "Tuple[ProfileEntry, ...]"  # ranked by self time, hottest first
    tree: "Tuple[PathNode, ...]"         # merged call tree, one node per path
    total_ms: float                      # sum of root span durations
    span_count: int

    def hot(self, limit: int = 10) -> "Tuple[ProfileEntry, ...]":
        """The ``limit`` hottest entries by self time."""
        return self.entries[:limit]

    def entry(self, name: str) -> ProfileEntry:
        """The entry for ``name`` (KeyError if that name never ran)."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


class _NameStats:
    """Mutable per-name accumulator used while building."""

    __slots__ = ("calls", "cum", "self", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.cum = 0.0
        self.self = 0.0
        self.errors = 0


class _PathStats:
    """Mutable per-path accumulator used while building."""

    __slots__ = ("name", "calls", "cum", "self", "errors", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum = 0.0
        self.self = 0.0
        self.errors = 0
        self.children: "Dict[str, _PathStats]" = {}

    def freeze(self) -> PathNode:
        return PathNode(
            name=self.name,
            calls=self.calls,
            cum_ms=self.cum,
            self_ms=self.self,
            errors=self.errors,
            children=tuple(
                child.freeze()
                for child in sorted(
                    self.children.values(), key=lambda c: -c.cum
                )
            ),
        )


def _self_ms(span: Span) -> float:
    """Span duration minus direct children, floored at zero."""
    children_ms = sum(child.duration_ms for child in span.children)
    return max(span.duration_ms - children_ms, 0.0)


def build_profile(tracer: "Union[Tracer, NullTracer]") -> Profile:
    """Collapse a tracer's span trees into a :class:`Profile`."""
    by_name: "Dict[str, _NameStats]" = {}
    path_roots: "Dict[str, _PathStats]" = {}
    span_count = 0
    total_ms = 0.0

    def visit(span: Span, siblings: "Dict[str, _PathStats]") -> None:
        nonlocal span_count
        span_count += 1
        duration = span.duration_ms
        own = _self_ms(span)
        failed = 1 if span.failed else 0

        stats = by_name.get(span.name)
        if stats is None:
            stats = by_name[span.name] = _NameStats()
        stats.calls += 1
        stats.cum += duration
        stats.self += own
        stats.errors += failed

        node = siblings.get(span.name)
        if node is None:
            node = siblings[span.name] = _PathStats(span.name)
        node.calls += 1
        node.cum += duration
        node.self += own
        node.errors += failed
        for child in span.children:
            visit(child, node.children)

    for root in tracer.roots:
        total_ms += root.duration_ms
        visit(root, path_roots)

    entries: "List[ProfileEntry]" = [
        ProfileEntry(
            name=name,
            calls=stats.calls,
            cum_ms=stats.cum,
            self_ms=stats.self,
            errors=stats.errors,
        )
        for name, stats in by_name.items()
    ]
    entries.sort(key=lambda e: (-e.self_ms, -e.cum_ms, e.name))
    tree = tuple(
        node.freeze()
        for node in sorted(path_roots.values(), key=lambda n: -n.cum)
    )
    return Profile(
        entries=tuple(entries),
        tree=tree,
        total_ms=total_ms,
        span_count=span_count,
    )


def span_skeleton(tracer: "Union[Tracer, NullTracer]") -> "List[Dict[str, Any]]":
    """The structure-only view of a tracer's span forest.

    Names and nesting, with every timing, attribute and PID stripped —
    exactly the part of a merged trace that must be identical between
    a serial and a parallel run of the same sweep (workers adopt their
    spans in submission order, so the merged forest keeps input
    order).  :func:`skeleton_digest` hashes it for byte-stability
    assertions.
    """

    def node(span: Span) -> "Dict[str, Any]":
        return {
            "name": span.name,
            "children": [node(child) for child in span.children],
        }

    return [node(root) for root in tracer.roots]


def skeleton_digest(tracer: "Union[Tracer, NullTracer]") -> str:
    """SHA-256 over the canonical JSON of :func:`span_skeleton`."""
    body = json.dumps(
        span_skeleton(tracer), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
