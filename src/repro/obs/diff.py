"""Structural run diffing and regression attribution.

:func:`diff_runs` aligns two loaded runs (:class:`~repro.obs.runs.RunRecord`)
along three axes:

* **spans** — the flat per-span-name stats are joined by name into
  :class:`SpanDelta` rows (cumulative/self-time and call-count deltas,
  spans only one run has marked ``added``/``removed``), and the merged
  name-path call trees are walked top-down to *attribute* each
  regressed root to the deepest path that explains it
  (:class:`Attribution`);
* **metrics** — counters and gauges are joined by instrument name,
  normalized through :func:`~repro.obs.export.prom_metric_name` to the
  names the run's ``metrics.prom`` exposes, into :class:`MetricDelta`
  rows (other keys an older manifest's ``metrics`` holds are ignored);
* **tasks** — the engine's task records are joined by content-addressed
  task key, splitting differences into *correctness drift* (same key,
  different result digest — the runs computed different answers) and
  mere cache/perf churn (``newly_cached`` / ``newly_uncached``
  transitions), plus added/removed work items.

The attribution walk is the heart of the regression story.  A root span
is *regressed* when its cumulative time grew by more than
``abs_threshold_ms`` **and** by more than ``rel_threshold`` of its
baseline — both gates, so neither microsecond jitter on tiny spans nor
a fixed-cost wobble on huge ones raises alarms.  From a regressed root
the walk repeatedly descends into the child (matched by name; a child
only the candidate has counts from a zero baseline) with the largest
positive delta, as long as that child explains at least
``explain_fraction`` of the current node's delta.  Where the walk stops
is the deepest span path that still accounts for the regression — the
place to start profiling, not just the fact that "evaluate got slower".

Everything is computed from the two manifests, so diffing never
re-runs anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .export import prom_metric_name
from .spans import (
    DEFAULT_ABS_THRESHOLD_MS,
    DEFAULT_EXPLAIN_FRACTION,
    DEFAULT_REL_THRESHOLD,
)

if TYPE_CHECKING:
    from .runs import RunRecord


@dataclass
class SpanDelta:
    """One span name's timing change between two runs."""

    name: str
    status: str  #: ``common`` | ``added`` | ``removed``
    base_calls: int
    cand_calls: int
    base_cum_ms: float
    cand_cum_ms: float
    delta_cum_ms: float
    delta_self_ms: float

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "name": self.name,
            "status": self.status,
            "base_calls": self.base_calls,
            "cand_calls": self.cand_calls,
            "base_cum_ms": round(self.base_cum_ms, 6),
            "cand_cum_ms": round(self.cand_cum_ms, 6),
            "delta_cum_ms": round(self.delta_cum_ms, 6),
            "delta_self_ms": round(self.delta_self_ms, 6),
        }


@dataclass
class Attribution:
    """One regressed root span, attributed to its deepest explaining path.

    ``path`` runs from the regressed root down to the deepest span
    whose delta still explains the regression; ``share`` is the
    fraction of the root's delta that deepest span accounts for.
    """

    path: "List[str]"
    root_delta_ms: float
    delta_ms: float
    base_ms: float
    cand_ms: float
    share: float

    @property
    def leaf(self) -> str:
        """The deepest span name on the attributed path."""
        return self.path[-1]

    def describe(self) -> str:
        """One human line: ``a > b > c  +123.4ms (87% of +141.9ms)``."""
        joined = " > ".join(self.path)
        return (
            f"{joined}  +{self.delta_ms:.1f}ms "
            f"({self.share:.0%} of +{self.root_delta_ms:.1f}ms)"
        )

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "path": list(self.path),
            "root_delta_ms": round(self.root_delta_ms, 6),
            "delta_ms": round(self.delta_ms, 6),
            "base_ms": round(self.base_ms, 6),
            "cand_ms": round(self.cand_ms, 6),
            "share": round(self.share, 4),
        }


@dataclass
class MetricDelta:
    """One instrument's change between two runs (normalized name)."""

    name: str
    kind: str  #: ``counter`` | ``gauge``
    base: Optional[float]
    cand: Optional[float]
    delta: float

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "name": self.name,
            "kind": self.kind,
            "base": self.base,
            "cand": self.cand,
            "delta": round(self.delta, 6),
        }


@dataclass
class TaskDrift:
    """Same task key, different result digest: correctness drift."""

    key: str
    task: str
    label: Optional[str]
    base_digest: str
    cand_digest: str

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "key": self.key,
            "task": self.task,
            "label": self.label,
            "base_digest": self.base_digest,
            "cand_digest": self.cand_digest,
        }


@dataclass
class RunDiff:
    """The full structural diff of two runs."""

    base_run_id: str
    cand_run_id: str
    base_command: Optional[str]
    cand_command: Optional[str]
    schema_mismatch: bool
    base_model_version: Optional[str]
    cand_model_version: Optional[str]
    base_total_ms: float
    cand_total_ms: float
    span_deltas: "List[SpanDelta]" = field(default_factory=list)
    regressions: "List[Attribution]" = field(default_factory=list)
    counter_deltas: "List[MetricDelta]" = field(default_factory=list)
    gauge_deltas: "List[MetricDelta]" = field(default_factory=list)
    correctness_drift: "List[TaskDrift]" = field(default_factory=list)
    tasks_added: "List[str]" = field(default_factory=list)
    tasks_removed: "List[str]" = field(default_factory=list)
    newly_cached: "List[str]" = field(default_factory=list)
    newly_uncached: "List[str]" = field(default_factory=list)
    matched_tasks: int = 0

    @property
    def total_delta_ms(self) -> float:
        """The run-total traced-time delta (candidate minus base)."""
        return self.cand_total_ms - self.base_total_ms

    @property
    def has_regressions(self) -> bool:
        """True when any root span regressed past the thresholds."""
        return bool(self.regressions)

    @property
    def has_drift(self) -> bool:
        """True when any matched task produced a different answer."""
        return bool(self.correctness_drift)

    def to_dict(self) -> "Dict[str, Any]":
        """The diff as one JSON-ready document (``repro runs diff --format
        json`` / ``--json-out``)."""
        return {
            "base": {
                "run_id": self.base_run_id,
                "command": self.base_command,
                "model_schema_version": self.base_model_version,
                "total_ms": round(self.base_total_ms, 6),
            },
            "cand": {
                "run_id": self.cand_run_id,
                "command": self.cand_command,
                "model_schema_version": self.cand_model_version,
                "total_ms": round(self.cand_total_ms, 6),
            },
            "schema_mismatch": self.schema_mismatch,
            "total_delta_ms": round(self.total_delta_ms, 6),
            "spans": [delta.to_dict() for delta in self.span_deltas],
            "regressions": [attr.to_dict() for attr in self.regressions],
            "metrics": {
                "counters": [d.to_dict() for d in self.counter_deltas],
                "gauges": [d.to_dict() for d in self.gauge_deltas],
            },
            "tasks": {
                "matched": self.matched_tasks,
                "correctness_drift": [
                    drift.to_dict() for drift in self.correctness_drift
                ],
                "added": list(self.tasks_added),
                "removed": list(self.tasks_removed),
                "newly_cached": list(self.newly_cached),
                "newly_uncached": list(self.newly_uncached),
            },
        }


# ---------------------------------------------------------------------------
# Span alignment.
# ---------------------------------------------------------------------------


def _stat(stats: "Dict[str, Any]", key: str) -> float:
    value = stats.get(key, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _span_deltas(base: RunRecord, cand: RunRecord) -> "List[SpanDelta]":
    base_stats = base.span_stats()
    cand_stats = cand.span_stats()
    deltas: "List[SpanDelta]" = []
    for name in sorted(set(base_stats) | set(cand_stats)):
        in_base, in_cand = name in base_stats, name in cand_stats
        b = base_stats.get(name, {})
        c = cand_stats.get(name, {})
        deltas.append(
            SpanDelta(
                name=name,
                status="common" if in_base and in_cand else ("added" if in_cand else "removed"),
                base_calls=int(_stat(b, "calls")),
                cand_calls=int(_stat(c, "calls")),
                base_cum_ms=_stat(b, "cum_ms"),
                cand_cum_ms=_stat(c, "cum_ms"),
                delta_cum_ms=_stat(c, "cum_ms") - _stat(b, "cum_ms"),
                delta_self_ms=_stat(c, "self_ms") - _stat(b, "self_ms"),
            )
        )
    deltas.sort(key=lambda d: -abs(d.delta_cum_ms))
    return deltas


def _node_cum(node: "Optional[Dict[str, Any]]") -> float:
    return _stat(node, "cum_ms") if node is not None else 0.0


def _children(node: "Optional[Dict[str, Any]]") -> "Dict[str, Dict[str, Any]]":
    if node is None:
        return {}
    children = node.get("children", [])
    if not isinstance(children, list):
        return {}
    return {
        str(child["name"]): child
        for child in children
        if isinstance(child, dict) and "name" in child
    }


def _is_regression(
    base_ms: float, delta_ms: float, rel_threshold: float, abs_threshold_ms: float
) -> bool:
    return delta_ms > abs_threshold_ms and delta_ms > rel_threshold * base_ms


def _attribute(
    root_name: str,
    base_root: "Optional[Dict[str, Any]]",
    cand_root: "Dict[str, Any]",
    explain_fraction: float,
) -> Attribution:
    """Walk one regressed root down to its deepest explaining path."""
    root_delta = _node_cum(cand_root) - _node_cum(base_root)
    path = [root_name]
    base_node, cand_node = base_root, cand_root
    current_delta = root_delta
    while True:
        base_children = _children(base_node)
        cand_children = _children(cand_node)
        best_name: Optional[str] = None
        best_delta = 0.0
        for name, child in cand_children.items():
            delta = _node_cum(child) - _node_cum(base_children.get(name))
            if delta > best_delta:
                best_name, best_delta = name, delta
        if best_name is None or best_delta < explain_fraction * current_delta:
            break
        path.append(best_name)
        base_node = base_children.get(best_name)
        cand_node = cand_children[best_name]
        current_delta = best_delta
    return Attribution(
        path=path,
        root_delta_ms=root_delta,
        delta_ms=current_delta,
        base_ms=_node_cum(base_node),
        cand_ms=_node_cum(cand_node),
        share=(current_delta / root_delta) if root_delta else 1.0,
    )


def _regressions(
    base: RunRecord,
    cand: RunRecord,
    rel_threshold: float,
    abs_threshold_ms: float,
    explain_fraction: float,
) -> "List[Attribution]":
    base_roots = {
        str(node["name"]): node
        for node in base.tree()
        if isinstance(node, dict) and "name" in node
    }
    attributions: "List[Attribution]" = []
    for node in cand.tree():
        if not isinstance(node, dict) or "name" not in node:
            continue
        name = str(node["name"])
        base_node = base_roots.get(name)
        delta = _node_cum(node) - _node_cum(base_node)
        if _is_regression(_node_cum(base_node), delta, rel_threshold, abs_threshold_ms):
            attributions.append(
                _attribute(name, base_node, node, explain_fraction)
            )
    attributions.sort(key=lambda a: -a.root_delta_ms)
    return attributions


# ---------------------------------------------------------------------------
# Metric alignment.
# ---------------------------------------------------------------------------


def _normalized_scalars(mapping: Any) -> "Dict[str, float]":
    if not isinstance(mapping, dict):
        return {}
    normalized: "Dict[str, float]" = {}
    for name, value in mapping.items():
        if isinstance(value, (int, float)):
            normalized[prom_metric_name(str(name))] = float(value)
    return normalized


def _metric_deltas(
    base_metrics: "Dict[str, Any]", cand_metrics: "Dict[str, Any]", kind: str
) -> "List[MetricDelta]":
    """One row per ``kind`` instrument either run's metrics holds."""
    base_map = _normalized_scalars(base_metrics.get(kind + "s"))
    cand_map = _normalized_scalars(cand_metrics.get(kind + "s"))
    deltas: "List[MetricDelta]" = []
    for name in sorted(set(base_map) | set(cand_map)):
        base_value = base_map.get(name)
        cand_value = cand_map.get(name)
        deltas.append(
            MetricDelta(
                name=name,
                kind=kind,
                base=base_value,
                cand=cand_value,
                delta=(cand_value or 0.0) - (base_value or 0.0),
            )
        )
    return deltas


# ---------------------------------------------------------------------------
# Task alignment.
# ---------------------------------------------------------------------------


def _keyed_tasks(record: RunRecord) -> "Dict[str, Dict[str, Any]]":
    keyed: "Dict[str, Dict[str, Any]]" = {}
    for task in record.tasks():
        if not isinstance(task, dict):
            continue
        key = task.get("key")
        if isinstance(key, str) and key:
            keyed[key] = task
    return keyed


def _task_alignment(
    base: RunRecord, cand: RunRecord
) -> "Tuple[List[TaskDrift], List[str], List[str], List[str], List[str], int]":
    base_tasks = _keyed_tasks(base)
    cand_tasks = _keyed_tasks(cand)
    drift: "List[TaskDrift]" = []
    newly_cached: "List[str]" = []
    newly_uncached: "List[str]" = []
    matched = 0
    for key in sorted(set(base_tasks) & set(cand_tasks)):
        matched += 1
        b, c = base_tasks[key], cand_tasks[key]
        base_digest = b.get("digest")
        cand_digest = c.get("digest")
        if (
            isinstance(base_digest, str)
            and isinstance(cand_digest, str)
            and base_digest != cand_digest
        ):
            drift.append(
                TaskDrift(
                    key=key,
                    task=str(c.get("task", "?")),
                    label=None if c.get("label") is None else str(c.get("label")),
                    base_digest=base_digest,
                    cand_digest=cand_digest,
                )
            )
        base_cached = bool(b.get("cached"))
        cand_cached = bool(c.get("cached"))
        if cand_cached and not base_cached:
            newly_cached.append(key)
        elif base_cached and not cand_cached:
            newly_uncached.append(key)
    added = sorted(set(cand_tasks) - set(base_tasks))
    removed = sorted(set(base_tasks) - set(cand_tasks))
    return drift, added, removed, newly_cached, newly_uncached, matched


# ---------------------------------------------------------------------------
# The entry point.
# ---------------------------------------------------------------------------


def diff_runs(
    base: RunRecord,
    cand: RunRecord,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    abs_threshold_ms: float = DEFAULT_ABS_THRESHOLD_MS,
    explain_fraction: float = DEFAULT_EXPLAIN_FRACTION,
) -> RunDiff:
    """Structurally diff two runs: ``cand`` relative to ``base``.

    Pure over the two loaded records — nothing is re-executed, no file
    is written.  ``schema_mismatch`` is set when the two runs carry
    different model schema versions: their task keys then live in
    disjoint key spaces (every model change re-keys every task), so the
    task join will match nothing and correctness comparisons are
    meaningless — the span and metric diffs remain valid.
    """
    base_metrics = base.metrics()
    cand_metrics = cand.metrics()
    drift, added, removed, newly_cached, newly_uncached, matched = _task_alignment(
        base, cand
    )
    mismatch = (
        base.model_schema_version is not None
        and cand.model_schema_version is not None
        and base.model_schema_version != cand.model_schema_version
    )
    return RunDiff(
        base_run_id=base.run_id,
        cand_run_id=cand.run_id,
        base_command=base.command,
        cand_command=cand.command,
        schema_mismatch=mismatch,
        base_model_version=base.model_schema_version,
        cand_model_version=cand.model_schema_version,
        base_total_ms=_stat(base.rollup(), "total_ms"),
        cand_total_ms=_stat(cand.rollup(), "total_ms"),
        span_deltas=_span_deltas(base, cand),
        regressions=_regressions(
            base, cand, rel_threshold, abs_threshold_ms, explain_fraction
        ),
        counter_deltas=_metric_deltas(base_metrics, cand_metrics, "counter"),
        gauge_deltas=_metric_deltas(base_metrics, cand_metrics, "gauge"),
        correctness_drift=drift,
        tasks_added=added,
        tasks_removed=removed,
        newly_cached=newly_cached,
        newly_uncached=newly_uncached,
        matched_tasks=matched,
    )
