"""The run observatory's index: many run ledgers under one root.

A :class:`RunStore` treats a directory (``--runs-root``) whose
subdirectories are :class:`~repro.obs.ledger.RunLedger` outputs as a
queryable index of past runs: list and filter by command, status or
schema version, resolve a run by ID (or unique ID prefix, or directory
name), pick the latest, and garbage-collect old runs.  Directories
whose manifest cannot be parsed are *skipped and counted* — one torn
run must never hide the healthy ones.

A :class:`RunRecord` is one loaded run.  It reads everything from the
manifest when the manifest carries it (schema v2: span rollups, metric
snapshot, task records) and falls back to re-deriving the same views
from the raw artifacts for pre-v2 ledgers — ``spans.jsonl`` for the
span rollup, ``metrics.prom`` for counters — so ``repro runs
list``/``show``/``diff`` work on every ledger ever written.

:class:`TaskLog` is the bridge from the evaluation engine: installed
in the telemetry context (:mod:`repro.obs.telemetry`), it collects one
record per sweep task — name, content-addressed task key, result
digest, cache disposition — which the CLI hands to :meth:`RunLedger.finish` for the manifest's ``tasks`` field.
Task keys join two runs' work items; result digests then separate
*correctness drift* (same key, different digest) from mere performance
drift (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, List, Optional, Tuple, Union

from ..exceptions import ReproError
from .export import read_trace_jsonl
from .ledger import ManifestError, RunLedger, read_manifest


class RunLookupError(ReproError, LookupError):
    """A run token matched no run (or ambiguously matched several)."""


# ---------------------------------------------------------------------------
# The engine-side task log.
# ---------------------------------------------------------------------------


class TaskLog:
    """Collects the engine's per-task records for the run manifest.

    One record per sweep task, in sweep submission order::

        {"task": ..., "label": ..., "key": ..., "digest": ...,
         "cached": ..., "ok": ..., "error_type": ..., "attempts": ...}

    ``key`` is the engine's content-addressed task key (None when the
    task is unkeyable), ``digest`` the content digest of the result
    (None on failure or for undigestable result types).  The engine
    records through the instance in the telemetry context; the CLI
    drains :attr:`records` into the ledger manifest.
    """

    def __init__(self) -> None:
        self._records: "List[Dict[str, Any]]" = []

    def record(self, **fields: Any) -> None:
        """Append one task record."""
        self._records.append(fields)

    @property
    def records(self) -> "List[Dict[str, Any]]":
        """The collected records, in recording order."""
        return list(self._records)


# ---------------------------------------------------------------------------
# Loaded runs.
# ---------------------------------------------------------------------------


class _PathAccumulator:
    """Mutable name-path node used when re-rolling v1 span streams."""

    __slots__ = ("name", "calls", "cum_ms", "errors", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_ms = 0.0
        self.errors = 0
        self.children: "Dict[str, _PathAccumulator]" = {}

    def freeze(self) -> "Dict[str, Any]":
        children = [
            child.freeze()
            for child in sorted(self.children.values(), key=lambda c: -c.cum_ms)
        ]
        child_cum = sum(child.cum_ms for child in self.children.values())
        return {
            "name": self.name,
            "calls": self.calls,
            "cum_ms": round(self.cum_ms, 6),
            "self_ms": round(max(self.cum_ms - child_cum, 0.0), 6),
            "errors": self.errors,
            "children": children,
        }


def _rollup_from_span_records(
    records: "List[Dict[str, Any]]",
) -> "Dict[str, Any]":
    """Rebuild a manifest-v2-shaped ``rollup`` from raw span records.

    The records are ``spans.jsonl`` lines: depth-first order with a
    ``depth`` field, so the tree structure is recoverable from depth
    alone.  Produces the same shape :func:`repro.obs.ledger.span_rollup`
    writes, so the diff layer never cares which path the data took.
    """
    roots: "Dict[str, _PathAccumulator]" = {}
    flat: "Dict[str, Dict[str, Any]]" = {}
    stack: "List[_PathAccumulator]" = []
    span_count = 0
    total_ms = 0.0
    for record in records:
        if record.get("kind") not in (None, "span") or "depth" not in record:
            continue
        span_count += 1
        name = str(record.get("name", "?"))
        depth = int(record["depth"])
        duration = float(record.get("duration_ms") or 0.0)
        failed = 1 if record.get("status") == "error" else 0
        del stack[depth:]
        siblings = stack[-1].children if stack else roots
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = _PathAccumulator(name)
        node.calls += 1
        node.cum_ms += duration
        node.errors += failed
        stack.append(node)
        if depth == 0:
            total_ms += duration
        entry = flat.setdefault(
            name, {"calls": 0, "cum_ms": 0.0, "self_ms": 0.0, "errors": 0}
        )
        entry["calls"] += 1
        entry["cum_ms"] = round(float(entry["cum_ms"]) + duration, 6)
        entry["errors"] += failed
    # Self time per name: cumulative minus the direct children, summed
    # over the merged tree (equal to per-instance self time summed).
    tree = [
        node.freeze()
        for node in sorted(roots.values(), key=lambda n: -n.cum_ms)
    ]

    def _collect_self(node: "Dict[str, Any]") -> None:
        entry = flat[node["name"]]
        entry["self_ms"] = round(float(entry["self_ms"]) + node["self_ms"], 6)
        for child in node["children"]:
            _collect_self(child)

    for node in tree:
        _collect_self(node)
    return {
        "spans": flat,
        "tree": tree,
        "total_ms": round(total_ms, 6),
        "span_count": span_count,
    }


def _parse_prom_metrics(text: str) -> "Dict[str, Any]":
    """Counters/gauges/histogram summaries from an OpenMetrics file.

    The v1 fallback: pre-v2 manifests carry no ``metrics`` snapshot, so
    the run's final counters are recovered from ``metrics.prom``.  Only
    the shapes :func:`repro.obs.export.openmetrics_text` emits are
    recognised; names stay in their sanitized (underscore) form.
    """
    counters: "Dict[str, float]" = {}
    gauges: "Dict[str, float]" = {}
    histograms: "Dict[str, Dict[str, Any]]" = {}
    kinds: "Dict[str, str]" = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            continue
        try:
            value = float(value_part)
        except ValueError:
            continue
        base = name_part.split("{", 1)[0]
        if base.endswith("_total") and kinds.get(base[: -len("_total")]) == "counter":
            counters[base[: -len("_total")]] = value
        elif kinds.get(base) == "gauge":
            gauges[base] = value
        elif base.endswith("_sum") and kinds.get(base[: -len("_sum")]) == "histogram":
            histograms.setdefault(base[: -len("_sum")], {})["total"] = value
        elif base.endswith("_count") and kinds.get(base[: -len("_count")]) == "histogram":
            histograms.setdefault(base[: -len("_count")], {})["count"] = value
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


class RunRecord:
    """One loaded run ledger: the manifest plus lazy artifact views.

    Every accessor prefers the manifest's v2 enrichment fields and
    falls back to the raw artifacts for older ledgers; all fall-backs
    tolerate missing or empty artifact files (a crashed run may have
    written nothing but its ``begin`` manifest).
    """

    def __init__(self, directory: str, manifest: "Dict[str, Any]") -> None:
        self.directory = directory
        self.manifest = manifest
        self._rollup: "Optional[Dict[str, Any]]" = None
        self._metrics: "Optional[Dict[str, Any]]" = None

    @classmethod
    def load(cls, directory: "Union[str, os.PathLike]") -> "RunRecord":
        """Load the run at ``directory`` (raises :class:`ManifestError`)."""
        path = os.fspath(directory)
        return cls(path, read_manifest(path))

    # -- identification -------------------------------------------------------

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", os.path.basename(self.directory)))

    @property
    def command(self) -> Optional[str]:
        value = self.manifest.get("command")
        return None if value is None else str(value)

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "unknown"))

    @property
    def started(self) -> str:
        return str(self.manifest.get("started", ""))

    @property
    def wall_time_s(self) -> Optional[float]:
        value = self.manifest.get("wall_time_s")
        return None if value is None else float(value)

    @property
    def manifest_schema(self) -> int:
        """The manifest layout version (pre-observatory ledgers are 1)."""
        return int(self.manifest.get("manifest_schema", 1))

    @property
    def model_schema_version(self) -> Optional[str]:
        value = self.manifest.get("model_schema_version")
        return None if value is None else str(value)

    # -- artifact views -------------------------------------------------------

    def rollup(self) -> "Dict[str, Any]":
        """Per-span-name timings + merged path tree (manifest or rebuilt)."""
        if self._rollup is None:
            stored = self.manifest.get("rollup")
            if isinstance(stored, dict):
                self._rollup = stored
            else:
                self._rollup = _rollup_from_span_records(self._span_records())
        return self._rollup

    def span_stats(self) -> "Dict[str, Dict[str, Any]]":
        """Flat per-span-name stats: calls, cum_ms, self_ms, errors."""
        spans = self.rollup().get("spans", {})
        return spans if isinstance(spans, dict) else {}

    def tree(self) -> "List[Dict[str, Any]]":
        """The merged name-path call tree (roots first)."""
        tree = self.rollup().get("tree", [])
        return tree if isinstance(tree, list) else []

    def tasks(self) -> "List[Dict[str, Any]]":
        """The engine's task records ([] for pre-v2 or non-sweep runs)."""
        tasks = self.manifest.get("tasks", [])
        return tasks if isinstance(tasks, list) else []

    def metrics(self) -> "Dict[str, Any]":
        """Counters/gauges/histograms (manifest snapshot or .prom parse)."""
        if self._metrics is None:
            stored = self.manifest.get("metrics")
            if isinstance(stored, dict):
                self._metrics = stored
            else:
                self._metrics = self._metrics_from_prom()
        return self._metrics

    def heartbeats(self) -> "List[Dict[str, Any]]":
        """The progress heartbeats ([] when the file is missing/empty)."""
        path = os.path.join(self.directory, RunLedger.PROGRESS)
        if not os.path.exists(path):
            return []
        try:
            return read_trace_jsonl(path)
        except (OSError, ValueError):
            return []

    # -- internals ------------------------------------------------------------

    def _span_records(self) -> "List[Dict[str, Any]]":
        path = os.path.join(self.directory, RunLedger.SPANS)
        if not os.path.exists(path):
            return []
        try:
            return read_trace_jsonl(path)
        except (OSError, ValueError):
            return []

    def _metrics_from_prom(self) -> "Dict[str, Any]":
        path = os.path.join(self.directory, RunLedger.METRICS)
        if not os.path.exists(path):
            return {"counters": {}, "gauges": {}, "histograms": {}}
        try:
            text = open(path).read()
        except OSError:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return _parse_prom_metrics(text)


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------


class RunStore:
    """Indexes every run ledger directly under one root directory.

    ``scan`` (and everything built on it) loads each subdirectory that
    contains a ``manifest.json``; unparseable manifests are recorded on
    :attr:`skipped` as ``(directory, reason)`` pairs and never abort
    the listing.  Runs sort oldest-first by start stamp (run IDs break
    ties — they embed the mint time, so the order is stable).
    """

    def __init__(self, root: "Union[str, os.PathLike]") -> None:
        self.root = os.fspath(root)
        self.skipped: "List[Tuple[str, str]]" = []

    def scan(self) -> "List[RunRecord]":
        """Load every run under the root, oldest first."""
        self.skipped = []
        records: "List[RunRecord]" = []
        if not os.path.isdir(self.root):
            return records
        for entry in sorted(os.listdir(self.root)):
            directory = os.path.join(self.root, entry)
            if not os.path.isdir(directory):
                continue
            if not os.path.exists(os.path.join(directory, RunLedger.MANIFEST)):
                continue
            try:
                records.append(RunRecord.load(directory))
            except ManifestError as exc:
                self.skipped.append((directory, str(exc)))
        records.sort(key=lambda record: (record.started, record.run_id))
        return records

    def list(
        self,
        command: Optional[str] = None,
        status: Optional[str] = None,
        schema: Optional[str] = None,
    ) -> "List[RunRecord]":
        """Scan, then filter by command, status and/or schema version.

        ``schema`` matches either the manifest schema number (``"2"``)
        or a prefix of the model schema version (``"engine-v1"`` or a
        full ``engine-v1:<digest>`` — prefix matching makes pinning a
        digest fragment convenient).
        """
        records = self.scan()
        if command is not None:
            records = [r for r in records if r.command == command]
        if status is not None:
            records = [r for r in records if r.status == status]
        if schema is not None:
            records = [
                r
                for r in records
                if str(r.manifest_schema) == schema
                or (
                    r.model_schema_version is not None
                    and r.model_schema_version.startswith(schema)
                )
            ]
        return records

    def latest(self, command: Optional[str] = None) -> "Optional[RunRecord]":
        """The most recently started run (optionally of one command)."""
        records = self.list(command=command)
        return records[-1] if records else None

    def find(self, token: str) -> RunRecord:
        """Resolve ``token`` to one run: directory name, run ID, or a
        unique run-ID prefix.  Raises :class:`RunLookupError` when the
        token matches nothing or more than one run."""
        records = self.scan()
        exact = [
            r
            for r in records
            if r.run_id == token or os.path.basename(r.directory) == token
        ]
        if len(exact) == 1:
            return exact[0]
        if len(exact) > 1:
            raise RunLookupError(
                f"run token {token!r} matches {len(exact)} runs under "
                f"{self.root!r} — use the full directory path"
            )
        prefixed = [r for r in records if r.run_id.startswith(token)]
        if len(prefixed) == 1:
            return prefixed[0]
        if len(prefixed) > 1:
            matches = ", ".join(r.run_id for r in prefixed[:5])
            raise RunLookupError(
                f"run token {token!r} is ambiguous under {self.root!r}: "
                f"{matches}"
            )
        raise RunLookupError(
            f"no run matching {token!r} under {self.root!r} "
            f"({len(records)} runs indexed, {len(self.skipped)} skipped)"
        )

    def gc(self, keep: int) -> "List[RunRecord]":
        """Delete all but the newest ``keep`` runs; returns the removed.

        Runs whose manifest still says ``running`` are never deleted —
        they may belong to a live process (a crashed run that never
        finished shows the same status; re-run ``gc`` after enough new
        runs pile up, or remove the directory by hand).
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        records = self.scan()
        removable = [r for r in records if r.status != "running"]
        excess = len(removable) - keep
        removed: "List[RunRecord]" = []
        for record in removable:
            if len(removed) >= excess:
                break
            shutil.rmtree(record.directory, ignore_errors=True)
            removed.append(record)
        return removed


def resolve_run(
    token: str, root: "Optional[Union[str, os.PathLike]]" = None
) -> RunRecord:
    """Resolve a CLI run argument: a ledger directory path, or a run
    ID / directory name / unique ID prefix under ``root``."""
    if os.path.isdir(token) and os.path.exists(
        os.path.join(token, RunLedger.MANIFEST)
    ):
        return RunRecord.load(token)
    if root is None:
        raise RunLookupError(
            f"{token!r} is not a run ledger directory and no --runs-root "
            "was given to resolve it against"
        )
    return RunStore(root).find(token)
