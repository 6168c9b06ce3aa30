"""The run observatory's index: many run ledgers under one root.

A :class:`RunStore` treats a directory (``--runs-root``) whose
subdirectories are :class:`~repro.obs.ledger.RunLedger` outputs as a
queryable index of past runs: list and filter by command, status or
schema version, resolve a run by ID (or unique ID prefix, or directory
name), pick the latest, and garbage-collect old runs.  Directories
whose manifest cannot be parsed are *skipped and counted* — one torn
run must never hide the healthy ones.

A :class:`RunRecord` is one loaded run.  It reads everything from the
manifest (schema v2: span rollups, metric snapshot, task records); a
run that crashed before ``finish`` reads as an empty rollup and an
empty metrics snapshot.  Pre-v2 manifests carry none of those fields
and are rejected on load, so a store skips and counts them.

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


class RunRecord:
    """One loaded run ledger: the manifest's identification and its v2
    enrichment fields (rollup, metrics snapshot, task records)."""

    def __init__(self, directory: str, manifest: "Dict[str, Any]") -> None:
        self.directory = directory
        self.manifest = manifest

    @classmethod
    def load(cls, directory: "Union[str, os.PathLike]") -> "RunRecord":
        """Load the run at ``directory``.

        Raises :class:`ManifestError` when the manifest is unreadable or
        older than schema v2 (a v1 manifest holds no rollup, metrics or
        task records to compare).
        """
        path = os.fspath(directory)
        manifest = read_manifest(path)
        schema = manifest.get("manifest_schema", 1)
        if not isinstance(schema, int) or schema < 2:
            raise ManifestError(
                f"run manifest in {path!r} has schema {schema!r}; only v2 "
                "and later ledgers can be read"
            )
        return cls(path, manifest)

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
        """The manifest layout version (2 or later for a loaded run)."""
        return int(self.manifest.get("manifest_schema", 1))

    @property
    def model_schema_version(self) -> Optional[str]:
        value = self.manifest.get("model_schema_version")
        return None if value is None else str(value)

    # -- artifact views -------------------------------------------------------

    def rollup(self) -> "Dict[str, Any]":
        """Per-span-name timings + merged path tree (empty until finish)."""
        stored = self.manifest.get("rollup")
        if isinstance(stored, dict):
            return stored
        return {"spans": {}, "tree": [], "total_ms": 0.0, "span_count": 0}

    def span_stats(self) -> "Dict[str, Dict[str, Any]]":
        """Flat per-span-name stats: calls, cum_ms, self_ms, errors."""
        spans = self.rollup().get("spans", {})
        return spans if isinstance(spans, dict) else {}

    def tree(self) -> "List[Dict[str, Any]]":
        """The merged name-path call tree (roots first)."""
        tree = self.rollup().get("tree", [])
        return tree if isinstance(tree, list) else []

    def tasks(self) -> "List[Dict[str, Any]]":
        """The engine's task records ([] for non-sweep or crashed runs)."""
        tasks = self.manifest.get("tasks", [])
        return tasks if isinstance(tasks, list) else []

    def metrics(self) -> "Dict[str, Any]":
        """Counters and gauges (empty until finish)."""
        stored = self.manifest.get("metrics")
        if isinstance(stored, dict):
            return stored
        return {"counters": {}, "gauges": {}}

    def heartbeats(self) -> "List[Dict[str, Any]]":
        """The progress heartbeats ([] when the file is missing/empty)."""
        path = os.path.join(self.directory, RunLedger.PROGRESS)
        if not os.path.exists(path):
            return []
        try:
            return read_trace_jsonl(path)
        except (OSError, ValueError):
            return []


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
