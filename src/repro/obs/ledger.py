"""The run ledger: one durable, diffable directory of artifacts per run.

Every sweep invoked with ``--run-dir`` leaves a complete observability
record behind::

    <run-dir>/
      manifest.json    # run ID, argv, schema versions, rollups, tasks
      spans.jsonl      # the merged span forest (worker spans included)
      metrics.prom     # final OpenMetrics snapshot of the registry
      progress.jsonl   # one JSON heartbeat per progress emission

``manifest.json`` is written by :meth:`RunLedger.begin` as soon as the
run starts (so a crashed run still identifies itself) and rewritten by
:meth:`RunLedger.finish` with the wall time and exit status.  Both
writes go through a temp-file-and-rename, so a crash mid-write can
never leave a torn manifest — the previous complete manifest survives.

Manifest schema (``manifest_schema``):

* **v1** (PR 6) — identification only: run ID, argv, timestamps,
  status, model schema version.
* **v2** (this module) — v1 plus the fields the run observatory
  (:mod:`repro.obs.runs` / :mod:`repro.obs.diff`) compares without
  re-parsing the full span stream: a ``rollup`` of per-span-name
  timings and the merged name-path call tree, a ``metrics`` snapshot,
  and the engine's content-addressed ``tasks`` records (task key +
  result digest per sweep task).  The observatory reads v2 only: it
  skips and counts a v1 ledger as unreadable.

Span and metric artifacts reuse the existing JSONL / OpenMetrics
writers, so everything in the ledger round-trips through the same
readers as ``--trace-out`` / ``--metrics-out``.

The ledger never *owns* instruments — the caller passes its tracer and
registry to ``finish`` — so it layers strictly above
:mod:`repro.obs.tracer` / :mod:`repro.obs.metrics` and below nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time
import uuid
from typing import Any, Dict, List, Optional, Union

from ..exceptions import ReproError
from .export import write_openmetrics, write_trace_jsonl
from .metrics import MetricsRegistry
from .profile import PathNode, build_profile
from .tracer import NullTracer, Tracer

#: The manifest layout this module writes (see the module docstring).
MANIFEST_SCHEMA = 2


class ManifestError(ReproError, ValueError):
    """A ledger manifest is missing, unparseable or structurally wrong.

    Raised by :func:`read_manifest` so callers (the run observatory's
    :class:`~repro.obs.runs.RunStore`) can skip-and-count a corrupt run
    directory instead of dying on a bare ``JSONDecodeError``.
    """


def new_run_id() -> str:
    """A fresh, sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid():x}-{uuid.uuid4().hex[:8]}"


def _utc_stamp(wall_seconds: float) -> str:
    """An ISO-8601 UTC timestamp for manifest fields."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(wall_seconds))


def _tree_node_dict(node: PathNode) -> "Dict[str, Any]":
    """One merged call-tree node as a JSON-able manifest record."""
    return {
        "name": node.name,
        "calls": node.calls,
        "cum_ms": round(node.cum_ms, 6),
        "self_ms": round(node.self_ms, 6),
        "errors": node.errors,
        "children": [_tree_node_dict(child) for child in node.children],
    }


def span_rollup(tracer: "Union[Tracer, NullTracer]") -> "Dict[str, Any]":
    """The manifest's ``rollup`` field: per-name timings + path tree.

    Collapses the tracer's span forest through
    :func:`repro.obs.profile.build_profile` into the two views the run
    observatory diffs: ``spans`` (flat per-span-name call counts,
    cumulative/self milliseconds, error counts) and ``tree`` (the
    merged name-path call tree, every occurrence of one root-to-span
    name path folded into a single node — the structure hierarchical
    regression attribution walks).
    """
    profile = build_profile(tracer)
    return {
        "spans": {
            entry.name: {
                "calls": entry.calls,
                "cum_ms": round(entry.cum_ms, 6),
                "self_ms": round(entry.self_ms, 6),
                "errors": entry.errors,
            }
            for entry in profile.entries
        },
        "tree": [_tree_node_dict(node) for node in profile.tree],
        "total_ms": round(profile.total_ms, 6),
        "span_count": profile.span_count,
    }


class RunLedger:
    """Writes one run's observability artifacts under a directory."""

    MANIFEST = "manifest.json"
    SPANS = "spans.jsonl"
    METRICS = "metrics.prom"
    PROGRESS = "progress.jsonl"

    def __init__(
        self,
        directory: "Union[str, os.PathLike]",
        run_id: Optional[str] = None,
        argv: Optional[list] = None,
    ):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.run_id = run_id if run_id is not None else new_run_id()
        self.argv = list(argv) if argv is not None else []
        self._started_wall = time.time()
        self._started = time.perf_counter()
        self._manifest: "Dict[str, Any]" = {}
        self.heartbeats = 0

    def path(self, filename: str) -> str:
        """The absolute path of one ledger artifact."""
        return os.path.join(self.directory, filename)

    # -- lifecycle ------------------------------------------------------------

    def begin(self, extra: "Optional[Dict[str, Any]]" = None) -> "Dict[str, Any]":
        """Write the initial manifest and truncate ``progress.jsonl``.

        ``extra`` lands verbatim in the manifest — the CLI passes the
        engine's ``model_schema_version`` (the SHA over the model
        source that also versions the result cache), the worker count
        and the cache directory.
        """
        self._manifest = {
            "manifest_schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "argv": self.argv,
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "started": _utc_stamp(self._started_wall),
            "status": "running",
        }
        if extra:
            self._manifest.update(extra)
        self._write_manifest()
        with open(self.path(self.PROGRESS), "w"):
            pass
        return dict(self._manifest)

    def heartbeat(self, record: "Dict[str, Any]") -> None:
        """Append one progress heartbeat to ``progress.jsonl``."""
        self.heartbeats += 1
        with open(self.path(self.PROGRESS), "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def finish(
        self,
        tracer: "Optional[Union[Tracer, NullTracer]]" = None,
        metrics: Optional[MetricsRegistry] = None,
        status: str = "ok",
        tasks: "Optional[List[Dict[str, Any]]]" = None,
    ) -> "Dict[str, Any]":
        """Write span/metric artifacts and the final manifest.

        Safe to call without a tracer or registry — the corresponding
        artifact is simply skipped — and idempotent, so both a normal
        exit and an error path may call it.

        ``tasks`` is the engine's per-task record list (name, content
        key, result digest, cache disposition — see
        :class:`repro.obs.runs.TaskLog`); it lands in the manifest so
        two runs can be joined task-by-task without re-evaluating
        anything.  The final manifest also carries the span ``rollup``
        and a ``metrics`` snapshot, making one manifest read sufficient
        for ``repro runs list``/``diff``.
        """
        span_count = 0
        if tracer is not None and tracer.enabled:
            span_count = write_trace_jsonl(self.path(self.SPANS), tracer=tracer)
            self._manifest["rollup"] = span_rollup(tracer)
        if metrics is not None and metrics.enabled:
            write_openmetrics(self.path(self.METRICS), metrics, run_id=self.run_id)
            self._manifest["metrics"] = metrics.snapshot()
        if tasks is not None:
            self._manifest["tasks"] = list(tasks)
        if not self._manifest:
            self.begin()
        self._manifest.update(
            {
                "status": status,
                "finished": _utc_stamp(time.time()),
                "wall_time_s": round(time.perf_counter() - self._started, 6),
                "spans": span_count,
                "heartbeats": self.heartbeats,
            }
        )
        self._write_manifest()
        return dict(self._manifest)

    # -- internals ------------------------------------------------------------

    def _write_manifest(self) -> None:
        """Atomically replace ``manifest.json``.

        The manifest is written twice per run (``begin`` and
        ``finish``); writing in place would let a crash mid-``finish``
        leave a torn, unparseable file.  Writing to a temp file in the
        same directory and renaming over the target is atomic on POSIX,
        so readers only ever see a complete manifest (the ``begin`` one
        until ``finish`` lands).
        """
        target = self.path(self.MANIFEST)
        temp = f"{target}.tmp.{os.getpid()}"
        with open(temp, "w") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)


def read_manifest(directory: "Union[str, os.PathLike]") -> "Dict[str, Any]":
    """Load a ledger directory's ``manifest.json``.

    Raises :class:`ManifestError` when the file is missing, is not
    valid JSON, or does not hold a JSON object — one exception type for
    "this directory is not a usable run ledger", whatever the low-level
    cause.
    """
    path = os.path.join(os.fspath(directory), RunLedger.MANIFEST)
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise ManifestError(f"cannot read run manifest {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"run manifest {path!r} is not valid JSON "
            f"(line {exc.lineno}: {exc.msg}); was the run torn mid-write?"
        ) from exc
    if not isinstance(loaded, dict):
        raise ManifestError(
            f"run manifest {path!r} holds {type(loaded).__name__}, "
            "expected a JSON object"
        )
    return loaded
