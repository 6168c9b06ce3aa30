"""Observability: structured tracing, metrics and evaluation provenance.

Zero-dependency instrumentation for the evaluation pipeline:

* :mod:`repro.obs.telemetry` — the one telemetry context: a frozen
  :class:`Telemetry` value (tracer, metrics, progress, task log) held
  in one process-global slot, read with :func:`current` (or the
  hot-path :func:`get_tracer` / :func:`get_metrics`), installed for a
  block with :func:`use` and cleared with :func:`reset`.  The default
  is all off, so instrumented code pays a single attribute read when
  telemetry is disabled;
* :mod:`repro.obs.spans` — the :class:`Span` tree node: one timed
  operation, with attributes and nested children;
* :mod:`repro.obs.tracer` — the :class:`Tracer` collecting span trees,
  and its no-op twin :data:`NULL_TRACER`;
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters
  and gauges, two dicts of floats (``evaluate.calls``,
  ``recovery.plans``, ``engine.cache.hits``, ...), and its no-op twin
  :data:`NULL_METRICS`.  Phases are timed by spans only;
* :mod:`repro.obs.provenance` — the :class:`EvaluationProvenance`
  record attached to every :class:`~repro.core.results.Assessment`:
  which recovery source was chosen, why planning failed, which penalty
  term and outlay dominated, validation warnings, per-phase timings;
* :mod:`repro.obs.profile` — span aggregation into per-name and
  per-call-path profiles (call counts, cumulative and self time; the
  CLI's ``--profile``);
* :mod:`repro.obs.export` — JSON-lines export/import of span trees and
  metric snapshots (the CLI's ``--trace-out``), plus the
  OpenMetrics/Prometheus text exposition of a metrics registry;
* :mod:`repro.obs.context` — cross-process trace propagation: the
  :class:`TraceContext` shipped with each dispatched task chunk, the
  worker-side capture it builds, and the :class:`TelemetryCapsule` of
  spans/metric-deltas merged back into the parent
  (:func:`merge_capsule`);
* :mod:`repro.obs.progress` — the live sweep progress reporter
  (throttled stderr one-liner + machine heartbeats) and its no-op twin
  :data:`NULL_PROGRESS`;
* :mod:`repro.obs.ledger` — the per-run artifact directory
  (``manifest.json``, ``spans.jsonl``, ``metrics.prom``,
  ``progress.jsonl``) behind the CLI's ``--run-dir``.

Enable tracing and metrics for one block of code::

    from repro import obs

    telemetry = obs.Telemetry(tracer=obs.Tracer(), metrics=obs.MetricsRegistry())
    with obs.use(telemetry):
        assessment = repro.evaluate(design, workload, scenario, reqs)
    print(assessment.provenance.describe())
"""

from ..lazy import lazy_getattr
from .spans import Span
from .tracer import NULL_TRACER, NullTracer, Tracer
from .metrics import NULL_METRICS, MetricsRegistry, NullMetricsRegistry
from .provenance import EvaluationProvenance, explain_assessment
from .progress import NULL_PROGRESS, NullProgress, ProgressReporter
from .telemetry import Telemetry, current, get_metrics, get_tracer, reset, use
from .context import TelemetryCapsule, TraceContext, current_context, merge_capsule

#: The run observatory — profiles, exports, the ledger, the run store
#: and run diffs — imported on first use (PEP 562): evaluation code
#: reads only the telemetry slot and should not pay for the rest.
_LAZY = {
    **dict.fromkeys(
        (
            "PathNode", "Profile", "ProfileEntry", "build_profile",
            "skeleton_digest", "span_skeleton",
        ),
        "profile",
    ),
    **dict.fromkeys(
        (
            "metric_records", "openmetrics_text", "read_trace_jsonl",
            "span_records", "write_openmetrics", "write_trace_jsonl",
        ),
        "export",
    ),
    **dict.fromkeys(
        (
            "MANIFEST_SCHEMA", "ManifestError", "RunLedger", "new_run_id",
            "read_manifest", "span_rollup",
        ),
        "ledger",
    ),
    **dict.fromkeys(
        ("RunLookupError", "RunRecord", "RunStore", "TaskLog", "resolve_run"),
        "runs",
    ),
    **dict.fromkeys(
        (
            "Attribution", "MetricDelta", "RunDiff", "SpanDelta", "TaskDrift",
            "diff_runs",
        ),
        "diff",
    ),
}

__getattr__ = lazy_getattr(__name__, _LAZY)


__all__ = [
    "Telemetry",
    "current",
    "use",
    "reset",
    "get_tracer",
    "get_metrics",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "EvaluationProvenance",
    "explain_assessment",
    "Profile",
    "ProfileEntry",
    "PathNode",
    "build_profile",
    "span_skeleton",
    "skeleton_digest",
    "span_records",
    "metric_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "openmetrics_text",
    "write_openmetrics",
    "TraceContext",
    "TelemetryCapsule",
    "current_context",
    "merge_capsule",
    "new_run_id",
    "NullProgress",
    "NULL_PROGRESS",
    "ProgressReporter",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "RunLedger",
    "read_manifest",
    "span_rollup",
    "TaskLog",
    "RunLookupError",
    "RunRecord",
    "RunStore",
    "resolve_run",
    "Attribution",
    "MetricDelta",
    "RunDiff",
    "SpanDelta",
    "TaskDrift",
    "diff_runs",
]
