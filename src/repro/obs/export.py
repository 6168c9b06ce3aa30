"""Trace/metric export: JSON lines and OpenMetrics text exposition.

The JSONL wire format is one JSON object per line, each tagged with a
``kind``:

* ``{"kind": "span", "name": ..., "parent": ..., "depth": ...,
  "start_ms": ..., "end_ms": ..., "duration_ms": ..., "status": "ok" |
  "error", "attributes": {...}}`` — spans in depth-first order, so a
  reader can rebuild the tree from ``depth`` alone; errored spans
  additionally carry ``error_type`` / ``error_message``;
* ``{"kind": "counter" | "gauge", "name": ..., "value": ...}`` — one
  line per instrument of the metrics snapshot.

Readers ignore lines whose ``kind`` they do not know, keeping the
format forward-compatible (and older traces, whose ``histogram``
lines nothing reads any more, still load).

:func:`openmetrics_text` renders a metrics registry in the
Prometheus/OpenMetrics text exposition format (the format of
``--metrics-out`` and of every run ledger's ``metrics.prom``): counters as ``<name>_total``, gauges
verbatim, terminated by ``# EOF``.
"""

from __future__ import annotations

import json
import re
from typing import IO, Any, Dict, List, Optional, Union

from .metrics import MetricsRegistry
from .tracer import Tracer


def span_records(tracer: Tracer) -> "List[Dict[str, Any]]":
    """Flatten a tracer's span trees into depth-first dict records."""
    records: "List[Dict[str, Any]]" = []

    def visit(span, parent: Optional[str], depth: int) -> None:
        records.append(span.to_dict(parent=parent, depth=depth))
        for child in span.children:
            visit(child, span.name, depth + 1)

    for root in tracer.roots:
        visit(root, None, 0)
    return records


def metric_records(registry: MetricsRegistry) -> "List[Dict[str, Any]]":
    """One dict record per instrument in the registry's snapshot."""
    snapshot = registry.snapshot()
    records: "List[Dict[str, Any]]" = []
    for name, value in snapshot["counters"].items():
        records.append({"kind": "counter", "name": name, "value": value})
    for name, value in snapshot["gauges"].items():
        records.append({"kind": "gauge", "name": name, "value": value})
    return records


def write_trace_jsonl(
    destination: "Union[str, IO[str]]",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write span and/or metric records as JSON lines.

    ``destination`` is a path or an open text file.  Returns the number
    of records written.
    """
    records: "List[Dict[str, Any]]" = []
    if tracer is not None:
        for record in span_records(tracer):
            records.append({"kind": "span", **record})
    if metrics is not None:
        records.extend(metric_records(metrics))
    # One buffered write of compactly-encoded lines: the run ledger
    # dumps hundreds of spans per sweep, so per-record write() calls
    # and default (spaced) JSON encoding would dominate the cost.
    dumps = json.dumps
    text = "".join(
        dumps(record, separators=(",", ":")) + "\n" for record in records
    )
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(text)
    else:
        destination.write(text)
    return len(records)


_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become ``_``)."""
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prom_metric_name(name: str) -> str:
    """The exposition name an instrument appears under in ``.prom``.

    The public face of the sanitizer: :mod:`repro.obs.diff` reports
    metric deltas under these names, so a diff names an instrument the
    way the runs' ``metrics.prom`` files do.
    """
    return _metric_name(name)


def _format_value(value: float) -> str:
    """A float rendered the way Prometheus parsers expect."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def openmetrics_text(
    registry: MetricsRegistry, run_id: Optional[str] = None
) -> str:
    """The registry in OpenMetrics/Prometheus text exposition format.

    Instrument names are sanitized (``evaluate.calls`` becomes
    ``evaluate_calls``), counters gain the ``_total`` sample suffix,
    and the exposition ends with the OpenMetrics ``# EOF`` marker.

    With a ``run_id``, the exposition opens with an ``info``-style
    metric — ``repro_run_info{run_id="..."} 1`` — so scraped series
    can be joined back to the run ledger directory that archived them.
    """
    lines: "List[str]" = []
    if run_id is not None:
        escaped = run_id.replace("\\", "\\\\").replace('"', '\\"')
        lines.append("# TYPE repro_run info")
        lines.append(f'repro_run_info{{run_id="{escaped}"}} 1')
    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")
    for name, value in snapshot["gauges"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    destination: "Union[str, IO[str]]",
    registry: MetricsRegistry,
    run_id: Optional[str] = None,
) -> int:
    """Write the OpenMetrics exposition; returns the character count."""
    text = openmetrics_text(registry, run_id=run_id)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(text)
    else:
        destination.write(text)
    return len(text)


def read_trace_jsonl(source: "Union[str, IO[str]]") -> "List[Dict[str, Any]]":
    """Read back the records of a JSONL trace file (blank lines skipped)."""
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    records = []
    for line in lines:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
