"""Human-readable renderings of traces, metrics, profiles, provenance.

* :func:`span_tree_report` — the per-phase timing breakdown of a
  :class:`~repro.obs.tracer.Tracer` as an indented tree (errored spans
  are flagged with their exception type and message);
* :func:`metrics_report` — every counter and gauge of a
  :class:`~repro.obs.metrics.MetricsRegistry` as one table;
* :func:`profile_report` — the aggregated span profile of a
  :class:`~repro.obs.profile.Profile`: a ranked per-name table plus a
  flamegraph-style merged call tree;
* :func:`provenance_report` — the four-metric explanation of each
  assessment (see :func:`~repro.obs.provenance.explain_assessment`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Union

from ..obs.metrics import MetricsRegistry
from ..obs.provenance import explain_assessment
from ..obs.tracer import NullTracer, Tracer
from .tables import Table

if TYPE_CHECKING:
    from ..obs.profile import Profile


def span_tree_report(tracer: Tracer, title: str = "Trace (per-phase timings)") -> str:
    """Render the tracer's span trees with durations and attributes."""
    entries = list(tracer.walk())
    if not entries:
        return f"{title}\n  (no spans recorded)"
    labels = ["  " * depth + span.name for span, depth in entries]
    width = max(len(label) for label in labels)
    lines = [title]
    for (span, _depth), label in zip(entries, labels):
        duration = f"{span.duration_ms:10.2f} ms" if span.finished else "   (open)  "
        attrs = ""
        if span.attributes:
            rendered = ", ".join(
                f"{key}={value}"
                for key, value in span.attributes.items()
                if key != "error"
            )
            if rendered:
                attrs = f"  [{rendered}]"
        error = ""
        if span.failed:
            error = f"  ERROR {span.error_type}: {span.error_message}"
        lines.append(f"  {label:<{width}}  {duration}{attrs}{error}")
    return "\n".join(lines)


def metrics_report(registry: MetricsRegistry, title: str = "Metrics") -> str:
    """Render every counter and gauge as one table."""
    table = Table(headers=["metric", "type", "value"], title=title)
    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():
        table.add_row(name, "counter", f"{value:g}")
    for name, value in snapshot["gauges"].items():
        table.add_row(name, "gauge", f"{value:g}")
    if not table.rows:
        table.add_row("(none recorded)", "", "")
    return table.render()


def profile_report(
    source: "Union[Profile, Tracer, NullTracer]",
    title: str = "Span profile (aggregated over the whole run)",
    hot_limit: int = 20,
    bar_width: int = 24,
) -> str:
    """Render a span profile: ranked hot spans plus the merged call tree.

    ``source`` is a :class:`~repro.obs.profile.Profile` or a tracer to
    aggregate on the fly.  The first section ranks span names by self
    time (time not attributed to child spans); the second renders the
    flamegraph-style merged call tree, each node's bar proportional to
    its cumulative share of the run.
    """
    from ..obs.profile import Profile, build_profile

    profile = source if isinstance(source, Profile) else build_profile(source)
    if not profile.span_count:
        return f"{title}\n  (no spans recorded)"

    table = Table(
        headers=["span", "calls", "cum ms", "self ms", "self %", "avg ms", "errors"],
        title=(
            f"{title}\n{profile.span_count} spans, "
            f"{profile.total_ms:.2f} ms total"
        ),
    )
    self_total = sum(entry.self_ms for entry in profile.entries) or 1.0
    for entry in profile.hot(hot_limit):
        table.add_row(
            entry.name,
            entry.calls,
            f"{entry.cum_ms:.2f}",
            f"{entry.self_ms:.2f}",
            f"{100.0 * entry.self_ms / self_total:.1f}",
            f"{entry.mean_ms:.3f}",
            entry.errors if entry.errors else "",
        )
    lines: "List[str]" = [table.render(), "", "Hot call paths"]

    scale = profile.total_ms or 1.0
    nodes = [
        (node, depth) for root in profile.tree for node, depth in root.walk()
    ]
    labels = ["  " * depth + node.name for node, depth in nodes]
    width = max(len(label) for label in labels)
    for (node, _depth), label in zip(nodes, labels):
        share = node.cum_ms / scale
        bar = "#" * max(int(round(share * bar_width)), 1)
        error = f"  ({node.errors} error(s))" if node.errors else ""
        lines.append(
            f"  {label:<{width}}  {bar:<{bar_width}} {share * 100:5.1f}%  "
            f"{node.cum_ms:9.2f} ms  x{node.calls}{error}"
        )
    return "\n".join(lines)


def provenance_report(
    assessments: "Mapping[str, object]",
    title: str = "Provenance: why each metric came out this way",
) -> str:
    """Explain the four output metrics of every assessment, per scenario."""
    blocks = [title]
    for label, assessment in assessments.items():
        explanation = explain_assessment(assessment)
        indented = "\n".join(f"  {line}" for line in explanation.splitlines())
        blocks.append(f"[{label}]\n{indented}")
    return "\n\n".join(blocks)
