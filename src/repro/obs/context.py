"""Cross-process trace context and the worker telemetry capsule.

The process pool in :mod:`repro.engine.executor` runs tasks in child
processes, where the parent's tracer and metrics registry do not
exist: every span, counter and histogram sample recorded there would
be silently dropped.  This module closes that gap with three pieces:

* :class:`TraceContext` — the compact, picklable description of the
  parent's telemetry state that rides along with each dispatched task
  chunk: which instruments are live, and the parent tracer's clock at
  dispatch (so worker span times can be rebased onto the parent's
  timeline);
* :meth:`TraceContext.capture` / :class:`TelemetryCapsule` — the
  worker side.  The worker runs its chunk under
  ``use(ctx.capture())``, a fresh tracer/registry installed for the
  chunk alone, then :meth:`TelemetryCapsule.pack` turns everything
  that value recorded — span trees, metric deltas, the worker PID —
  into a capsule, which is returned to the parent alongside the
  chunk's results;
* :func:`merge_capsule` — the parent side: worker span roots are
  adopted under the currently open span (tagged with the worker's
  ``pid`` and rebased by the dispatch-time offset), counter deltas
  are summed into the parent registry, histogram buckets merged, and
  gauges applied in chunk order (which is submission order, so the
  final gauge value matches a serial run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .metrics import NULL_METRICS, MetricsRegistry
from .spans import PackedSpan, Span, pack_span, unpack_span
from .telemetry import Telemetry, current, get_metrics, get_tracer
from .tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class TraceContext:
    """What a dispatched task chunk needs to know about the parent's
    telemetry: whether to capture at all, and how to rebase it."""

    trace: bool = False
    metrics: bool = False

    #: The parent tracer's clock (seconds since its epoch) when the
    #: chunk was dispatched; worker spans are shifted by this offset on
    #: merge so they land at roughly the right place on the parent's
    #: timeline (durations are exact; only the alignment is approximate).
    base: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics

    def capture(self) -> Telemetry:
        """Fresh instruments for one worker chunk: a tracer and/or a
        registry where the parent has them live, the rest off."""
        return Telemetry(
            tracer=Tracer() if self.trace else NULL_TRACER,
            metrics=MetricsRegistry() if self.metrics else NULL_METRICS,
        )


def current_context() -> Optional[TraceContext]:
    """A :class:`TraceContext` describing the installed tracer/metrics,
    or None when both are disabled (workers then skip capture entirely)."""
    telemetry = current()
    tracer = telemetry.tracer
    if not tracer.enabled and not telemetry.metrics.enabled:
        return None
    base = tracer.now() if isinstance(tracer, Tracer) else 0.0
    return TraceContext(
        trace=tracer.enabled,
        metrics=telemetry.metrics.enabled,
        base=base,
    )


@dataclass
class TelemetryCapsule:
    """Everything one worker recorded while executing one task chunk.

    ``packed_spans`` are the worker tracer's root spans in the compact
    tuple form of :func:`~repro.obs.spans.pack_span` — pickling
    primitives keeps the per-chunk transport cost off the sweep's
    critical path.  Times stay relative to the worker's capture epoch
    until :func:`merge_capsule` rebases them.  ``metrics`` is the
    worker registry's full state — counter values are *deltas* because
    the capture registry starts empty.
    """

    pid: int
    base: float = 0.0
    packed_spans: "Tuple[PackedSpan, ...]" = ()
    metrics: "Optional[Dict[str, Any]]" = None
    span_count: int = 0

    @property
    def spans(self) -> "Tuple[Span, ...]":
        """The span trees rebuilt as :class:`Span` objects (unshifted)."""
        return tuple(unpack_span(packed) for packed in self.packed_spans)

    @classmethod
    def pack(cls, telemetry: Telemetry, base: float = 0.0) -> "TelemetryCapsule":
        """Pack what ``telemetry`` (a :meth:`TraceContext.capture`
        value) recorded; ``base`` is the context's dispatch offset."""
        roots = telemetry.tracer.roots
        return cls(
            pid=os.getpid(),
            base=base,
            packed_spans=tuple(pack_span(root) for root in roots),
            metrics=(
                telemetry.metrics.state() if telemetry.metrics.enabled else None
            ),
            span_count=sum(1 for root in roots for _ in root.walk()),
        )


def merge_capsule(
    capsule: TelemetryCapsule,
    tracer: "Optional[Tracer]" = None,
    metrics: "Optional[MetricsRegistry]" = None,
) -> None:
    """Fold one worker capsule into the parent's instruments.

    Span roots gain a ``pid`` attribute and are adopted under the
    currently open parent span; counter deltas are summed, histogram
    buckets merged, gauges applied last-write-wins.  Two bookkeeping
    counters record the merge itself: ``obs.capsules_merged`` and
    ``obs.worker_spans``.
    """
    target_tracer = tracer if tracer is not None else get_tracer()
    target_metrics = metrics if metrics is not None else get_metrics()
    if capsule.packed_spans:
        # Deferred adoption: the packed trees are anchored under the
        # open parent span now but only expanded into Span objects
        # when the trace is read (export time) — rebasing by the
        # dispatch offset and pid-stamping happen during that single
        # deferred walk, keeping the merge itself off the sweep's
        # critical path.
        target_tracer.adopt_packed(
            capsule.packed_spans, shift=capsule.base, pid=capsule.pid
        )
    if capsule.metrics:
        target_metrics.merge_state(capsule.metrics)
    if target_metrics.enabled:
        target_metrics.inc("obs.capsules_merged")
        if capsule.span_count:
            target_metrics.inc("obs.worker_spans", capsule.span_count)
