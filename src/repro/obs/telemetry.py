"""The one telemetry context: tracer, metrics, progress and task log.

Instrumented code never constructs instruments; it reads the current
ones from a single process-global :class:`Telemetry` value::

    tracer = get_tracer()
    with tracer.span("recovery.plan", scenario=label) as span:
        ...
        span.set(steps=len(steps))

and callers opt in by installing a value for the duration of a block::

    with use(Telemetry(tracer=Tracer(), metrics=MetricsRegistry())):
        ...

The default value is all off: the null tracer, registry and progress
reporter discard everything, so instrumented code stays branch-free
and pays one attribute read per fetch when telemetry is disabled.  A
``task_log`` of None means no per-task records are kept.

The slot is a plain module global, not a context variable: no code
runs instrumented work on a second thread, and worker processes
install their own value around each task chunk
(:mod:`repro.engine.executor`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from .metrics import NULL_METRICS, MetricsRegistry
from .progress import NULL_PROGRESS, NullProgress, ProgressReporter
from .tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from .runs import TaskLog


@dataclass(frozen=True)
class Telemetry:
    """The live instruments of one block of work (defaults: all off)."""

    tracer: "NullTracer | Tracer" = NULL_TRACER
    # A factory only because registries are unhashable dataclasses.
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    progress: "NullProgress | ProgressReporter" = NULL_PROGRESS
    task_log: "Optional[TaskLog]" = None


_CURRENT = Telemetry()


def current() -> Telemetry:
    """The installed telemetry (all off unless a caller installed some)."""
    return _CURRENT


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` for a ``with`` block, then restore the
    previous value (also when the block raises)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous


def reset() -> None:
    """Restore the all-off default."""
    global _CURRENT
    _CURRENT = Telemetry()


def get_tracer() -> "NullTracer | Tracer":
    """The current tracer (the null tracer unless installed)."""
    return _CURRENT.tracer


def get_metrics() -> MetricsRegistry:
    """The current metrics registry (the null registry unless installed)."""
    return _CURRENT.metrics
