"""A process-local metrics registry: counters and gauges.

Instruments are plain floats keyed by dotted names (``evaluate.calls``,
``recovery.plans``, ``engine.cache.hits``), created on first emission.
The process default, :data:`NULL_METRICS`, discards every emission, so
instrumented code costs a no-op method call when metrics are off;
callers opt in by installing a registry in the telemetry context
(:mod:`repro.obs.telemetry`).  Phase timings are not metrics: spans
time phases (:mod:`repro.obs.tracer`).

:class:`MetricsRegistry` is thread-safe: emission (:meth:`~MetricsRegistry.inc`,
:meth:`~MetricsRegistry.set_gauge`), :meth:`~MetricsRegistry.snapshot`,
:meth:`~MetricsRegistry.merge` and :meth:`~MetricsRegistry.reset` hold
one registry lock.  The disabled registry stays lock-free: its emission
helpers are pure no-ops.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class MetricsRegistry:
    """Holds every counter and gauge of one process (or one test).

    Emit through :meth:`inc` / :meth:`set_gauge` and read through
    :meth:`snapshot`; all four operations hold one registry lock, so
    concurrent workers can share a registry.
    """

    _counters: "Dict[str, float]" = field(default_factory=dict, init=False)
    _gauges: "Dict[str, float]" = field(default_factory=dict, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    enabled = True

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the named counter."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge; each set replaces the last."""
        with self._lock:
            self._gauges[name] = value

    def snapshot(self) -> "Dict[str, Any]":
        """A JSON-friendly copy of every instrument, names sorted.

        Both the run manifest's ``metrics`` field and the cross-process
        wire form: a worker's capture registry starts empty, so its
        counter values are *deltas* relative to the parent, ready for
        :meth:`merge` to sum.
        """
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
            }

    def merge(self, snapshot: "Dict[str, Any]") -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counter values are treated as deltas and summed; gauges are
        applied last-write-wins (callers merge capsules in submission
        order, so the surviving value matches a serial run).
        """
        with self._lock:
            counters = self._counters
            for name, delta in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0.0) + delta
            self._gauges.update(snapshot.get("gauges", {}))

    def reset(self) -> None:
        """Drop every instrument (tests call this between cases)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every emission is discarded."""

    enabled = False

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def merge(self, snapshot: "Dict[str, Any]") -> None:
        pass


#: The process-wide default: metrics disabled.
NULL_METRICS = NullMetricsRegistry()
