"""A process-local metrics registry: counters, gauges and histograms.

Instruments are created on first use and keyed by dotted names
(``evaluate.calls``, ``recovery.plan_ms``, ``sim.events_processed``).
The process default, :data:`NULL_METRICS`, discards every emission, so
instrumented code costs a no-op method call when metrics are off;
callers opt in by installing a registry in the telemetry context
(:mod:`repro.obs.telemetry`).

:class:`Histogram` keeps fixed log-spaced buckets alongside the exact
count/total/min/max, so p50/p90/p99 are estimable from any snapshot
without retaining observations, and the bucket layout is identical for
every histogram (what the OpenMetrics exporter relies on).

:class:`MetricsRegistry` is thread-safe: instrument creation and the
one-shot emission helpers (:meth:`~MetricsRegistry.inc`,
:meth:`~MetricsRegistry.set_gauge`, :meth:`~MetricsRegistry.observe`),
``snapshot`` and ``reset`` hold one registry lock.  The disabled
registry stays lock-free: its helpers are pure no-ops.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value; each set replaces the last."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


#: Shared log-spaced bucket upper bounds: four buckets per decade from
#: 1e-7 to 1e9 (values beyond the last bound land in an overflow
#: bucket).  Quarter-decade buckets bound the within-bucket percentile
#: interpolation error by a factor of 10**0.25 ~ 1.78 before min/max
#: clamping tightens it further.
BUCKET_BOUNDS: "Tuple[float, ...]" = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-28, 37)
)

#: The bucket index past the last bound (``le="+Inf"`` in exports).
OVERFLOW_BUCKET = len(BUCKET_BOUNDS)


@dataclass
class Histogram:
    """Observed-value summary: exact count/total/min/max plus fixed
    log-spaced buckets for percentile estimation.

    ``buckets`` maps an index into :data:`BUCKET_BOUNDS` (the bucket's
    upper bound; :data:`OVERFLOW_BUCKET` for values beyond the last
    bound) to the number of observations that landed there.  Only
    non-empty buckets are stored.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    buckets: "Dict[int, int]" = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = bisect_left(BUCKET_BOUNDS, value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Average of the observations (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Estimate the value at ``quantile`` (in [0, 1]) from buckets.

        Linear interpolation within the containing bucket, clamped to
        the exact observed min/max (so estimates never fall outside the
        observed range and single-observation histograms are exact).
        Returns 0.0 before the first observation.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile!r}")
        if not self.count or self.min is None or self.max is None:
            return 0.0
        target = quantile * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= target:
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < OVERFLOW_BUCKET
                    else self.max
                )
                fraction = (target - cumulative) / in_bucket
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def state(self) -> "Dict[str, Any]":
        """The histogram's complete, JSON/pickle-friendly state —
        unlike the snapshot summary, buckets are included, so another
        histogram can merge this one losslessly."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }

    def merge_state(self, state: "Dict[str, Any]") -> None:
        """Fold another histogram's :meth:`state` into this one.

        Counts, totals and buckets add; min/max widen.  Because every
        histogram shares the same fixed bucket layout, the merged
        buckets are exactly what one histogram observing both streams
        would hold — percentile estimates are preserved.
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(state.get("total", 0.0))
        other_min = state.get("min")
        if other_min is not None:
            self.min = other_min if self.min is None else min(self.min, other_min)
        other_max = state.get("max")
        if other_max is not None:
            self.max = other_max if self.max is None else max(self.max, other_max)
        for index, n in state.get("buckets", {}).items():
            key = int(index)
            self.buckets[key] = self.buckets.get(key, 0) + int(n)

    def merge(self, other: "Histogram") -> None:
        """Fold another live histogram into this one."""
        self.merge_state(other.state())

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        """Estimated 90th percentile."""
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.percentile(0.99)


@dataclass
class MetricsRegistry:
    """Holds every instrument of one process (or one test).

    Instrument creation, the one-shot emission helpers, ``snapshot``
    and ``reset`` are serialized on one registry lock, so concurrent
    workers can share a registry.  Mutating an instrument through a
    retained handle bypasses the lock — hot paths emit through the
    helpers instead.
    """

    counters: "Dict[str, Counter]" = field(default_factory=dict)
    gauges: "Dict[str, Gauge]" = field(default_factory=dict)
    histograms: "Dict[str, Histogram]" = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    enabled = True

    # -- instrument access (create on first use) ------------------------------

    @staticmethod
    def _instrument(table: "Dict[str, Any]", factory: "Callable[[str], Any]", name: str) -> Any:
        """Fetch-or-create without locking (callers hold the lock)."""
        try:
            return table[name]
        except KeyError:
            instrument = table[name] = factory(name)
            return instrument

    def counter(self, name: str) -> Counter:
        """The named counter, created at zero if new."""
        with self._lock:
            return self._instrument(self.counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created at zero if new."""
        with self._lock:
            return self._instrument(self.gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty if new."""
        with self._lock:
            return self._instrument(self.histograms, Histogram, name)

    # -- one-shot emission helpers (what the hot paths call) ------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the named counter."""
        with self._lock:
            self._instrument(self.counters, Counter, name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""
        with self._lock:
            self._instrument(self.gauges, Gauge, name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation on the named histogram."""
        with self._lock:
            self._instrument(self.histograms, Histogram, name).observe(value)

    # -- lifecycle ------------------------------------------------------------

    def snapshot(self) -> "Dict[str, Any]":
        """A JSON-friendly copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self.counters.items())},
                "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "mean": h.mean,
                        "min": h.min,
                        "max": h.max,
                        "p50": h.p50,
                        "p90": h.p90,
                        "p99": h.p99,
                    }
                    for name, h in sorted(self.histograms.items())
                },
            }

    def state(self) -> "Dict[str, Any]":
        """The registry's complete state, histogram buckets included.

        The cross-process wire form: a worker's capture registry
        starts empty, so its counter values are *deltas* relative to
        the parent, ready for :meth:`merge_state` to sum.
        """
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self.counters.items())},
                "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
                "histograms": {
                    name: h.state() for name, h in sorted(self.histograms.items())
                },
            }

    def merge_state(self, state: "Dict[str, Any]") -> None:
        """Fold another registry's :meth:`state` into this one.

        Counter values are treated as deltas and summed; gauges are
        applied last-write-wins (callers merge capsules in submission
        order, so the surviving value matches a serial run); histogram
        buckets merge losslessly.
        """
        with self._lock:
            for name, delta in state.get("counters", {}).items():
                self._instrument(self.counters, Counter, name).inc(delta)
            for name, value in state.get("gauges", {}).items():
                self._instrument(self.gauges, Gauge, name).set(value)
            for name, histogram_state in state.get("histograms", {}).items():
                self._instrument(self.histograms, Histogram, name).merge_state(
                    histogram_state
                )

    def reset(self) -> None:
        """Drop every instrument (tests call this between cases)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every emission is discarded.

    Instrument accessors still hand out (unregistered) instruments so
    code holding a reference keeps working; the one-shot helpers are
    pure no-ops.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        return Counter(name)

    def gauge(self, name: str) -> Gauge:
        return Gauge(name)

    def histogram(self, name: str) -> Histogram:
        return Histogram(name)

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_state(self, state: "Dict[str, Any]") -> None:
        pass


#: The process-wide default: metrics disabled.
NULL_METRICS = NullMetricsRegistry()
