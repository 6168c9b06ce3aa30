"""Structured tracing: nested spans with wall-clock timings.

Two tracers exist:

* :class:`Tracer` records a tree of :class:`~repro.obs.spans.Span`
  objects per top-level operation (``tracer.roots``);
* :class:`NullTracer` (the process default, :data:`NULL_TRACER`)
  records nothing — its :meth:`~NullTracer.span` hands back one shared
  context manager whose enter/exit are empty, so instrumented code pays
  essentially a single attribute check when tracing is disabled.

Instrumented code never constructs tracers; it fetches the current
one from the telemetry context (:func:`repro.obs.telemetry.get_tracer`),
and callers opt in by installing a real tracer there.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from .spans import Span, unpack_span


class _NullSpan:
    """The shared do-nothing span handle of the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        """Discard attributes; returns self for chaining."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span is the shared no-op handle."""

    enabled = False

    def span(self, name: str, /, **attributes: Any) -> _NullSpan:
        """A context manager that records nothing."""
        return _NULL_SPAN

    @property
    def roots(self) -> "Tuple[Span, ...]":
        """Always empty."""
        return ()

    def walk(self) -> "Iterator[Tuple[Span, int]]":
        """Always empty."""
        return iter(())

    def adopt(self, spans: "Iterable[Span]", shift: float = 0.0) -> None:
        """Discard externally-recorded spans."""

    def adopt_packed(
        self,
        packed_roots: "Iterable[tuple]",
        shift: float = 0.0,
        pid: Optional[int] = None,
    ) -> None:
        """Discard externally-recorded packed span trees."""

    def clear(self) -> None:
        """Nothing to clear."""


#: The process-wide default: tracing disabled.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects trees of timed spans.

    Parameters
    ----------
    clock:
        A monotonic float-second clock, injectable for deterministic
        tests.  Defaults to :func:`time.perf_counter`.  All span times
        are relative to the tracer's construction (its *epoch*).
    """

    enabled = True

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._roots: "List[Span]" = []
        self._stack: "List[Span]" = []
        # Packed span forests adopted but not yet expanded: tuples of
        # (packed_roots, shift, pid, anchor span or None for the root
        # level).  See :meth:`adopt_packed`.
        self._pending: "List[Tuple[tuple, float, Optional[int], Optional[Span]]]" = []

    @property
    def roots(self) -> "List[Span]":
        """The recorded top-level spans (pending adoptions expanded)."""
        if self._pending:
            self._materialize()
        return self._roots

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._epoch

    def span(self, name: str, /, **attributes: Any) -> Span:
        """A context manager recording one nested, timed span.

        The returned :class:`Span` is bound to this tracer and records
        itself on ``with``-entry; the kwargs dict is fresh per call, so
        the span owns it outright (no defensive copy on the hot path).
        """
        return Span(name, attributes=attributes, tracer=self)

    def adopt(self, spans: "Iterable[Span]", shift: float = 0.0) -> None:
        """Attach externally-recorded span trees to this tracer.

        The roots become children of the currently open span (or new
        roots when no span is open) — how a worker's telemetry capsule
        lands under the parent's ``engine.map`` span.  ``shift`` is
        added to every start/end time so spans recorded against a
        different epoch (a worker tracer's) line up with this tracer's
        timeline.
        """
        if self._pending:
            self._materialize()
        target = self._stack[-1].children if self._stack else self._roots
        for span in spans:
            if shift:
                span.shift(shift)
            target.append(span)

    def adopt_packed(
        self,
        packed_roots: "Iterable[tuple]",
        shift: float = 0.0,
        pid: Optional[int] = None,
    ) -> None:
        """Adopt packed span trees (see :func:`~repro.obs.spans.pack_span`)
        without expanding them yet.

        The expansion into :class:`Span` objects — hundreds of
        allocations per worker capsule — is deferred until the spans
        are actually read (:attr:`roots` / :meth:`walk`), which for a
        sweep means export time, not the sweep's critical path.  The
        currently open span is captured as the anchor so deferred
        trees still land exactly where an eager :meth:`adopt` would
        have put them; ``pid`` is stamped on each expanded root.
        """
        self._pending.append(
            (tuple(packed_roots), shift, pid, self._stack[-1] if self._stack else None)
        )

    def _materialize(self) -> None:
        """Expand every pending packed forest under its anchor, in
        adoption order."""
        pending, self._pending = self._pending, []
        for packed_roots, shift, pid, anchor in pending:
            target = anchor.children if anchor is not None else self._roots
            for packed in packed_roots:
                root = unpack_span(packed, shift)
                if pid is not None:
                    root.attributes.setdefault("pid", pid)
                target.append(root)

    def walk(self) -> "Iterator[Tuple[Span, int]]":
        """Depth-first iteration over every recorded span with its depth."""
        for root in self.roots:
            yield from root.walk()

    def clear(self) -> None:
        """Drop all recorded spans (open spans are abandoned)."""
        self._roots.clear()
        self._stack.clear()
        self._pending.clear()

