"""The span tree node: one timed operation with attributes and children.

Spans form a tree per traced request (the :class:`~repro.obs.tracer.Tracer`
holds the roots).  Times are seconds relative to the owning tracer's
epoch, taken from a monotonic clock, so durations are meaningful even
when the wall clock steps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from types import TracebackType

    from .tracer import Tracer

# The run diff's defaults (:func:`repro.obs.diff.diff_runs`), kept here
# so the CLI's parser can show them without importing the observatory.
#: A span must slow down by more than this many milliseconds ...
DEFAULT_ABS_THRESHOLD_MS = 5.0
#: ... *and* by more than this fraction of its baseline to regress.
DEFAULT_REL_THRESHOLD = 0.25
#: A child must explain at least this fraction of its parent's delta
#: for the attribution walk to descend into it.
DEFAULT_EXPLAIN_FRACTION = 0.5

#: The compact tuple form of one span subtree (see :func:`pack_span`).
PackedSpan = Tuple[
    str,
    float,
    Optional[float],
    Optional[Dict[str, Any]],
    str,
    Optional[str],
    Optional[str],
    tuple,
]


class Span:
    """One timed operation in a trace tree.

    A span is its own context manager: :meth:`~repro.obs.tracer.Tracer.span`
    constructs it bound to the tracer, ``__enter__`` stamps the start
    time and pushes it onto the tracer's open-span stack, ``__exit__``
    stamps the end (recording the exception, if any) and pops it.
    Fusing the handle and the record into one hand-rolled slotted class
    saves an allocation and two delegating calls per span — spans are
    the highest-volume telemetry object (hundreds per sweep), so
    enter/exit IS the tracing hot path.

    Spans rebuilt from the packed wire form (or constructed directly)
    have no tracer binding and must not be used as context managers.
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "children",
        "status",
        "error_type",
        "error_message",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        end: Optional[float] = None,
        attributes: "Optional[Dict[str, Any]]" = None,
        children: "Optional[List[Span]]" = None,
        status: str = "ok",
        error_type: Optional[str] = None,
        error_message: Optional[str] = None,
        tracer: "Optional[Tracer]" = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        self.status = status
        self.error_type = error_type
        self.error_message = error_message
        self._tracer = tracer

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, start={self.start!r}, end={self.end!r}, "
            f"status={self.status!r}, children={len(self.children)})"
        )

    def __enter__(self) -> "Span":
        tracer = self._tracer
        assert tracer is not None, "span is not bound to a tracer"
        self.start = tracer._clock() - tracer._epoch
        stack = tracer._stack
        (stack[-1].children if stack else tracer.roots).append(self)
        stack.append(self)
        return self

    def __exit__(
        self,
        exc_type: "Optional[type]",
        exc: Optional[BaseException],
        _tb: "Optional[TracebackType]",
    ) -> bool:
        tracer = self._tracer
        assert tracer is not None, "span is not bound to a tracer"
        self.end = tracer._clock() - tracer._epoch
        if exc is not None:
            self.status = "error"
            self.error_type = type(exc).__name__
            self.error_message = str(exc)
            self.attributes.setdefault("error", repr(exc))
        # Tolerate mis-nested exits (e.g. a generator closed late) by
        # unwinding to the span being closed instead of corrupting the
        # stack for every subsequent span.
        stack = tracer._stack
        while stack:
            if stack.pop() is self:
                break
        return False

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    @property
    def failed(self) -> bool:
        """Whether the span was exited by an exception."""
        return self.status == "error"

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def duration_ms(self) -> float:
        """Milliseconds from start to end (0.0 while still open)."""
        return self.duration * 1e3

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self, depth: int = 0) -> "Iterator[Tuple[Span, int]]":
        """Depth-first iteration of this span and its descendants."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self, parent: Optional[str] = None, depth: int = 0) -> "Dict[str, Any]":
        """A flat JSON-friendly record (children are *not* embedded).

        ``status`` distinguishes errored spans from completed ones;
        failed spans additionally carry ``error_type`` and
        ``error_message``.
        """
        record = {
            "name": self.name,
            "parent": parent,
            "depth": depth,
            "start_ms": round(self.start * 1e3, 6),
            "end_ms": None if self.end is None else round(self.end * 1e3, 6),
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
            "attributes": dict(self.attributes),
        }
        if self.failed:
            record["error_type"] = self.error_type
            record["error_message"] = self.error_message
        return record


def pack_span(span: Span) -> PackedSpan:
    """The span subtree as nested tuples of primitives.

    The telemetry capsule ships worker spans in this form: pickling
    pure tuples/dicts of primitives runs entirely in C, several times
    faster than reducing the dataclass objects — and the capsule
    crossing the process boundary per chunk is the fabric's hottest
    serialization path.
    """
    return (
        span.name,
        span.start,
        span.end,
        span.attributes or None,
        span.status,
        span.error_type,
        span.error_message,
        tuple(pack_span(child) for child in span.children),
    )


def unpack_span(packed: PackedSpan, shift: float = 0.0) -> Span:
    """Rebuild a :func:`pack_span` subtree, shifting times by ``shift``
    (the rebase onto the adopting tracer's epoch)."""
    name, start, end, attributes, status, error_type, error_message, kids = packed
    return Span(
        name=name,
        start=start + shift,
        end=None if end is None else end + shift,
        attributes=dict(attributes) if attributes else {},
        children=[unpack_span(kid, shift) for kid in kids],
        status=status,
        error_type=error_type,
        error_message=error_message,
    )
