"""Live sweep progress: throttled stderr lines + machine heartbeats.

The engine reports sweep progress through the reporter installed in
the telemetry context (:mod:`repro.obs.telemetry`; a no-op
:data:`NULL_PROGRESS` by default).

A :class:`ProgressReporter` tracks one sweep at a time (``begin`` /
``advance`` / ``finish``) and emits two kinds of output, both
throttled to at most one emission per ``min_interval`` seconds (the
first and last emission of a sweep are never suppressed):

* a single-line human summary to ``stream`` (the CLI passes
  ``sys.stderr`` so machine-readable stdout stays pure) — tasks
  done/total, cache hits, failures, throughput and an ETA from a
  rolling window;
* a JSON heartbeat appended to the run ledger's ``progress.jsonl``
  (when a ledger is attached) and kept on ``latest``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import IO, Any, Callable, Deque, Dict, Optional, Tuple


class NullProgress:
    """The disabled reporter: every call is discarded."""

    enabled = False
    latest: "Optional[Dict[str, Any]]" = None

    def begin(self, total: int, label: str = "sweep") -> None:
        """Ignore the start of a sweep."""

    def advance(
        self, done: int = 0, cached: int = 0, retries: int = 0, failed: int = 0
    ) -> None:
        """Ignore progress."""

    def finish(self) -> None:
        """Ignore the end of a sweep."""


#: The process-wide default: progress reporting disabled.
NULL_PROGRESS = NullProgress()


class ProgressReporter:
    """Tracks one sweep's progress and emits throttled reports.

    Parameters
    ----------
    stream:
        Text stream for the human one-liner (None: no stream output).
        TTYs get ``\\r``-overwritten lines; files/pipes get one line
        per emission.
    ledger:
        An object with a ``heartbeat(record)`` method (the run
        ledger); every emission appends one JSON record there.
    min_interval:
        Seconds between emissions (first/last are always emitted).
    window_len:
        Number of recent ``advance`` samples the throughput/ETA
        rolling window keeps.
    clock / wall:
        Injectable monotonic and wall clocks for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        stream: "Optional[IO[str]]" = None,
        ledger: Optional[Any] = None,
        min_interval: float = 0.25,
        window_len: int = 64,
        clock: "Callable[[], float]" = time.monotonic,
        wall: "Callable[[], float]" = time.time,
    ):
        self.stream = stream
        self.ledger = ledger
        self.min_interval = min_interval
        self._clock = clock
        self._wall = wall
        self.latest: "Optional[Dict[str, Any]]" = None
        self.heartbeats = 0
        self.label = "sweep"
        self.total = 0
        self.done = 0
        self.cached = 0
        self.retries = 0
        self.failed = 0
        self._started = clock()
        self._last_emit: Optional[float] = None
        self._window: "Deque[Tuple[float, int]]" = deque(maxlen=window_len)
        self._line_open = False

    # -- sweep lifecycle ------------------------------------------------------

    def begin(self, total: int, label: str = "sweep") -> None:
        """Start (or restart) a sweep of ``total`` tasks."""
        self.label = label
        self.total = total
        self.done = self.cached = self.retries = self.failed = 0
        self._started = self._clock()
        self._last_emit = None
        self._window.clear()
        self._window.append((self._started, 0))
        self._emit(force=True)

    def advance(
        self, done: int = 0, cached: int = 0, retries: int = 0, failed: int = 0
    ) -> None:
        """Record progress; emits a report unless throttled."""
        self.done += done
        self.cached += cached
        self.retries += retries
        self.failed += failed
        if done:
            self._window.append((self._clock(), self.done))
        self._emit(force=self.total > 0 and self.done >= self.total)

    def finish(self) -> None:
        """Force a final emission and close an open TTY line."""
        self._emit(force=True)
        if self.stream is not None and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # -- internals ------------------------------------------------------------

    def _rate(self) -> float:
        """Tasks/second over the rolling window (0.0 when unknowable)."""
        if len(self._window) < 2:
            return 0.0
        (t0, done0), (t1, done1) = self._window[0], self._window[-1]
        if t1 <= t0 or done1 <= done0:
            return 0.0
        return (done1 - done0) / (t1 - t0)

    def _emit(self, force: bool = False) -> None:
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        rate = self._rate()
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if rate > 0 else None
        record: "Dict[str, Any]" = {
            "kind": "progress",
            "ts": self._wall(),
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "cached": self.cached,
            "retries": self.retries,
            "failed": self.failed,
            "elapsed_s": round(now - self._started, 6),
            "rate_per_s": round(rate, 6),
            "eta_s": None if eta is None else round(eta, 3),
        }
        self.latest = record
        self.heartbeats += 1
        if self.ledger is not None:
            self.ledger.heartbeat(record)
        if self.stream is not None:
            self._write_line(record)

    def _write_line(self, record: "Dict[str, Any]") -> None:
        assert self.stream is not None
        total = record["total"]
        percent = 100.0 * record["done"] / total if total else 100.0
        parts = [
            f"[{record['label']}] {record['done']}/{total} ({percent:.0f}%)",
            f"{record['cached']} cached",
        ]
        if record["retries"]:
            parts.append(f"{record['retries']} retries")
        if record["failed"]:
            parts.append(f"{record['failed']} failed")
        if record["rate_per_s"]:
            parts.append(f"{record['rate_per_s']:.1f}/s")
        if record["eta_s"] is not None:
            parts.append(f"eta {record['eta_s']:.0f}s")
        line = " · ".join(parts)
        try:
            tty = self.stream.isatty()
        except (AttributeError, ValueError):
            tty = False
        if tty:
            self.stream.write("\r\x1b[2K" + line)
            self._line_open = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

