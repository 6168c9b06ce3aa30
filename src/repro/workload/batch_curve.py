"""The batch update rate curve: ``batchUpdR(win)`` from the paper's Table 1.

Data protection techniques that propagate *batches* of updates (batched
asynchronous mirroring, incremental backup, split-mirror resilvering)
only need to move the **unique** bytes updated within their accumulation
window: overwrites of the same block coalesce.  The batch update rate for
a window ``w`` is the number of unique bytes updated in a window of
length ``w``, divided by ``w``.  Because overwrites coalesce more as the
window grows, the *rate* is non-increasing in the window length while
the unique *byte count* is non-decreasing.

Workload measurement yields the rate at a handful of sample windows (the
paper's Table 2 samples 1 min, 12 h, 24 h, 48 h and 1 week).  Policies,
however, need the rate at arbitrary windows (e.g. the split-mirror
resilver window of five accumulation windows = 60 h).
:class:`BatchUpdateCurve` interpolates the unique-byte count linearly
between sample windows, which preserves both monotonicity properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple, Union

from ..exceptions import WorkloadError
from ..units import parse_duration, parse_rate


def _normalize_points(
    points: Mapping[Union[str, float], Union[str, float]],
) -> "Tuple[Tuple[float, float], ...]":
    """Convert a ``{window: rate}`` mapping into sorted (window, rate) pairs."""
    normalized: "List[Tuple[float, float]]" = []
    for window, rate in points.items():
        window_s = parse_duration(window)
        rate_bps = parse_rate(rate)
        if window_s <= 0:
            raise WorkloadError(f"batch curve window must be positive, got {window!r}")
        if rate_bps < 0:
            raise WorkloadError(f"batch update rate must be >= 0, got {rate!r}")
        normalized.append((window_s, rate_bps))
    normalized.sort()
    windows = [w for w, _ in normalized]
    if len(set(windows)) != len(windows):
        raise WorkloadError("batch curve contains duplicate windows")
    return tuple(normalized)


@dataclass(frozen=True)
class BatchUpdateCurve:
    """Unique update rate as a function of the accumulation window.

    Parameters
    ----------
    points:
        Mapping from window length to measured unique update rate within
        that window.  Keys and values may be numbers (seconds, bytes/s)
        or strings in the paper's vocabulary (``"12 hr"``, ``"350 KB/s"``).
    short_window_rate:
        The unique update rate for windows shorter than the smallest
        sample.  For a vanishingly small window no overwrite coalescing
        is possible, so this is typically the average update rate.  If
        omitted, the rate of the smallest sample window is used.

    Examples
    --------
    >>> curve = BatchUpdateCurve({"1 min": "727 KB/s", "12 hr": "350 KB/s"})
    >>> curve.rate("12 hr") == 350 * 1024
    True
    """

    points: "Tuple[Tuple[float, float], ...]"
    short_window_rate: float = field(default=0.0)

    def __init__(
        self,
        points: Mapping[Union[str, float], Union[str, float]],
        short_window_rate: Union[str, float, None] = None,
    ) -> None:
        normalized = _normalize_points(points)
        if not normalized:
            raise WorkloadError("batch curve requires at least one sample point")
        if short_window_rate is None:
            short_rate = normalized[0][1]
        else:
            short_rate = parse_rate(short_window_rate)
        if short_rate < normalized[0][1]:
            raise WorkloadError(
                "short_window_rate must be at least the rate of the smallest "
                "sample window (rates are non-increasing in the window)"
            )
        object.__setattr__(self, "points", self._monotone(normalized))
        object.__setattr__(self, "short_window_rate", short_rate)

    @staticmethod
    def _monotone(
        points: "Tuple[Tuple[float, float], ...]",
    ) -> "Tuple[Tuple[float, float], ...]":
        """Check that unique bytes are non-decreasing and the rate is
        non-increasing; return the points with rounding noise removed.

        Decreases in unique bytes within the 1e-12 relative tolerance
        are float rounding of a flat curve (e.g. rates computed as
        ``bytes / window``).  Such a rate is raised to the smallest float
        whose ``window * rate`` does not fall, so the curve's unique
        bytes are exactly non-decreasing in floats, as interpolation
        needs.
        """
        result = [points[0]]
        previous_window, previous_rate = points[0]
        for window, rate in points[1:]:
            if rate > previous_rate * (1 + 1e-12):
                raise WorkloadError(
                    "batch update rate must be non-increasing in the window: "
                    f"rate at {window}s ({rate} B/s) exceeds rate at "
                    f"{previous_window}s ({previous_rate} B/s)"
                )
            previous_bytes = previous_window * previous_rate
            if window * rate < previous_bytes * (1 - 1e-12):
                raise WorkloadError(
                    "unique updated bytes must be non-decreasing in the window: "
                    f"{window}s gives fewer unique bytes than {previous_window}s"
                )
            if window * rate < previous_bytes:
                rate = previous_bytes / window
                while window * rate < previous_bytes:
                    rate = math.nextafter(rate, math.inf)
            result.append((window, rate))
            previous_window, previous_rate = window, rate
        return tuple(result)

    # -- queries ------------------------------------------------------------

    def unique_bytes(self, window: Union[str, float]) -> float:
        """Unique bytes updated during a window of the given length.

        Linear interpolation in the (window, unique-bytes) domain between
        samples; linear in the short-window rate below the smallest
        sample; constant-rate extrapolation beyond the largest sample.
        """
        window_s = parse_duration(window)
        if window_s < 0:
            raise WorkloadError(f"window must be >= 0, got {window!r}")
        if window_s == 0:
            return 0.0
        smallest_window, smallest_rate = self.points[0]
        if window_s <= smallest_window:
            # Blend between "no coalescing" (short_window_rate) at window 0
            # and the measured smallest sample, staying monotonic.
            return min(
                self.short_window_rate * window_s,
                smallest_window * smallest_rate,
            )
        largest_window, largest_rate = self.points[-1]
        if window_s >= largest_window:
            # Beyond measurements: the working set has been fully covered,
            # so unique bytes keep accruing at the largest-window rate.
            return largest_rate * window_s
        for (w_lo, r_lo), (w_hi, r_hi) in zip(self.points, self.points[1:]):
            if w_lo <= window_s <= w_hi:
                bytes_lo = w_lo * r_lo
                bytes_hi = w_hi * r_hi
                fraction = (window_s - w_lo) / (w_hi - w_lo)
                return bytes_lo + fraction * (bytes_hi - bytes_lo)
        raise AssertionError("unreachable: window within sampled range not found")

    def rate(self, window: Union[str, float]) -> float:
        """Unique update rate (bytes/s) for the given window length."""
        window_s = parse_duration(window)
        if window_s <= 0:
            return self.short_window_rate
        return self.unique_bytes(window_s) / window_s

    # -- convenience --------------------------------------------------------

    def sample_windows(self) -> "Tuple[float, ...]":
        """The measured window lengths, ascending, in seconds."""
        return tuple(window for window, _ in self.points)

    def as_dict(self) -> "Dict[float, float]":
        """The curve's sample points as ``{window_seconds: rate_bps}``."""
        return dict(self.points)

    def scaled(self, factor: float) -> "BatchUpdateCurve":
        """A new curve with every rate multiplied by ``factor``.

        Useful for what-if scenarios that scale the update intensity of a
        measured workload without re-measuring it.
        """
        if factor < 0:
            raise WorkloadError(f"scale factor must be >= 0, got {factor}")
        return BatchUpdateCurve(
            {window: rate * factor for window, rate in self.points},
            short_window_rate=self.short_window_rate * factor,
        )

    def __iter__(self) -> "Iterator[Tuple[float, float]]":
        return iter(self.points)
