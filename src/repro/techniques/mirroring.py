"""Inter-array mirroring: synchronous, asynchronous and batched async.

All three variants keep an isolated copy of the current data on another
disk array (co-located or remote) and place bandwidth demands on the
interconnect and the destination array, plus a full-dataset capacity
demand on the destination (paper section 3.2.3).  They differ in *when*
updates propagate, which changes both the interconnect demand and the
worst-case data loss:

* **synchronous** — every update is applied at the secondary before the
  write completes.  The interconnect must sustain the *peak* update rate
  (``avgUpdateR * burstM``); data loss on failover is zero.
* **asynchronous** — updates propagate in the background, smoothing
  bursts through a small buffer: the interconnect sustains the *average*
  (non-unique) update rate; a short write-behind lag of buffered updates
  can be lost.
* **batched asynchronous** — overwrites within an accumulation window
  coalesce and each batch is applied atomically: the interconnect
  sustains only the *unique* update rate of the window
  (``batchUpdR(accW)``), at the price of losing up to a window plus its
  propagation time (the case study's 1-minute batches lose at most
  ~2 minutes).

Per the paper, inter-array mirroring uses the array's dedicated
replication interfaces, so no extra bandwidth demand lands on the
*source* array's client interface; and the asynchronous variants' small
staging buffers are not modeled ("typically a small fraction of the
array cache").
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..devices.base import Device, Placement
from ..exceptions import NoCycleError, PolicyError
from ..units import parse_duration
from ..workload.spec import Workload
from .base import CopyRepresentation, ProtectionTechnique, check_windows
from .facts import TechniqueFacts
from .timeline import CycleModel


class _InterArrayMirror(ProtectionTechnique):
    """Shared demand plumbing for the three mirroring protocols."""

    copy_representation = CopyRepresentation.FULL

    def interconnect_demand(self, workload: Workload) -> float:
        """Bandwidth the mirror needs from the interconnect, bytes/s."""
        raise NotImplementedError

    def average_propagation_rate(self, workload: Workload) -> float:
        """Every (possibly coalesced) update eventually crosses the link.

        Synchronous and plain asynchronous mirrors move the raw update
        stream (average ``avgUpdateR``); the batched variant moves only
        the unique bytes of each window.
        """
        return workload.avg_update_rate

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Interconnect + destination-array bandwidth, full-copy capacity."""
        bandwidth = self.interconnect_demand(workload)
        placements = [
            self.place(store, bandwidth=bandwidth, capacity=workload.data_capacity)
        ]
        if transport is not None:
            placements.append(self.place(transport, bandwidth=bandwidth))
        return placements


class SyncMirror(_InterArrayMirror):
    """Synchronous inter-array mirroring: zero data loss, peak-rate links.

    Parameters
    ----------
    name:
        Technique label.

    Notes
    -----
    The mirror holds exactly the current state: it has no historical
    retention, so it can only serve recoveries targeting "now".
    """

    def __init__(self, name: str = "sync mirror"):
        super().__init__(name)

    def cycle(self) -> CycleModel:
        raise NoCycleError(
            "synchronous mirrors propagate continuously and have no RP cycle"
        )

    def worst_lag(self) -> float:
        """Every write is applied remotely before completing: no lag."""
        return 0.0

    def worst_spacing(self) -> float:
        return 0.0

    def retention_span(self) -> float:
        """The mirror holds only the current state."""
        return 0.0

    def full_availability_delay(self) -> float:
        return 0.0

    def retention_window(self) -> float:
        return 0.0

    def interconnect_demand(self, workload: Workload) -> float:
        """Synchronous writes cannot be smoothed: provision for the peak."""
        return workload.peak_update_rate

    def describe(self) -> str:
        return f"{self.name}: synchronous inter-array mirror"


class AsyncMirror(_InterArrayMirror):
    """Asynchronous write-behind mirroring.

    Parameters
    ----------
    write_behind_lag:
        Worst-case age of buffered-but-unsent updates (the write-behind
        queue drain time); these updates are lost on a primary failure.
    """

    def __init__(
        self,
        write_behind_lag: Union[str, float] = "30 s",
        name: str = "async mirror",
    ):
        super().__init__(name)
        lag = parse_duration(write_behind_lag)
        if lag < 0:
            raise PolicyError(f"{name}: write-behind lag must be >= 0")
        self.write_behind_lag = lag

    def cycle(self) -> CycleModel:
        raise NoCycleError(
            "asynchronous mirrors propagate continuously and have no RP cycle"
        )

    def worst_lag(self) -> float:
        """Up to one write-behind queue of updates can be in flight."""
        return self.write_behind_lag

    def worst_spacing(self) -> float:
        return 0.0

    def retention_span(self) -> float:
        """The mirror holds only the (slightly stale) current state."""
        return 0.0

    def full_availability_delay(self) -> float:
        return self.write_behind_lag

    def retention_window(self) -> float:
        return 0.0

    def interconnect_demand(self, workload: Workload) -> float:
        """Buffering smooths bursts: provision for the average rate."""
        return workload.avg_update_rate

    def describe(self) -> str:
        return (
            f"{self.name}: asynchronous mirror, "
            f"<= {self.write_behind_lag:g} s behind"
        )


class BatchedAsyncMirror(_InterArrayMirror):
    """Batched asynchronous mirroring (Seneca / SnapMirror style).

    Parameters
    ----------
    accumulation_window:
        Batch collection window (``accW``; 1 minute in Table 7).
    propagation_window:
        Time to transmit a batch (``propW``); defaults to the
        accumulation window (back-to-back batches).
    hold_window:
        Delay between closing a batch and sending it (``holdW``).
    retention_count:
        Batches retained at the secondary; the current image plus any
        not-yet-applied batch, so 1 by default.
    """

    propagation_representation = CopyRepresentation.PARTIAL

    def __init__(
        self,
        accumulation_window: Union[str, float] = "1 min",
        propagation_window: Union[str, float, None] = None,
        hold_window: Union[str, float] = 0.0,
        retention_count: int = 1,
        name: str = "asyncB mirror",
    ):
        super().__init__(name)
        prop = accumulation_window if propagation_window is None else propagation_window
        acc, prop_s, hold, ret = check_windows(
            name, accumulation_window, prop, hold_window, retention_count
        )
        self.accumulation_window = acc
        self.propagation_window = prop_s
        self.hold_window = hold
        self.retention_count = ret

    def cycle(self) -> CycleModel:
        return CycleModel.single(
            accumulation_window=self.accumulation_window,
            hold_window=self.hold_window,
            propagation_window=self.propagation_window,
            retention_count=self.retention_count,
            label="batch",
        )

    def interconnect_demand(self, workload: Workload) -> float:
        """A batch of unique updates must cross within one propagation window."""
        return (
            workload.unique_bytes(self.accumulation_window)
            / self.propagation_window
        )

    def average_propagation_rate(self, workload: Workload) -> float:
        """Coalescing: only each window's unique bytes cross the link."""
        return (
            workload.unique_bytes(self.accumulation_window)
            / self.accumulation_window
        )

    def describe(self) -> str:
        return (
            f"{self.name}: batched async mirror, "
            f"{self.accumulation_window:g}s batches"
        )
