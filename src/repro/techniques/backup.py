"""Backup: copying RPs to separate hardware (tape library, disk, optical).

A backup policy cycles through propagation representations: a *full*
backup optionally followed by ``cycleCnt`` *incrementals*, which may be
**cumulative** (all changes since the last full — each one larger than
the previous, but restores need only the full plus the newest
incremental) or **differential** (changes since the last backup of any
kind — small and uniform, but restores must replay the whole chain).

Demands (paper section 3.2.3):

* **bandwidth** (on both the source array and the backup device): the
  larger of what the full requires (the entire dataset within the full
  propagation window) and what the largest incremental requires;
* **capacity** (backup device only): ``retCnt`` cycles of retained data
  — each cycle a full plus its incrementals — plus one additional full
  dataset copy, so a failure mid-full-backup never leaves the system
  without a complete restorable cycle.  The backup model places *no*
  capacity demand on the source array: a PiT technique (split mirror or
  snapshot) is assumed to provide the consistent image being backed up.

Worst-case restores transfer the full plus (for cumulative cycles) the
largest incremental, or (for differential cycles) the entire chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

from ..devices.base import Device, Placement
from ..exceptions import PolicyError
from ..units import DAY, parse_duration
from ..workload.spec import Workload
from .base import CopyRepresentation, ProtectionTechnique, check_windows
from .facts import TechniqueFacts
from .timeline import CycleModel, RPEvent


class IncrementalKind(enum.Enum):
    """How an incremental backup accumulates changes."""

    CUMULATIVE = "cumulative"
    DIFFERENTIAL = "differential"


@dataclass(frozen=True)
class IncrementalPolicy:
    """The incremental half of a backup cycle.

    Parameters
    ----------
    kind:
        Cumulative or differential accumulation.
    count:
        Number of incrementals per cycle (``cycleCnt``).
    accumulation_window:
        Spacing between incrementals (24 h for daily incrementals).
    propagation_window / hold_window:
        Transmission duration and pre-transmission delay per incremental.
    """

    kind: IncrementalKind
    count: int
    accumulation_window: float
    propagation_window: float
    hold_window: float = 0.0

    def __init__(
        self,
        kind: IncrementalKind,
        count: int,
        accumulation_window: Union[str, float],
        propagation_window: Union[str, float],
        hold_window: Union[str, float] = 0.0,
    ):
        if not isinstance(kind, IncrementalKind):
            raise PolicyError(f"kind must be an IncrementalKind, got {kind!r}")
        if count < 1:
            raise PolicyError(f"incremental count must be >= 1, got {count}")
        acc, prop, hold, _ = check_windows(
            "incremental", accumulation_window, propagation_window, hold_window, 1
        )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "count", int(count))
        object.__setattr__(self, "accumulation_window", acc)
        object.__setattr__(self, "propagation_window", prop)
        object.__setattr__(self, "hold_window", hold)

    @classmethod
    def daily_cumulative(
        cls,
        count: int = 5,
        propagation_window: Union[str, float] = "12 hr",
        hold_window: Union[str, float] = "1 hr",
    ) -> "IncrementalPolicy":
        """Daily cumulative incrementals (Table 7's "F+I" policy shape)."""
        return cls(
            kind=IncrementalKind.CUMULATIVE,
            count=count,
            accumulation_window="24 hr",
            propagation_window=propagation_window,
            hold_window=hold_window,
        )


class Backup(ProtectionTechnique):
    """A cyclic backup policy: fulls, optionally interleaved incrementals.

    Parameters
    ----------
    full_accumulation_window:
        Gap between the last RP of a cycle and the full's snapshot
        (``accW`` for fulls).  For a full-only policy this is simply the
        spacing between fulls and equals the cycle period.
    full_propagation_window / full_hold_window:
        The full backup's transmission window (the classic "backup
        window") and pre-transmission offset.
    retention_count:
        Number of retained *cycles* (``retCnt``).
    incremental:
        Optional :class:`IncrementalPolicy`; when present the cycle
        period becomes ``count * incr.accW + full.accW``.
    """

    copy_representation = CopyRepresentation.FULL
    propagation_representation = CopyRepresentation.FULL

    def __init__(
        self,
        full_accumulation_window: Union[str, float],
        full_propagation_window: Union[str, float],
        full_hold_window: Union[str, float] = 0.0,
        retention_count: int = 1,
        incremental: Optional[IncrementalPolicy] = None,
        name: str = "backup",
    ):
        super().__init__(name)
        acc, prop, hold, ret = check_windows(
            name,
            full_accumulation_window,
            full_propagation_window,
            full_hold_window,
            retention_count,
        )
        self.full_accumulation_window = acc
        self.full_propagation_window = prop
        self.full_hold_window = hold
        self.retention_count = ret
        self.incremental = incremental

    # -- cycle structure --------------------------------------------------------------

    @property
    def cycle_period(self) -> float:
        """``cyclePer``: incrementals' spacings plus the full's window."""
        if self.incremental is None:
            return self.full_accumulation_window
        return (
            self.incremental.count * self.incremental.accumulation_window
            + self.full_accumulation_window
        )

    @property
    def cycle_count(self) -> int:
        """``cycleCnt``: number of secondary (incremental) windows."""
        return 0 if self.incremental is None else self.incremental.count

    def cycle(self) -> CycleModel:
        """Full at cycle offset 0; incrementals follow after the full's window.

        The full's accumulation window is the RP-free stretch right after
        its snapshot (the weekend, for the classic weekend-full policy);
        the incrementals then arrive at their own spacing, and the next
        full snapshots one incremental-window after the last incremental.
        This is the layout under which the paper's Table 7 "F+I" row
        loses at most ``accW_incr + holdW + propW_full`` (73 h).
        """
        events: "List[RPEvent]" = [
            RPEvent(
                offset=0.0,
                hold=self.full_hold_window,
                prop=self.full_propagation_window,
                is_full=True,
                label="full",
            )
        ]
        if self.incremental is not None:
            for index in range(self.incremental.count):
                events.append(
                    RPEvent(
                        offset=self.full_accumulation_window
                        + index * self.incremental.accumulation_window,
                        hold=self.incremental.hold_window,
                        prop=self.incremental.propagation_window,
                        is_full=False,
                        label=f"incr-{index + 1}",
                    )
                )
        return CycleModel(
            period=self.cycle_period,
            events=events,
            retention_count=self.retention_count,
        )

    # -- sizes --------------------------------------------------------------------------

    def incremental_size(self, workload: Workload, index: int) -> float:
        """Bytes in the ``index``-th (1-based) incremental of a cycle."""
        if self.incremental is None or index < 1:
            return 0.0
        if self.incremental.kind is IncrementalKind.CUMULATIVE:
            window = index * self.incremental.accumulation_window
        else:
            window = self.incremental.accumulation_window
        return workload.unique_bytes(window)

    def largest_incremental_size(self, workload: Workload) -> float:
        """The biggest incremental of the cycle (the last cumulative one)."""
        if self.incremental is None:
            return 0.0
        return max(
            self.incremental_size(workload, index)
            for index in range(1, self.incremental.count + 1)
        )

    def cycle_bytes(self, workload: Workload) -> float:
        """Retained bytes per cycle: one full plus all its incrementals."""
        total = workload.data_capacity
        for index in range(1, self.cycle_count + 1):
            total += self.incremental_size(workload, index)
        return total

    def required_bandwidth(self, workload: Workload) -> float:
        """The paper's backup bandwidth demand (section 3.2.3).

        The maximum of the full's rate (whole dataset within the full
        propagation window) and the largest incremental's rate.
        """
        full_rate = workload.data_capacity / self.full_propagation_window
        if self.incremental is None:
            return full_rate
        incremental_rate = (
            self.largest_incremental_size(workload)
            / self.incremental.propagation_window
        )
        return max(full_rate, incremental_rate)

    def propagated_bytes_per_cycle(self, workload: Workload) -> float:
        """One full plus every incremental: exactly the retained cycle."""
        return self.cycle_bytes(workload)

    # -- framework interface --------------------------------------------------------------

    def validate(self, workload: Workload) -> None:
        if self.incremental is not None:
            span = self.incremental.count * self.incremental.accumulation_window
            if span >= self.cycle_period:
                raise PolicyError(
                    f"{self.name}: incrementals span the whole cycle, "
                    "leaving no room for the full's accumulation window"
                )

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Read the source array, write the backup device, via transport.

        Capacity on the backup device is ``retCnt`` cycles plus one extra
        full; no capacity lands on the source (a PiT copy supplies the
        consistent image).
        """
        bandwidth = self.required_bandwidth(workload)
        capacity = (
            self.retention_count * self.cycle_bytes(workload)
            + workload.data_capacity
        )
        placements = [self.place(store, bandwidth=bandwidth, capacity=capacity)]
        if source_store is not None:
            placements.append(self.place(source_store, bandwidth=bandwidth))
        if transport is not None:
            placements.append(self.place(transport, bandwidth=bandwidth))
        return placements

    def recovery_size(self, workload: Workload, requested_bytes: float) -> float:
        """Worst case: the full plus the incrementals needed on top of it.

        Cumulative cycles replay one incremental (the largest);
        differential cycles replay the whole chain.  Object-level
        restores (``requested_bytes`` smaller than a full) read the
        object from the full plus its incremental deltas; the dominant
        term is still bounded by the same expression, so the model uses
        the minimum of the two.
        """
        if self.incremental is None:
            overhead = 0.0
        elif self.incremental.kind is IncrementalKind.CUMULATIVE:
            overhead = self.largest_incremental_size(workload)
        else:
            overhead = sum(
                self.incremental_size(workload, index)
                for index in range(1, self.incremental.count + 1)
            )
        if requested_bytes >= workload.data_capacity:
            return requested_bytes + overhead
        return min(requested_bytes + overhead, workload.data_capacity + overhead)

    def describe(self) -> str:
        days = self.cycle_period / DAY
        if self.incremental is None:
            return f"{self.name}: fulls every {days:g} d, {self.retention_count} cycles"
        return (
            f"{self.name}: full + {self.incremental.count} "
            f"{self.incremental.kind.value} incrementals per {days:g} d cycle, "
            f"{self.retention_count} cycles retained"
        )
