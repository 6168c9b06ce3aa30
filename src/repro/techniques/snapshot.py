"""Virtual snapshot point-in-time copies (copy-on-write).

The paper models an *update-in-place* variant of virtual snapshots: old
values are copied to a new location before an update is applied, so
every foreground write incurs **one additional read and one additional
write** on the hosting array.  Capacity-wise, a snapshot shares all
unmodified data with the primary copy and only stores the unique
updates accumulated during its window (section 3.2.3).

Snapshots live on the same array as the primary copy; restores are
intra-array copies.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..devices.base import Device, Placement
from ..exceptions import PolicyError
from ..units import HOUR
from ..workload.spec import Workload
from .base import CopyRepresentation, ProtectionTechnique, check_windows
from .facts import TechniqueFacts
from .timeline import CycleModel


class VirtualSnapshot(ProtectionTechnique):
    """Copy-on-write snapshots on the primary array.

    Parameters
    ----------
    accumulation_window:
        Time between snapshots (``accW``); each snapshot captures the
        state at the end of its window.
    retention_count:
        Number of snapshots retained (``retCnt``).
    """

    co_located_with_source = True
    copy_representation = CopyRepresentation.PARTIAL
    propagation_representation = CopyRepresentation.PARTIAL

    def __init__(
        self,
        accumulation_window: Union[str, float],
        retention_count: int,
        name: str = "virtual snapshot",
    ):
        super().__init__(name)
        acc, _prop, _hold, ret = check_windows(
            name, accumulation_window, 0.0, 0.0, retention_count
        )
        self.accumulation_window = acc
        self.retention_count = ret

    def cycle(self) -> CycleModel:
        """Snapshots are instantaneous: no hold or propagation delay."""
        return CycleModel.single(
            accumulation_window=self.accumulation_window,
            hold_window=0.0,
            propagation_window=0.0,
            retention_count=self.retention_count,
            label="snapshot",
        )

    def validate(self, workload: Workload) -> None:
        if self.accumulation_window <= 0:
            raise PolicyError(f"{self.name}: accumulation window must be positive")

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Copy-on-write doubles every foreground write; deltas need space.

        Bandwidth: an extra read of the old value plus an extra write of
        it elsewhere for every foreground write — ``2 * avgUpdateR``.
        Capacity: each retained snapshot holds the unique updates of one
        accumulation window.
        """
        cow_bandwidth = 2.0 * workload.avg_update_rate
        delta_capacity = self.retention_count * workload.unique_bytes(
            self.accumulation_window
        )
        return [self.place(store, bandwidth=cow_bandwidth, capacity=delta_capacity)]

    def describe(self) -> str:
        hours = self.accumulation_window / HOUR
        return (
            f"{self.name}: CoW snapshot every {hours:g} h, "
            f"{self.retention_count} retained"
        )
