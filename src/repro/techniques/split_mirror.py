"""Split-mirror point-in-time copies.

The paper's split-mirror model (section 3.2.3) maintains a circular
buffer of mirrors: ``retCnt`` accessible split mirrors plus one mirror
permanently undergoing *resilvering* (being brought up to date before
its next split) — ``retCnt + 1`` resident full copies in total.

When a mirror becomes eligible for resilvering it must catch up on all
unique updates since it was last split, ``retCnt + 1`` accumulation
windows ago.  Resilvering reads the new values from the primary copy and
writes them to the mirror — both on the same array — and must complete
within one accumulation window, giving the bandwidth demand:

    2 * batchUpdR((retCnt + 1) * accW) * (retCnt + 1)

For the baseline (12 h windows, retCnt 4, cello's 317 KB/s at 60 h) this
is 3.17 MB/s — the 0.6% array utilization of the paper's Table 5.
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


class SplitMirror(ProtectionTechnique):
    """A circular buffer of intra-array split mirrors.

    Parameters
    ----------
    accumulation_window:
        Time between splits (``accW``; 12 h in the baseline).
    retention_count:
        Number of *accessible* split mirrors (``retCnt``; one extra
        mirror is maintained for resilvering).
    """

    co_located_with_source = True
    copy_representation = CopyRepresentation.FULL
    propagation_representation = CopyRepresentation.FULL

    def __init__(
        self,
        accumulation_window: Union[str, float],
        retention_count: int,
        name: str = "split mirror",
    ):
        super().__init__(name)
        acc, _prop, _hold, ret = check_windows(
            name, accumulation_window, 0.0, 0.0, retention_count
        )
        self.accumulation_window = acc
        self.retention_count = ret

    @property
    def resident_mirrors(self) -> int:
        """Accessible mirrors plus the one being resilvered."""
        return self.retention_count + 1

    def cycle(self) -> CycleModel:
        """A split is an instantaneous local operation: no hold/prop delay."""
        return CycleModel.single(
            accumulation_window=self.accumulation_window,
            hold_window=0.0,
            propagation_window=0.0,
            retention_count=self.retention_count,
            label="split",
        )

    def validate(self, workload: Workload) -> None:
        resilver_window = self.resident_mirrors * self.accumulation_window
        if workload.unique_bytes(resilver_window) <= 0 and workload.avg_update_rate > 0:
            raise PolicyError(
                f"{self.name}: workload batch curve yields no unique bytes over "
                "the resilvering window"
            )

    def resilver_bandwidth(self, workload: Workload) -> float:
        """Read + write rate needed to resilver one mirror per window."""
        resilver_window = self.resident_mirrors * self.accumulation_window
        bytes_behind = workload.unique_bytes(resilver_window)
        return 2.0 * bytes_behind / self.accumulation_window

    def propagated_bytes_per_cycle(self, workload: Workload) -> float:
        """Each window resilvers one mirror's backlog of unique updates."""
        return workload.unique_bytes(self.resident_mirrors * self.accumulation_window)

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Full-copy capacity for every resident mirror + resilver traffic."""
        return [
            self.place(
                store,
                bandwidth=self.resilver_bandwidth(workload),
                capacity=self.resident_mirrors * workload.data_capacity,
            )
        ]

    def describe(self) -> str:
        hours = self.accumulation_window / HOUR
        return (
            f"{self.name}: split every {hours:g} h, {self.retention_count} "
            f"accessible (+1 resilvering)"
        )
