"""The primary copy — level 0 of every hierarchy.

The primary copy is not a data *protection* technique, but the paper's
hierarchy convention makes it level 0: it is the copy applications read
and write, the source from which all RPs ultimately derive, and the
destination of every recovery.  Its "policy" is trivial — it always
reflects "now" — and its demands are simply the foreground workload.
"""

from __future__ import annotations

from typing import List, Optional

from ..devices.base import Device, Placement
from ..exceptions import NoCycleError
from ..workload.spec import Workload
from .base import ProtectionTechnique
from .facts import TechniqueFacts
from .timeline import CycleModel


class PrimaryCopy(ProtectionTechnique):
    """Level 0: the live data and its foreground workload."""

    is_primary = True

    def __init__(self, name: str = "foreground workload"):
        super().__init__(name)

    def cycle(self) -> CycleModel:
        raise NoCycleError(
            "the primary copy has no RP cycle; it always reflects 'now'"
        )

    # The primary copy is perfectly current and retains nothing historical.

    def worst_lag(self) -> float:
        """The live copy is never out of date."""
        return 0.0

    def worst_spacing(self) -> float:
        """The live copy is continuous — no RP spacing."""
        return 0.0

    def retention_span(self) -> float:
        """The live copy retains only 'now'."""
        return 0.0

    def full_availability_delay(self) -> float:
        """Level 0 adds no hold or propagation delay."""
        return 0.0

    def retention_window(self) -> float:
        return 0.0

    def propagated_bytes_per_cycle(self, workload: Workload) -> float:
        """Level 0 receives nothing: it *is* the source."""
        return 0.0

    def average_propagation_rate(self, workload: Workload) -> float:
        return 0.0

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """The foreground workload: its access rate and the dataset itself."""
        return [
            self.place(
                store,
                bandwidth=workload.avg_access_rate,
                capacity=workload.data_capacity,
            )
        ]

    def describe(self) -> str:
        return f"{self.name}: primary copy (level 0)"
