"""Remote vaulting: shipping backup media to off-site archival storage.

Tapes (only *full* backups, per the paper's assumption) are periodically
shipped to a vault and retained there for a long window — three years in
the case study.  Vaulting places:

* **capacity** demands on the vault: ``retCnt`` retained fulls;
* **shipment** demands on the courier interconnect (one run per
  accumulation window, i.e. per vault cycle);
* **no additional demands on the backup device** when the vault's hold
  window matches the backup retention window (``holdW_vault =
  retW_backup``): the oldest full simply leaves when its on-site
  retention expires.  When tapes must ship *earlier* than that
  (``holdW_vault < retW_backup``) the library has to cut an extra copy
  of each shipped full, adding both bandwidth and a full's capacity.

Restores from the vault route through a tape library (vaulted cartridges
cannot be read on a shelf), which the recovery model handles via
:attr:`~repro.techniques.base.ProtectionTechnique.reads_via_source_level`.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..devices.base import Device, Placement
from ..exceptions import PolicyError
from ..units import WEEK, YEAR
from ..workload.spec import Workload
from .base import CopyRepresentation, ProtectionTechnique, check_windows
from .facts import TechniqueFacts
from .timeline import CycleModel


class RemoteVaulting(ProtectionTechnique):
    """Periodic off-site shipment of full-backup media.

    Parameters
    ----------
    accumulation_window:
        Spacing between vault shipments (``accW``; 4 weeks baseline).
    propagation_window:
        Shipment transit window (``propW``; 24 h air freight).
    hold_window:
        Delay between a full backup's creation and its shipment
        (``holdW``; the baseline holds tapes until their on-site
        retention expires: 4 weeks + 12 h).
    retention_count:
        Fulls retained at the vault (``retCnt``; 39 covers ~3 years of
        4-week cycles).
    """

    copy_representation = CopyRepresentation.FULL
    propagation_representation = CopyRepresentation.FULL
    reads_via_source_level = True

    def __init__(
        self,
        accumulation_window: Union[str, float],
        propagation_window: Union[str, float],
        hold_window: Union[str, float],
        retention_count: int,
        name: str = "remote vaulting",
    ):
        super().__init__(name)
        acc, prop, hold, ret = check_windows(
            name, accumulation_window, propagation_window, hold_window,
            retention_count,
        )
        self.accumulation_window = acc
        self.propagation_window = prop
        self.hold_window = hold
        self.retention_count = ret

    def cycle(self) -> CycleModel:
        return CycleModel.single(
            accumulation_window=self.accumulation_window,
            hold_window=self.hold_window,
            propagation_window=self.propagation_window,
            retention_count=self.retention_count,
            label="vaulted full",
        )

    def shipments_per_year(self) -> float:
        """Courier runs per year: one per accumulation window."""
        return YEAR / self.accumulation_window

    def requires_extra_copy(self, source_facts: Optional[TechniqueFacts]) -> bool:
        """True when tapes ship before their on-site retention expires."""
        if source_facts is None:
            return False
        return self.hold_window < source_facts.retention_window

    def validate(self, workload: Workload) -> None:
        if self.retention_count < 1:
            raise PolicyError(f"{self.name}: must retain at least one full")

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Vault capacity, courier shipments, and (maybe) extra tape copies."""
        placements = [
            self.place(store, capacity=self.retention_count * workload.data_capacity)
        ]
        if transport is not None:
            placements.append(
                self.place(transport, shipments_per_year=self.shipments_per_year())
            )
        if self.requires_extra_copy(source_facts) and source_store is not None:
            # The library duplicates each shipped full before it leaves:
            # read + write a full dataset once per vault cycle, plus shelf
            # space for the copy awaiting shipment.
            copy_bandwidth = 2.0 * workload.data_capacity / self.accumulation_window
            placements.append(
                self.place(
                    source_store,
                    bandwidth=copy_bandwidth,
                    capacity=workload.data_capacity,
                )
            )
        return placements

    def describe(self) -> str:
        weeks = self.accumulation_window / WEEK
        years = self.retention_window() / YEAR
        return (
            f"{self.name}: ship every {weeks:g} wk, retain {years:.1f} yr "
            f"({self.retention_count} fulls)"
        )
