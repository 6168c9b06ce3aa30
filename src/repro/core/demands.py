"""A design's workload demands on its devices, as a value.

Walks the hierarchy in level order, handing each technique the devices
of its level plus the previous level's store (for propagation reads) and
technique facts (for retention-window interactions such as vaulting's
extra-copy rule), and collects the demands they return into a
:class:`DemandLedger`.  Nothing is written into the devices, so a
design's task key is the same before and after evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..devices.base import Demands, Device, Placement
from ..techniques.facts import FactsTable
from ..workload.spec import Workload
from .hierarchy import StorageDesign


class DemandLedger:
    """Every device's demands, in placement order.

    ``ledger[device]`` is the device's demand tuple (empty for a device
    with none); its first demand names the technique charged the
    device's fixed cost (paper §3.3.5).  A ledger is immutable;
    ``a + b`` is the joint ledger of designs that share devices, as in
    a portfolio.
    """

    __slots__ = ("_placements", "_by_device")

    def __init__(self, placements: "Iterable[Placement]" = ()):
        self._placements = tuple(placements)
        self._by_device: "Dict[Device, Demands]" = {}
        for device, demand in self._placements:
            self._by_device[device] = self[device] + (demand,)

    def __getitem__(self, device: Device) -> Demands:
        return self._by_device.get(device, ())

    def __add__(self, other: "DemandLedger") -> "DemandLedger":
        return DemandLedger(self._placements + other._placements)


def register_design_demands(
    design: StorageDesign, workload: Workload, facts: FactsTable
) -> DemandLedger:
    """Every level's demands for the given workload.

    ``facts`` supplies the previous level's timeline facts to each
    technique; callers evaluating many designs share one table.
    """
    placements: "List[Placement]" = []
    for level in design.levels:
        if level.index == 0:
            placements.extend(level.technique.demands(workload, store=level.store))
            continue
        parent = design.parent_of(level)
        placements.extend(
            level.technique.demands(
                workload,
                store=level.store,
                source_store=parent.store,
                transport=level.transport,
                source_facts=facts.of(parent.technique),
            )
        )
    return DemandLedger(placements)
