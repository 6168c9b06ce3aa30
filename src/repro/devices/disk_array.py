"""Disk array device model.

The paper's case-study primary array is a mid-range array modeled on
HP's EVA: up to 256 disks of 73 GB at 25 MB/s each behind a 512 MB/s
enclosure.  Arrays store data with internal RAID redundancy; the
case-study numbers imply RAID-1 (every logical byte costs two raw
bytes — Table 5's 14.6% foreground capacity is ``2 * 1360 GB`` over the
``256 * 73 GB`` envelope), so :class:`DiskArray` carries a
``raid_capacity_factor`` applied when logical demands are translated to
raw slot consumption.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ..exceptions import DeviceError
from ..scenarios.locations import Location, PRIMARY_SITE
from ..units import parse_duration, parse_rate, parse_size
from .base import Demands, Device
from .costs import CostModel
from .spares import SpareConfig


class DiskArray(Device):
    """A disk array: capacity slots are disks, bandwidth slots are disks.

    Parameters
    ----------
    name:
        Unique device name.
    max_capacity_slots / slot_capacity:
        Number of disk bays and per-disk capacity.
    max_bandwidth_slots / slot_bandwidth:
        Number of active disks and per-disk bandwidth; on an array every
        disk contributes to both envelopes.
    enclosure_bandwidth:
        Aggregate controller/bus limit; the effective bandwidth envelope
        is ``min(enclosure, slots * slot_bw)``.
    raid_capacity_factor:
        Raw bytes consumed per logical byte (2.0 for RAID-1, ~1.25 for
        wide RAID-5, 1.0 for unprotected striping).
    """

    def __init__(
        self,
        name: str,
        max_capacity_slots: int,
        slot_capacity: Union[str, float],
        max_bandwidth_slots: int,
        slot_bandwidth: Union[str, float],
        enclosure_bandwidth: Union[str, float],
        cost_model: Optional[CostModel] = None,
        spare: Optional[SpareConfig] = None,
        location: Location = PRIMARY_SITE,
        access_delay: Union[str, float] = 0.0,
        raid_capacity_factor: float = 2.0,
    ):
        if max_capacity_slots <= 0 or max_bandwidth_slots <= 0:
            raise DeviceError(f"array {name!r} slot counts must be positive")
        if raid_capacity_factor < 1.0:
            raise DeviceError(
                f"array {name!r} RAID capacity factor must be >= 1, "
                f"got {raid_capacity_factor}"
            )
        slot_cap = parse_size(slot_capacity)
        slot_bw = parse_rate(slot_bandwidth)
        encl_bw = parse_rate(enclosure_bandwidth)
        if slot_cap <= 0 or slot_bw <= 0 or encl_bw <= 0:
            raise DeviceError(f"array {name!r} slot/enclosure values must be positive")
        super().__init__(
            name=name,
            max_capacity=max_capacity_slots * slot_cap,
            max_bandwidth=min(encl_bw, max_bandwidth_slots * slot_bw),
            cost_model=cost_model,
            spare=spare,
            location=location,
            access_delay=parse_duration(access_delay),
        )
        self.max_capacity_slots = int(max_capacity_slots)
        self.slot_capacity = slot_cap
        self.max_bandwidth_slots = int(max_bandwidth_slots)
        self.slot_bandwidth = slot_bw
        self.enclosure_bandwidth = encl_bw
        self.raid_capacity_factor = float(raid_capacity_factor)

    def raw_capacity(self, logical_bytes: float) -> float:
        """Logical bytes inflated by the RAID redundancy factor."""
        return logical_bytes * self.raid_capacity_factor

    def disks_required(self, demands: Demands) -> int:
        """Number of disk slots the given demands' raw capacity needs."""
        return int(math.ceil(self.capacity_demand_raw(demands) / self.slot_capacity))
