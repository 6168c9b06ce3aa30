"""Tape library device model.

The case-study library is modeled on HP's ESL9595: up to 500 LTO
cartridges of 400 GB (capacity slots) and up to 16 LTO drives of 60 MB/s
(bandwidth slots) behind a 240 MB/s enclosure.  Tape media carries no
internal redundancy, so logical and raw capacity coincide.  The
``access_delay`` (0.01 h in Table 4) models cartridge load and seek, and
feeds the *serialized fixed period* of the recovery-time model.
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


class TapeLibrary(Device):
    """A tape library: cartridges are capacity slots, drives bandwidth slots."""

    def __init__(
        self,
        name: str,
        max_cartridges: int,
        cartridge_capacity: Union[str, float],
        max_drives: int,
        drive_bandwidth: Union[str, float],
        enclosure_bandwidth: Union[str, float],
        cost_model: Optional[CostModel] = None,
        spare: Optional[SpareConfig] = None,
        location: Location = PRIMARY_SITE,
        access_delay: Union[str, float] = "0.01 hr",
        restore_efficiency: float = 1.0,
    ):
        if max_cartridges <= 0 or max_drives <= 0:
            raise DeviceError(f"library {name!r} slot counts must be positive")
        if not 0 < restore_efficiency <= 1:
            raise DeviceError(
                f"library {name!r} restore efficiency must be in (0, 1]"
            )
        cart_cap = parse_size(cartridge_capacity)
        drive_bw = parse_rate(drive_bandwidth)
        encl_bw = parse_rate(enclosure_bandwidth)
        if cart_cap <= 0 or drive_bw <= 0 or encl_bw <= 0:
            raise DeviceError(f"library {name!r} slot/enclosure values must be positive")
        super().__init__(
            name=name,
            max_capacity=max_cartridges * cart_cap,
            max_bandwidth=min(encl_bw, max_drives * drive_bw),
            cost_model=cost_model,
            spare=spare,
            location=location,
            access_delay=parse_duration(access_delay),
        )
        self.max_cartridges = int(max_cartridges)
        self.cartridge_capacity = cart_cap
        self.max_drives = int(max_drives)
        self.drive_bandwidth = drive_bw
        self.enclosure_bandwidth = encl_bw
        # Bulk restores stream slower than the nominal drive rate:
        # cartridge switches, repositioning and rate-matching stalls.
        self.recovery_read_efficiency = float(restore_efficiency)

    def cartridges_required(self, demands: Demands) -> int:
        """Cartridges the given demands' capacity needs."""
        return int(
            math.ceil(self.capacity_demand_logical(demands) / self.cartridge_capacity)
        )

    def drives_required(self, demands: Demands) -> int:
        """Drives needed to sustain the given demands' bandwidth."""
        return int(math.ceil(self.bandwidth_demand(demands) / self.drive_bandwidth))

    def cartridges_for(self, data_bytes: Union[str, float]) -> int:
        """Cartridges a dataset of the given size occupies (for shipping)."""
        return int(math.ceil(parse_size(data_bytes) / self.cartridge_capacity))
