"""Interconnect device models: network links and physical shipment.

The paper folds "physical transportation methods, such as courier
services" into the interconnect category (§3.2.2).  Both kinds carry
RP propagation traffic between levels and both participate in recovery
paths, but they behave differently:

* a :class:`NetworkLink` moves bytes at a rate — transfer time scales
  with the amount of data and with how many parallel links are
  provisioned (the case study compares 1 vs. 10 OC-3 links);
* a :class:`Shipment` (courier, air freight) moves *media* with a fixed
  door-to-door delay regardless of how many bytes the cartridges hold,
  and costs per shipment rather than per byte.
"""

from __future__ import annotations

from typing import Optional, Union

from ..exceptions import DeviceError
from ..scenarios.locations import Location, PRIMARY_SITE
from ..units import parse_duration, parse_rate
from .base import Demands, Device
from .costs import CostModel
from .spares import SpareConfig


class Interconnect(Device):
    """Base class for devices that carry data between levels."""

    is_interconnect = True

    def transfer_time(self, size_bytes: float, demands: Demands) -> float:
        """Serialized time to move ``size_bytes`` alongside ``demands``.

        Subclasses must implement; used by the recovery-time model.
        """
        raise NotImplementedError


class NetworkLink(Interconnect):
    """One or more parallel network links (SAN, WAN, OC-3, ...).

    Parameters
    ----------
    link_bandwidth:
        Per-link usable rate.  Accepts the paper's telecom units:
        ``"155 Mbps"`` parses to 155e6/8 bytes/s.
    link_count:
        Number of parallel links; the aggregate envelope is
        ``link_count * link_bandwidth``.
    propagation_delay:
        One-way latency (``devDelay``); matters for synchronous
        mirroring write latency, negligible for bulk recovery.
    """

    def __init__(
        self,
        name: str,
        link_bandwidth: Union[str, float],
        link_count: int = 1,
        propagation_delay: Union[str, float] = 0.0,
        cost_model: Optional[CostModel] = None,
        spare: Optional[SpareConfig] = None,
        location: Location = PRIMARY_SITE,
    ):
        if link_count <= 0:
            raise DeviceError(f"link {name!r} requires at least one link")
        per_link = parse_rate(link_bandwidth)
        if per_link <= 0:
            raise DeviceError(f"link {name!r} bandwidth must be positive")
        super().__init__(
            name=name,
            max_capacity=float("inf"),
            max_bandwidth=per_link * link_count,
            cost_model=cost_model,
            spare=spare,
            location=location,
            access_delay=parse_duration(propagation_delay),
        )
        self.link_bandwidth = per_link
        self.link_count = int(link_count)

    def transfer_time(self, size_bytes: float, demands: Demands) -> float:
        """Bulk transfer time at the bandwidth left over by RP traffic."""
        available = self.available_bandwidth(demands)
        if size_bytes <= 0:
            return 0.0
        if available <= 0:
            return float("inf")
        return self.access_delay + size_bytes / available

    def outlays_by_technique(self, demands: Demands) -> "dict[str, float]":
        """Links are billed on *provisioned* bandwidth, not demanded.

        A leased OC-3 costs the same whether it runs full or idle, so the
        per-bandwidth cost applies to the full envelope, attributed to
        the primary technique; remaining techniques pay nothing extra.
        """
        outlays: "dict[str, float]" = {}
        if demands:
            outlays[demands[0].technique] = (
                self.cost_model.fixed
                + self.cost_model.bandwidth_cost(self.max_bandwidth)
            )
            for demand in demands:
                outlays.setdefault(demand.technique, 0.0)
            if self.spare.exists and self.spare.discount > 0:
                for technique in list(outlays):
                    outlays[technique] *= 1.0 + self.spare.discount
        return outlays


class Shipment(Interconnect):
    """Physical media transport with a fixed door-to-door delay.

    Parameters
    ----------
    delay:
        Door-to-door shipment time (``devDelay``; 24 h for the
        case-study air shipment).
    """

    def __init__(
        self,
        name: str,
        delay: Union[str, float] = "24 hr",
        cost_model: Optional[CostModel] = None,
        location: Location = PRIMARY_SITE,
    ):
        delay_s = parse_duration(delay)
        if delay_s < 0:
            raise DeviceError(f"shipment {name!r} delay must be >= 0")
        super().__init__(
            name=name,
            max_capacity=float("inf"),
            max_bandwidth=float("inf"),
            cost_model=cost_model,
            spare=SpareConfig.none(),
            location=location,
            access_delay=delay_s,
        )

    def transfer_time(self, size_bytes: float, demands: Demands) -> float:
        """Constant door-to-door delay: the courier doesn't care about bytes."""
        if size_bytes <= 0:
            return 0.0
        return self.access_delay
