"""Device base model: envelopes, utilization and outlays.

A device exposes:

* a **capacity envelope** ``devCap = maxCapSlots * slotCap`` and a
  **bandwidth envelope** ``devBW = min(enclBW, maxBWSlots * slotBW)``.
  (The paper's §3.3.1 prints ``max`` here, but its own case-study
  arithmetic — 12.4 MB/s being 2.4% of the array — only holds with
  ``min``; see DESIGN.md §2.)
* **utilization** over a tuple of :class:`Demand` records — the bandwidth
  and capacity workload demands data protection techniques place on the
  device (paper §3.2.3).  Utilizations are the summed demands over the
  envelopes (§3.3.1).  A device holds no demands itself: a design's
  demands are a value, :class:`~repro.core.demands.DemandLedger`,
  which hands each device its tuple.
* an **outlay model**: the device's fixed cost is attributed to its
  *primary* technique (the first demand's, by the paper's convention
  §3.3.5) and each technique additionally pays the per-capacity /
  per-bandwidth / per-shipment costs of its own demands.  Spare
  resources add ``spareDisc`` times the technique's outlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..exceptions import DeviceError
from ..scenarios.locations import Location, PRIMARY_SITE
from ..units import format_rate, format_size
from .costs import CostModel
from .spares import SpareConfig


@dataclass(frozen=True)
class Demand:
    """One technique's workload demand on one device.

    ``capacity`` is *logical* bytes; storage devices with internal
    redundancy (RAID) translate it to raw bytes via
    :meth:`Device.raw_capacity`.  ``shipments_per_year`` is only
    meaningful for physical-transport interconnects.
    """

    technique: str
    bandwidth: float = 0.0
    capacity: float = 0.0
    shipments_per_year: float = 0.0

    def __post_init__(self) -> None:
        if not self.technique:
            raise DeviceError("demand requires a technique name")
        if self.bandwidth < 0 or self.capacity < 0 or self.shipments_per_year < 0:
            raise DeviceError(
                f"demands must be >= 0 (technique {self.technique!r}: "
                f"bw={self.bandwidth}, cap={self.capacity}, "
                f"ship={self.shipments_per_year})"
            )


#: One device's demands, in placement order.
Demands = Tuple[Demand, ...]


@dataclass(frozen=True)
class TechniqueUtilization:
    """One technique's share of a device's utilization."""

    technique: str
    bandwidth: float
    bandwidth_utilization: float
    capacity: float
    capacity_utilization: float


@dataclass(frozen=True)
class DeviceUtilization:
    """A device's normal-mode utilization report (one row of Table 5)."""

    device_name: str
    bandwidth_demand: float
    bandwidth_utilization: float
    capacity_demand_raw: float
    capacity_demand_logical: float
    capacity_utilization: float
    by_technique: Tuple[TechniqueUtilization, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        """Compact single-line rendering for logs and reports."""
        return (
            f"{self.device_name}: bw {self.bandwidth_utilization:.1%} "
            f"({format_rate(self.bandwidth_demand)}), cap "
            f"{self.capacity_utilization:.1%} "
            f"({format_size(self.capacity_demand_logical)})"
        )


class Device:
    """Base class for storage and interconnect devices.

    Parameters
    ----------
    name:
        Unique identifier within a design (e.g. ``"primary-array"``).
    max_capacity:
        Total capacity envelope in bytes (``maxCapSlots * slotCap``);
        ``float('inf')`` for devices without a meaningful limit.
    max_bandwidth:
        Total bandwidth envelope in bytes/s
        (``min(enclBW, maxBWSlots * slotBW)``); ``float('inf')`` where
        not applicable (e.g. a vault).
    cost_model:
        Annualized outlay cost components.
    spare:
        Spare configuration; defaults to no spare.
    location:
        Physical placement for failure-scope evaluation.
    access_delay:
        ``devDelay``: fixed delay to begin reading (tape load/seek) or,
        for interconnects, the propagation delay.  Seconds.
    """

    #: True for interconnects (network links, couriers).  Interconnects
    #: carry data between levels and are never the resting place of an RP.
    is_interconnect: bool = False

    #: Fraction of the available bandwidth actually delivered when the
    #: device is *read as a recovery source* (bulk restore).  1.0 for
    #: devices that stream at full rate; tape libraries lose throughput
    #: to cartridge switches and stream-rate matching (the catalog's
    #: library uses 0.7, calibrated in DESIGN.md/EXPERIMENTS.md).
    recovery_read_efficiency: float = 1.0

    def __init__(
        self,
        name: str,
        max_capacity: float,
        max_bandwidth: float,
        cost_model: Optional[CostModel] = None,
        spare: Optional[SpareConfig] = None,
        location: Location = PRIMARY_SITE,
        access_delay: float = 0.0,
    ):
        if not name:
            raise DeviceError("device requires a name")
        if max_capacity < 0 or max_bandwidth < 0:
            raise DeviceError(f"device {name!r} envelopes must be >= 0")
        if access_delay < 0:
            raise DeviceError(f"device {name!r} access delay must be >= 0")
        self.name = name
        self.max_capacity = float(max_capacity)
        self.max_bandwidth = float(max_bandwidth)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.spare = spare if spare is not None else SpareConfig.none()
        self.location = location
        self.access_delay = float(access_delay)

    # -- redundancy translation ---------------------------------------------------

    def raw_capacity(self, logical_bytes: float) -> float:
        """Raw bytes consumed to store the given logical bytes.

        The base device stores data without internal redundancy
        overhead; :class:`~repro.devices.disk_array.DiskArray` overrides
        this with its RAID factor.
        """
        return logical_bytes

    # -- utilization ---------------------------------------------------------------

    def bandwidth_demand(self, demands: Demands) -> float:
        """Sum of the given bandwidth demands, bytes/s."""
        return sum(demand.bandwidth for demand in demands)

    def capacity_demand_logical(self, demands: Demands) -> float:
        """Sum of the given (logical) capacity demands, bytes."""
        return sum(demand.capacity for demand in demands)

    def capacity_demand_raw(self, demands: Demands) -> float:
        """Raw capacity consumed, after redundancy translation."""
        return self.raw_capacity(self.capacity_demand_logical(demands))

    def bandwidth_utilization(self, demands: Demands) -> float:
        """``bwUtil`` = summed bandwidth demand over the envelope."""
        if self.max_bandwidth == float("inf"):
            return 0.0
        bandwidth = self.bandwidth_demand(demands)
        if self.max_bandwidth == 0:
            return 0.0 if bandwidth == 0 else float("inf")
        return bandwidth / self.max_bandwidth

    def capacity_utilization(self, demands: Demands) -> float:
        """``capUtil`` = raw capacity demand over the envelope."""
        if self.max_capacity == float("inf"):
            return 0.0
        raw = self.capacity_demand_raw(demands)
        if self.max_capacity == 0:
            return 0.0 if raw == 0 else float("inf")
        return raw / self.max_capacity

    def available_bandwidth(self, demands: Demands) -> float:
        """Bandwidth left after normal-mode demands (recovery transfers).

        The paper's recovery model limits transfers to "the remaining
        bandwidth after any RP propagation workload demands have been
        satisfied" (§3.3.4).
        """
        if self.max_bandwidth == float("inf"):
            return float("inf")
        return max(0.0, self.max_bandwidth - self.bandwidth_demand(demands))

    def utilization(self, demands: Demands) -> DeviceUtilization:
        """Full per-technique utilization report under the given demands."""
        by_technique = []
        for demand in demands:
            raw = self.raw_capacity(demand.capacity)
            by_technique.append(
                TechniqueUtilization(
                    technique=demand.technique,
                    bandwidth=demand.bandwidth,
                    bandwidth_utilization=(
                        demand.bandwidth / self.max_bandwidth
                        if self.max_bandwidth not in (0.0, float("inf"))
                        else 0.0
                    ),
                    capacity=demand.capacity,
                    capacity_utilization=(
                        raw / self.max_capacity
                        if self.max_capacity not in (0.0, float("inf"))
                        else 0.0
                    ),
                )
            )
        return DeviceUtilization(
            device_name=self.name,
            bandwidth_demand=self.bandwidth_demand(demands),
            bandwidth_utilization=self.bandwidth_utilization(demands),
            capacity_demand_raw=self.capacity_demand_raw(demands),
            capacity_demand_logical=self.capacity_demand_logical(demands),
            capacity_utilization=self.capacity_utilization(demands),
            by_technique=tuple(by_technique),
        )

    # -- outlays ---------------------------------------------------------------------

    def outlays_by_technique(self, demands: Demands) -> "Dict[str, float]":
        """Annualized outlay dollars attributed to each technique.

        The primary technique (the first demand's) pays the fixed cost
        plus its variable costs; secondary techniques pay only their
        *additional* variable costs.  A spare adds ``spareDisc`` times
        each technique's outlay (the spare mirrors the device, so its
        cost decomposes the same way).
        """
        outlays: "Dict[str, float]" = {}
        for index, demand in enumerate(demands):
            cost = self.cost_model.variable_cost(
                capacity_bytes=self.raw_capacity(demand.capacity),
                bandwidth_bps=demand.bandwidth,
                shipments_per_year=demand.shipments_per_year,
            )
            if index == 0:
                cost += self.cost_model.fixed
            outlays[demand.technique] = outlays.get(demand.technique, 0.0) + cost
        if self.spare.exists and self.spare.discount > 0:
            for technique in list(outlays):
                outlays[technique] *= 1.0 + self.spare.discount
        return outlays

    # -- misc ---------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} at {self.location.label()}>"


#: One technique demand and the device it lands on.
Placement = Tuple[Device, Demand]
