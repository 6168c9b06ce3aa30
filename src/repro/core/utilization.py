"""Normal-mode utilization (paper section 3.3.1).

Two steps, mirroring the paper's decomposition: each hardware device
model computes its *local* bandwidth and capacity utilization from its
demands in the design's :class:`~repro.core.demands.DemandLedger`, then
a *global* calculation takes the system utilization
as that of the most heavily utilized device and flags over-commitment
(``capUtil > 1`` or ``bwUtil > 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..devices.base import Device, DeviceUtilization
from ..exceptions import BandwidthExceededError, CapacityExceededError
from ..obs import get_metrics, get_tracer
from .demands import DemandLedger
from .hierarchy import StorageDesign


@dataclass(frozen=True)
class SystemUtilization:
    """The global utilization picture: per-device reports plus the maxima."""

    devices: Tuple[DeviceUtilization, ...]
    max_capacity_utilization: float
    max_capacity_device: Optional[str]
    max_bandwidth_utilization: float
    max_bandwidth_device: Optional[str]

    @property
    def system_utilization(self) -> float:
        """The paper's headline metric: the busiest component's utilization."""
        return max(self.max_capacity_utilization, self.max_bandwidth_utilization)

    @property
    def feasible(self) -> bool:
        """True when no device is over-committed."""
        return (
            self.max_capacity_utilization <= 1.0
            and self.max_bandwidth_utilization <= 1.0
        )

    @classmethod
    def of(
        cls, devices: "Iterable[Device]", demands: DemandLedger
    ) -> "SystemUtilization":
        """Each device's report under ``demands``, plus the maxima."""
        reports = tuple(device.utilization(demands[device]) for device in devices)
        max_cap, max_cap_dev = 0.0, None
        max_bw, max_bw_dev = 0.0, None
        for report in reports:
            if report.capacity_utilization > max_cap:
                max_cap, max_cap_dev = report.capacity_utilization, report.device_name
            if report.bandwidth_utilization > max_bw:
                max_bw, max_bw_dev = report.bandwidth_utilization, report.device_name
        return cls(
            devices=reports,
            max_capacity_utilization=max_cap,
            max_capacity_device=max_cap_dev,
            max_bandwidth_utilization=max_bw,
            max_bandwidth_device=max_bw_dev,
        )

    def device(self, name: str) -> DeviceUtilization:
        """The report for a named device."""
        for report in self.devices:
            if report.device_name == name:
                return report
        raise KeyError(f"no utilization report for device {name!r}")

    def raise_if_overcommitted(self) -> None:
        """Raise the paper's section 3.3.1 errors on over-commitment."""
        if self.max_capacity_utilization > 1.0:
            raise CapacityExceededError(
                self.max_capacity_device or "?", self.max_capacity_utilization
            )
        if self.max_bandwidth_utilization > 1.0:
            raise BandwidthExceededError(
                self.max_bandwidth_device or "?", self.max_bandwidth_utilization
            )


def compute_utilization(
    design: StorageDesign, demands: DemandLedger, strict: bool = False
) -> SystemUtilization:
    """Collect the design's per-device utilizations and the global maxima.

    ``demands`` is the design's ledger (see
    :func:`~repro.core.demands.register_design_demands`).  With
    ``strict=True`` an over-committed device raises immediately.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("utilization.compute", design=design.name) as span:
        result = SystemUtilization.of(design.devices(), demands)
        max_cap = result.max_capacity_utilization
        max_bw = result.max_bandwidth_utilization
        span.set(
            devices=len(result.devices), max_capacity=max_cap, max_bandwidth=max_bw
        )
        metrics.inc("utilization.computations")
        metrics.set_gauge("utilization.max_capacity", max_cap)
        metrics.set_gauge("utilization.max_bandwidth", max_bw)
        if strict:
            result.raise_if_overcommitted()
        return result
