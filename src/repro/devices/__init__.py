"""Hardware device models (paper sections 3.2.2 and 3.3.1).

Each storage or interconnect device is represented by an *operational
model* (capacity/bandwidth envelopes over which a design's demands
give normal-mode utilizations) and a *cost model* (annualized
outlays, attributed per data protection technique).  Keeping the device
internals behind this interface is what lets the compositional framework
swap in more sophisticated device models without change (paper §3).

Modules:

* :mod:`repro.devices.costs` — fixed / per-capacity / per-bandwidth /
  per-shipment cost components;
* :mod:`repro.devices.spares` — spare type, provisioning time, discount;
* :mod:`repro.devices.base` — demands and the utilization math;
* :mod:`repro.devices.disk_array` / :mod:`~repro.devices.tape_library` /
  :mod:`~repro.devices.vault` — storage devices;
* :mod:`repro.devices.interconnect` — network links and physical
  shipment (couriers are interconnects too, per the paper);
* :mod:`repro.devices.catalog` — the Table 4 presets.
"""

from .costs import CostModel
from .spares import SpareConfig, SpareType
from .base import Demand, Device, DeviceUtilization
from .disk_array import DiskArray
from .tape_library import TapeLibrary
from .vault import Vault
from .interconnect import Interconnect, NetworkLink, Shipment
from .catalog import (
    midrange_disk_array,
    enterprise_tape_library,
    offsite_vault,
    air_shipment,
    oc3_links,
    san_link,
)

__all__ = [
    "CostModel",
    "SpareConfig",
    "SpareType",
    "Demand",
    "Device",
    "DeviceUtilization",
    "DiskArray",
    "TapeLibrary",
    "Vault",
    "Interconnect",
    "NetworkLink",
    "Shipment",
    "midrange_disk_array",
    "enterprise_tape_library",
    "offsite_vault",
    "air_shipment",
    "oc3_links",
    "san_link",
]
