"""Building framework objects from plain dictionaries (JSON-friendly).

The CLI and configuration files describe evaluations declaratively;
this module turns those descriptions into framework objects.  Strings
use the same vocabulary as the paper's tables (``"12 hr"``,
``"799 KB/s"``), and each ``kind`` tag names a class:

* workloads: a preset name (``"cello"``, ``"oltp"``, ``"web"``) or a
  full parameter dictionary;
* devices: ``disk_array`` / ``tape_library`` / ``vault`` /
  ``network_link`` / ``shipment``, or ``catalog: <factory>`` to use a
  Table 4 preset;
* techniques: ``primary`` / ``snapshot`` / ``split_mirror`` /
  ``sync_mirror`` / ``async_mirror`` / ``batched_async_mirror`` /
  ``backup`` / ``vaulting``;
* scenarios: ``object`` / ``array`` / ``building`` / ``site`` /
  ``region``;
* designs: a named case-study design or ``{name, levels: [...]}``.

Unknown keys raise immediately — a typo in a config should never
silently fall back to a default.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional

from .casestudy import all_table7_designs
from .core.cost import CostBreakdown
from .core.dataloss import DataLossResult, LevelRange
from .core.hierarchy import StorageDesign
from .core.recovery import RecoveryPlan, RecoveryStep
from .core.results import Assessment
from .core.utilization import SystemUtilization
from .devices.base import DeviceUtilization, TechniqueUtilization
from .obs.provenance import EvaluationProvenance
from .devices import catalog as device_catalog
from .devices.base import Device
from .devices.costs import CostModel
from .devices.disk_array import DiskArray
from .devices.interconnect import NetworkLink, Shipment
from .devices.spares import SpareConfig, SpareType
from .devices.tape_library import TapeLibrary
from .devices.vault import Vault
from .exceptions import DesignError
from .scenarios.failures import FailureScenario, FailureScope
from .scenarios.locations import Location
from .scenarios.requirements import BusinessRequirements
from .techniques.backup import Backup, IncrementalKind, IncrementalPolicy
from .techniques.base import ProtectionTechnique
from .techniques.mirroring import AsyncMirror, BatchedAsyncMirror, SyncMirror
from .techniques.primary import PrimaryCopy
from .techniques.snapshot import VirtualSnapshot
from .techniques.split_mirror import SplitMirror
from .techniques.vaulting import RemoteVaulting
from .units import YEAR, parse_duration
from .workload.batch_curve import BatchUpdateCurve
from .workload.presets import cello, oltp_database, web_server
from .workload.spec import Workload

_WORKLOAD_PRESETS: "Dict[str, Callable[[], Workload]]" = {
    "cello": cello,
    "oltp": oltp_database,
    "web": web_server,
}


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise DesignError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _integer(
    mapping: Mapping[str, Any], key: str, context: str, default: Any = None
) -> int:
    """An integer field; required unless ``default`` is given.

    A bool, a float (``1000.5``) or a numeric string (``"1000"``) is a
    :class:`DesignError` naming the field, not a ``TypeError`` later.
    """
    if default is None:
        value = _require(mapping, key, context)
    else:
        value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DesignError(
            f"{context}: {key!r} must be an integer, got {value!r}"
        )
    return value


def _check_keys(mapping: Mapping[str, Any], allowed: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise DesignError(
            f"{context}: unknown keys {sorted(unknown)!r} "
            f"(allowed: {sorted(allowed)!r})"
        )


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def workload_from_spec(spec: Any) -> Workload:
    """A preset name or a full workload dictionary."""
    if isinstance(spec, str):
        try:
            return _WORKLOAD_PRESETS[spec]()
        except KeyError:
            raise DesignError(
                f"unknown workload preset {spec!r} "
                f"(available: {sorted(_WORKLOAD_PRESETS)})"
            ) from None
    _check_keys(
        spec,
        {
            "name",
            "data_capacity",
            "avg_access_rate",
            "avg_update_rate",
            "burst_multiplier",
            "batch_curve",
            "short_window_rate",
        },
        "workload",
    )
    curve = BatchUpdateCurve(
        _require(spec, "batch_curve", "workload"),
        short_window_rate=spec.get("short_window_rate"),
    )
    return Workload(
        name=spec.get("name", "custom"),
        data_capacity=_require(spec, "data_capacity", "workload"),
        avg_access_rate=_require(spec, "avg_access_rate", "workload"),
        avg_update_rate=_require(spec, "avg_update_rate", "workload"),
        burst_multiplier=spec.get("burst_multiplier", 1.0),
        batch_curve=curve,
    )


# ---------------------------------------------------------------------------
# Devices.
# ---------------------------------------------------------------------------


def _location_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[Location]:
    if spec is None:
        return None
    _check_keys(spec, {"region", "site", "building"}, "location")
    return Location(
        region=_require(spec, "region", "location"),
        site=_require(spec, "site", "location"),
        building=spec.get("building", "main"),
    )


def _spare_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[SpareConfig]:
    if spec is None:
        return None
    _check_keys(spec, {"type", "provisioning_time", "discount"}, "spare")
    spare_type = SpareType(_require(spec, "type", "spare"))
    if spare_type is SpareType.NONE:
        return SpareConfig.none()
    return SpareConfig(
        spare_type,
        provisioning_time=spec.get("provisioning_time", 0.0),
        discount=spec.get("discount", 0.0),
    )


def _cost_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[CostModel]:
    if spec is None:
        return None
    _check_keys(
        spec, {"fixed", "per_gb", "per_mb_per_sec", "per_shipment"}, "cost_model"
    )
    return CostModel.from_paper_units(
        fixed=spec.get("fixed", 0.0),
        per_gb=spec.get("per_gb", 0.0),
        per_mb_per_sec=spec.get("per_mb_per_sec", 0.0),
        per_shipment=spec.get("per_shipment", 0.0),
    )


_CATALOG_FACTORIES = {
    "midrange_disk_array": device_catalog.midrange_disk_array,
    "enterprise_tape_library": device_catalog.enterprise_tape_library,
    "offsite_vault": device_catalog.offsite_vault,
    "air_shipment": device_catalog.air_shipment,
    "oc3_links": device_catalog.oc3_links,
    "san_link": device_catalog.san_link,
}


def device_from_spec(spec: Mapping[str, Any]) -> Device:
    """A catalog preset reference or a fully specified device."""
    if "catalog" in spec:
        _check_keys(spec, {"catalog", "name", "link_count", "location"}, "device")
        factory_name = spec["catalog"]
        try:
            factory = _CATALOG_FACTORIES[factory_name]
        except KeyError:
            raise DesignError(
                f"unknown catalog device {factory_name!r} "
                f"(available: {sorted(_CATALOG_FACTORIES)})"
            ) from None
        kwargs: "Dict[str, Any]" = {}
        if "name" in spec:
            kwargs["name"] = spec["name"]
        if "link_count" in spec:
            if factory_name != "oc3_links":
                raise DesignError("link_count applies only to oc3_links")
            kwargs["link_count"] = spec["link_count"]
        location = _location_from_spec(spec.get("location"))
        if location is not None:
            kwargs["location"] = location
        return factory(**kwargs)

    kind = _require(spec, "kind", "device")
    common = {"kind", "name", "location", "spare", "cost_model"}
    location = _location_from_spec(spec.get("location"))
    spare = _spare_from_spec(spec.get("spare"))
    cost = _cost_from_spec(spec.get("cost_model"))
    extras: "Dict[str, Any]" = {}
    if location is not None:
        extras["location"] = location

    if kind == "disk_array":
        _check_keys(
            spec,
            common | {
                "max_capacity_slots", "slot_capacity", "max_bandwidth_slots",
                "slot_bandwidth", "enclosure_bandwidth", "raid_capacity_factor",
            },
            "disk_array",
        )
        return DiskArray(
            name=_require(spec, "name", "disk_array"),
            max_capacity_slots=_require(spec, "max_capacity_slots", "disk_array"),
            slot_capacity=_require(spec, "slot_capacity", "disk_array"),
            max_bandwidth_slots=_require(spec, "max_bandwidth_slots", "disk_array"),
            slot_bandwidth=_require(spec, "slot_bandwidth", "disk_array"),
            enclosure_bandwidth=_require(spec, "enclosure_bandwidth", "disk_array"),
            raid_capacity_factor=spec.get("raid_capacity_factor", 2.0),
            cost_model=cost,
            spare=spare,
            **extras,
        )
    if kind == "tape_library":
        _check_keys(
            spec,
            common | {
                "max_cartridges", "cartridge_capacity", "max_drives",
                "drive_bandwidth", "enclosure_bandwidth", "access_delay",
            },
            "tape_library",
        )
        return TapeLibrary(
            name=_require(spec, "name", "tape_library"),
            max_cartridges=_require(spec, "max_cartridges", "tape_library"),
            cartridge_capacity=_require(spec, "cartridge_capacity", "tape_library"),
            max_drives=_require(spec, "max_drives", "tape_library"),
            drive_bandwidth=_require(spec, "drive_bandwidth", "tape_library"),
            enclosure_bandwidth=_require(spec, "enclosure_bandwidth", "tape_library"),
            access_delay=spec.get("access_delay", "0.01 hr"),
            cost_model=cost,
            spare=spare,
            **extras,
        )
    if kind == "vault":
        _check_keys(
            spec, common | {"max_cartridges", "cartridge_capacity"}, "vault"
        )
        return Vault(
            name=_require(spec, "name", "vault"),
            max_cartridges=_require(spec, "max_cartridges", "vault"),
            cartridge_capacity=_require(spec, "cartridge_capacity", "vault"),
            cost_model=cost,
            spare=spare,
            **extras,
        )
    if kind == "network_link":
        _check_keys(
            spec,
            common | {"link_bandwidth", "link_count", "propagation_delay"},
            "network_link",
        )
        return NetworkLink(
            name=_require(spec, "name", "network_link"),
            link_bandwidth=_require(spec, "link_bandwidth", "network_link"),
            link_count=spec.get("link_count", 1),
            propagation_delay=spec.get("propagation_delay", 0.0),
            cost_model=cost,
            spare=spare,
            **extras,
        )
    if kind == "shipment":
        _check_keys(spec, common | {"delay"}, "shipment")
        return Shipment(
            name=_require(spec, "name", "shipment"),
            delay=spec.get("delay", "24 hr"),
            cost_model=cost,
            **extras,
        )
    raise DesignError(f"unknown device kind {kind!r}")


# ---------------------------------------------------------------------------
# Techniques.
# ---------------------------------------------------------------------------


def technique_from_spec(spec: Mapping[str, Any]) -> ProtectionTechnique:
    """Build a technique from its kind tag and parameters."""
    kind = _require(spec, "kind", "technique")
    if kind == "primary":
        _check_keys(spec, {"kind", "name"}, "primary")
        return PrimaryCopy(name=spec.get("name", "foreground workload"))
    if kind == "snapshot":
        _check_keys(
            spec, {"kind", "name", "accumulation_window", "retention_count"},
            "snapshot",
        )
        return VirtualSnapshot(
            accumulation_window=_require(spec, "accumulation_window", "snapshot"),
            retention_count=_require(spec, "retention_count", "snapshot"),
            name=spec.get("name", "virtual snapshot"),
        )
    if kind == "split_mirror":
        _check_keys(
            spec, {"kind", "name", "accumulation_window", "retention_count"},
            "split_mirror",
        )
        return SplitMirror(
            accumulation_window=_require(spec, "accumulation_window", "split_mirror"),
            retention_count=_require(spec, "retention_count", "split_mirror"),
            name=spec.get("name", "split mirror"),
        )
    if kind == "sync_mirror":
        _check_keys(spec, {"kind", "name"}, "sync_mirror")
        return SyncMirror(name=spec.get("name", "sync mirror"))
    if kind == "async_mirror":
        _check_keys(spec, {"kind", "name", "write_behind_lag"}, "async_mirror")
        return AsyncMirror(
            write_behind_lag=spec.get("write_behind_lag", "30 s"),
            name=spec.get("name", "async mirror"),
        )
    if kind == "batched_async_mirror":
        _check_keys(
            spec,
            {
                "kind", "name", "accumulation_window", "propagation_window",
                "hold_window", "retention_count",
            },
            "batched_async_mirror",
        )
        return BatchedAsyncMirror(
            accumulation_window=spec.get("accumulation_window", "1 min"),
            propagation_window=spec.get("propagation_window"),
            hold_window=spec.get("hold_window", 0.0),
            retention_count=spec.get("retention_count", 1),
            name=spec.get("name", "asyncB mirror"),
        )
    if kind == "backup":
        _check_keys(
            spec,
            {
                "kind", "name", "full_accumulation_window",
                "full_propagation_window", "full_hold_window",
                "retention_count", "incremental",
            },
            "backup",
        )
        incremental = None
        if spec.get("incremental") is not None:
            inc = spec["incremental"]
            _check_keys(
                inc,
                {
                    "kind", "count", "accumulation_window",
                    "propagation_window", "hold_window",
                },
                "incremental",
            )
            incremental = IncrementalPolicy(
                kind=IncrementalKind(_require(inc, "kind", "incremental")),
                count=_require(inc, "count", "incremental"),
                accumulation_window=_require(inc, "accumulation_window", "incremental"),
                propagation_window=_require(inc, "propagation_window", "incremental"),
                hold_window=inc.get("hold_window", 0.0),
            )
        return Backup(
            full_accumulation_window=_require(
                spec, "full_accumulation_window", "backup"
            ),
            full_propagation_window=_require(
                spec, "full_propagation_window", "backup"
            ),
            full_hold_window=spec.get("full_hold_window", 0.0),
            retention_count=spec.get("retention_count", 1),
            incremental=incremental,
            name=spec.get("name", "backup"),
        )
    if kind == "vaulting":
        _check_keys(
            spec,
            {
                "kind", "name", "accumulation_window", "propagation_window",
                "hold_window", "retention_count",
            },
            "vaulting",
        )
        return RemoteVaulting(
            accumulation_window=_require(spec, "accumulation_window", "vaulting"),
            propagation_window=_require(spec, "propagation_window", "vaulting"),
            hold_window=_require(spec, "hold_window", "vaulting"),
            retention_count=_require(spec, "retention_count", "vaulting"),
            name=spec.get("name", "remote vaulting"),
        )
    raise DesignError(f"unknown technique kind {kind!r}")


# ---------------------------------------------------------------------------
# Designs, scenarios and requirements.
# ---------------------------------------------------------------------------


def design_from_spec(spec: Any) -> StorageDesign:
    """A named case-study design or a full ``{name, levels}`` dictionary.

    Devices may be shared across levels by giving them an ``id`` and
    referring to it with ``{"ref": "<id>"}`` (the split-mirror level
    lives on the primary array this way).
    """
    if isinstance(spec, str):
        designs = all_table7_designs()
        if spec not in designs:
            raise DesignError(
                f"unknown named design {spec!r} (available: {sorted(designs)})"
            )
        return designs[spec]
    _check_keys(spec, {"name", "levels", "recovery_facility"}, "design")
    design = StorageDesign(
        _require(spec, "name", "design"),
        recovery_facility=_spare_from_spec(spec.get("recovery_facility")),
    )
    devices_by_id: "Dict[str, Device]" = {}

    def resolve_device(device_spec: Any, context: str) -> Device:
        if device_spec is None:
            raise DesignError(f"{context}: device required")
        if "ref" in device_spec:
            ref = device_spec["ref"]
            if ref not in devices_by_id:
                raise DesignError(f"{context}: unknown device ref {ref!r}")
            return devices_by_id[ref]
        local = dict(device_spec)
        device_id = local.pop("id", None)
        device = device_from_spec(local)
        if device_id is not None:
            devices_by_id[device_id] = device
        return device

    for index, level_spec in enumerate(_require(spec, "levels", "design")):
        _check_keys(
            level_spec,
            {"technique", "store", "transport", "feeds_from"},
            f"level {index}",
        )
        technique = technique_from_spec(_require(level_spec, "technique", f"level {index}"))
        store = resolve_device(_require(level_spec, "store", f"level {index}"), f"level {index}")
        transport = None
        if level_spec.get("transport") is not None:
            transport = resolve_device(level_spec["transport"], f"level {index}")
        design.add_level(
            technique,
            store=store,
            transport=transport,
            feeds_from=level_spec.get("feeds_from"),
        )
    return design


def scenario_from_spec(spec: Any) -> FailureScenario:
    """A scope-name string or a full scenario dictionary."""
    if isinstance(spec, str):
        spec = {"scope": spec}
    _check_keys(
        spec,
        {"scope", "failed_device", "failed_location", "recovery_target_age",
         "object_size"},
        "scenario",
    )
    scope = FailureScope(_require(spec, "scope", "scenario"))
    defaults: "Dict[str, Any]" = {}
    if scope is FailureScope.DISK_ARRAY:
        defaults["failed_device"] = spec.get("failed_device", "primary-array")
    if scope is FailureScope.DATA_OBJECT:
        defaults["object_size"] = spec.get("object_size", "1 MB")
    return FailureScenario(
        scope=scope,
        failed_device=defaults.get("failed_device", spec.get("failed_device")),
        failed_location=_location_from_spec(spec.get("failed_location")),
        recovery_target_age=spec.get("recovery_target_age", 0.0),
        object_size=defaults.get("object_size", spec.get("object_size")),
    )


def requirements_from_spec(spec: Mapping[str, Any]) -> BusinessRequirements:
    """Penalty rates in $/hour plus optional RTO/RPO."""
    _check_keys(
        spec,
        {"unavailability_per_hour", "loss_per_hour", "rto", "rpo"},
        "requirements",
    )
    return BusinessRequirements.per_hour(
        unavailability_dollars_per_hour=_require(
            spec, "unavailability_per_hour", "requirements"
        ),
        loss_dollars_per_hour=_require(spec, "loss_per_hour", "requirements"),
        rto=spec.get("rto"),
        rpo=spec.get("rpo"),
    )


# ---------------------------------------------------------------------------
# Provenance records.
# ---------------------------------------------------------------------------


def provenance_to_dict(provenance: EvaluationProvenance) -> "Dict[str, Any]":
    """An assessment's provenance record as a JSON-friendly dictionary."""
    return provenance.to_dict()


def provenance_from_spec(spec: Mapping[str, Any]) -> EvaluationProvenance:
    """Rebuild a provenance record from its dictionary form.

    Unlike the strict spec parsers above, unknown keys are *ignored*:
    provenance is an output record, so one written by a newer version
    (with extra fields) must still load on this one.
    """
    return EvaluationProvenance.from_dict(spec)


# ---------------------------------------------------------------------------
# Canonical JSON.
# ---------------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of a JSON-able value.

    Keys are sorted and no whitespace is emitted, so two structurally
    equal values always yield byte-identical text — the property the
    engine's content-addressed cache keys rely on.  Non-finite floats
    are emitted in Python's ``Infinity``/``NaN`` extension (the text is
    hashed and re-read by this package, never by a strict parser).
    Non-JSON objects raise ``TypeError`` rather than being coerced.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


# ---------------------------------------------------------------------------
# Assessment records: full round-trip of evaluation *outputs*.
#
# Spec parsing above is strict (a typo must raise); these are output
# records like provenance, so loading tolerates exactly the shapes this
# version writes.  The engine's persistent result cache stores these.
# ---------------------------------------------------------------------------


def location_to_dict(location: Location) -> "Dict[str, Any]":
    """A location as the same dictionary shape the spec parser accepts."""
    return {
        "region": location.region,
        "site": location.site,
        "building": location.building,
    }


def scenario_to_dict(scenario: FailureScenario) -> "Dict[str, Any]":
    """A failure scenario as a plain dictionary (base units)."""
    return {
        "scope": scenario.scope.value,
        "failed_device": scenario.failed_device,
        "failed_location": (
            None
            if scenario.failed_location is None
            else location_to_dict(scenario.failed_location)
        ),
        "recovery_target_age": scenario.recovery_target_age,
        "object_size": scenario.object_size,
    }


def scenario_from_dict(data: Mapping[str, Any]) -> FailureScenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output."""
    return FailureScenario(
        scope=FailureScope(data["scope"]),
        failed_device=data.get("failed_device"),
        failed_location=_location_from_spec(data.get("failed_location")),
        recovery_target_age=data.get("recovery_target_age", 0.0),
        object_size=data.get("object_size"),
    )


def requirements_to_dict(requirements: BusinessRequirements) -> "Dict[str, Any]":
    """Business requirements with rates in base units ($/second)."""
    return {
        "unavailability_penalty_rate": requirements.unavailability_penalty_rate,
        "loss_penalty_rate": requirements.loss_penalty_rate,
        "rto": requirements.rto,
        "rpo": requirements.rpo,
    }


def requirements_from_dict(data: Mapping[str, Any]) -> BusinessRequirements:
    """Rebuild requirements from :func:`requirements_to_dict` output."""
    return BusinessRequirements(
        unavailability_penalty_rate=data["unavailability_penalty_rate"],
        loss_penalty_rate=data["loss_penalty_rate"],
        rto=data.get("rto"),
        rpo=data.get("rpo"),
    )


def utilization_to_dict(utilization: SystemUtilization) -> "Dict[str, Any]":
    """The full utilization picture, per-device reports included."""
    return {
        "devices": [
            {
                "device_name": report.device_name,
                "bandwidth_demand": report.bandwidth_demand,
                "bandwidth_utilization": report.bandwidth_utilization,
                "capacity_demand_raw": report.capacity_demand_raw,
                "capacity_demand_logical": report.capacity_demand_logical,
                "capacity_utilization": report.capacity_utilization,
                "by_technique": [
                    {
                        "technique": share.technique,
                        "bandwidth": share.bandwidth,
                        "bandwidth_utilization": share.bandwidth_utilization,
                        "capacity": share.capacity,
                        "capacity_utilization": share.capacity_utilization,
                    }
                    for share in report.by_technique
                ],
            }
            for report in utilization.devices
        ],
        "max_capacity_utilization": utilization.max_capacity_utilization,
        "max_capacity_device": utilization.max_capacity_device,
        "max_bandwidth_utilization": utilization.max_bandwidth_utilization,
        "max_bandwidth_device": utilization.max_bandwidth_device,
    }


def utilization_from_dict(data: Mapping[str, Any]) -> SystemUtilization:
    """Rebuild utilization from :func:`utilization_to_dict` output."""
    return SystemUtilization(
        devices=tuple(
            DeviceUtilization(
                device_name=report["device_name"],
                bandwidth_demand=report["bandwidth_demand"],
                bandwidth_utilization=report["bandwidth_utilization"],
                capacity_demand_raw=report["capacity_demand_raw"],
                capacity_demand_logical=report["capacity_demand_logical"],
                capacity_utilization=report["capacity_utilization"],
                by_technique=tuple(
                    TechniqueUtilization(
                        technique=share["technique"],
                        bandwidth=share["bandwidth"],
                        bandwidth_utilization=share["bandwidth_utilization"],
                        capacity=share["capacity"],
                        capacity_utilization=share["capacity_utilization"],
                    )
                    for share in report.get("by_technique", ())
                ),
            )
            for report in data["devices"]
        ),
        max_capacity_utilization=data["max_capacity_utilization"],
        max_capacity_device=data.get("max_capacity_device"),
        max_bandwidth_utilization=data["max_bandwidth_utilization"],
        max_bandwidth_device=data.get("max_bandwidth_device"),
    )


def data_loss_to_dict(loss: DataLossResult) -> "Dict[str, Any]":
    """A data-loss result with the source level flattened to its identity."""
    return {
        "source_index": loss.source_index,
        "source_technique": loss.source_technique,
        "data_loss": loss.data_loss,
        "total_loss": loss.total_loss,
        "target_age": loss.target_age,
        "ranges": [
            {
                "level_index": rng.level_index,
                "technique_name": rng.technique_name,
                "newest_age": rng.newest_age,
                "oldest_age": rng.oldest_age,
            }
            for rng in loss.ranges
        ],
    }


def data_loss_from_dict(data: Mapping[str, Any]) -> DataLossResult:
    """Rebuild a data-loss result (``source_level`` itself is not
    restorable — the identity fields carry its name and index)."""
    return DataLossResult(
        source_level=None,
        data_loss=data["data_loss"],
        total_loss=data["total_loss"],
        target_age=data["target_age"],
        ranges=tuple(
            LevelRange(
                level_index=rng["level_index"],
                technique_name=rng["technique_name"],
                newest_age=rng["newest_age"],
                oldest_age=rng["oldest_age"],
            )
            for rng in data.get("ranges", ())
        ),
        source_index=data.get("source_index"),
        source_technique=data.get("source_technique"),
    )


def recovery_plan_to_dict(plan: RecoveryPlan) -> "Dict[str, Any]":
    """A recovery plan, steps and all (enough to re-render Figure 4)."""
    return {
        "source_level_index": plan.source_level_index,
        "source_name": plan.source_name,
        "recovery_size": plan.recovery_size,
        "recovery_time": plan.recovery_time,
        "steps": [
            {
                "label": step.label,
                "kind": step.kind,
                "start": step.start,
                "end": step.end,
                "devices": list(step.devices),
            }
            for step in plan.steps
        ],
    }


def recovery_plan_from_dict(data: Mapping[str, Any]) -> RecoveryPlan:
    """Rebuild a recovery plan from :func:`recovery_plan_to_dict` output."""
    return RecoveryPlan(
        source_level_index=data["source_level_index"],
        source_name=data["source_name"],
        recovery_size=data["recovery_size"],
        steps=tuple(
            RecoveryStep(
                label=step["label"],
                kind=step["kind"],
                start=step["start"],
                end=step["end"],
                devices=tuple(step.get("devices", ())),
            )
            for step in data.get("steps", ())
        ),
        recovery_time=data["recovery_time"],
    )


def cost_breakdown_to_dict(costs: CostBreakdown) -> "Dict[str, Any]":
    """Outlays by technique plus the penalty terms."""
    return {
        "outlays_by_technique": dict(costs.outlays_by_technique),
        "outage_penalty": costs.outage_penalty,
        "loss_penalty": costs.loss_penalty,
    }


def cost_breakdown_from_dict(data: Mapping[str, Any]) -> CostBreakdown:
    """Rebuild a cost breakdown from :func:`cost_breakdown_to_dict` output."""
    return CostBreakdown(
        outlays_by_technique=dict(data["outlays_by_technique"]),
        outage_penalty=data["outage_penalty"],
        loss_penalty=data["loss_penalty"],
    )


def assessment_to_dict(assessment: Assessment) -> "Dict[str, Any]":
    """One full assessment as a JSON-friendly dictionary.

    Everything reports and rankings read — the four output metrics, the
    per-device utilization rows, the recovery timeline, the cost
    breakdown and the provenance record — survives the round trip.
    """
    return {
        "design_name": assessment.design_name,
        "scenario": scenario_to_dict(assessment.scenario),
        "requirements": requirements_to_dict(assessment.requirements),
        "utilization": utilization_to_dict(assessment.utilization),
        "data_loss": data_loss_to_dict(assessment.data_loss),
        "recovery": (
            None
            if assessment.recovery is None
            else recovery_plan_to_dict(assessment.recovery)
        ),
        "costs": cost_breakdown_to_dict(assessment.costs),
        "provenance": (
            None
            if assessment.provenance is None
            else assessment.provenance.to_dict()
        ),
    }


def assessment_from_dict(data: Mapping[str, Any]) -> Assessment:
    """Rebuild an assessment from :func:`assessment_to_dict` output."""
    provenance = data.get("provenance")
    recovery = data.get("recovery")
    return Assessment(
        design_name=data["design_name"],
        scenario=scenario_from_dict(data["scenario"]),
        requirements=requirements_from_dict(data["requirements"]),
        utilization=utilization_from_dict(data["utilization"]),
        data_loss=data_loss_from_dict(data["data_loss"]),
        recovery=None if recovery is None else recovery_plan_from_dict(recovery),
        costs=cost_breakdown_from_dict(data["costs"]),
        provenance=(
            None if provenance is None else EvaluationProvenance.from_dict(provenance)
        ),
    )


# ---------------------------------------------------------------------------
# Scenario ensembles: rated-scenario specs for the risk layer.
#
# Strict spec parsing, like the design/scenario parsers above.  The
# risk package imports this module, so everything here imports
# ``repro.risk`` lazily.
# ---------------------------------------------------------------------------


def _event_rate_from_spec(value: Any, context: str) -> float:
    """An occurrence rate in events/second.

    Strings carry their unit (``"0.5/yr"``, ``"2/wk"``); bare numbers
    are events per *second* like every other bare quantity in a spec.
    """
    from .units import UnitError, parse_event_rate

    try:
        return parse_event_rate(value)
    except UnitError as error:
        raise DesignError(f"{context}: {error}") from error


def ensemble_from_spec(spec: Mapping[str, Any]) -> "Any":
    """Build a :class:`repro.risk.ScenarioEnsemble` from its spec.

    The spec groups members by how their rates arise::

        {"name": "mixed",
         "members": [
             {"id": "array", "scenario": "array", "rate": "0.5/yr"},
             {"id": "raid", "scenario": "array",
              "kofn": {"n": 8, "k": 6, "unit_rate": "2/yr",
                       "repair_time": "8 hr", "repair": "parallel"}}],
         "correlated": [
             {"id": "array-bk", "rate": "0.5/yr", "fraction": 0.25,
              "base": "array", "correlated": "building"}],
         "cascades": [
             {"id": "site", "rate": "0.01/yr", "primary": "array",
              "escalated": "site", "secondary_rate": "0.5/yr"}],
         "generate": {"object_grid": {"count": 1000,
                                      "total_rate": "12/yr"}}}

    Scenario references reuse :func:`scenario_from_spec` (scope-name
    strings or full dictionaries).  Each declared member's rate comes
    either from an explicit ``rate`` or from a ``kofn`` redundancy
    model — exactly one.  A cascade takes exactly one of
    ``secondary_rate`` / ``probability``.  ``generate`` appends the
    members of a generated ensemble (currently ``object_grid``), kept
    as a :class:`repro.risk.MemberGrid` rule rather than built.
    """
    from .risk import (
        CascadeSpec,
        EnsembleMember,
        EnsembleMembers,
        KofNModel,
        ScenarioEnsemble,
        correlated_pair,
        object_corruption_grid,
    )

    _check_keys(
        spec,
        {"name", "members", "correlated", "cascades", "generate"},
        "ensemble",
    )
    name = _require(spec, "name", "ensemble")
    members: "List[Any]" = []

    for index, member_spec in enumerate(spec.get("members", ())):
        context = f"ensemble member {index}"
        _check_keys(member_spec, {"id", "scenario", "rate", "kofn"}, context)
        member_id = _require(member_spec, "id", context)
        scenario = scenario_from_spec(_require(member_spec, "scenario", context))
        has_rate = "rate" in member_spec
        has_kofn = "kofn" in member_spec
        if has_rate == has_kofn:
            raise DesignError(
                f"{context} ({member_id!r}): needs exactly one of "
                "'rate' or 'kofn'"
            )
        if has_rate:
            rate = _event_rate_from_spec(member_spec["rate"], context)
            members.append(EnsembleMember(member_id, scenario, rate))
        else:
            kofn_spec = member_spec["kofn"]
            _check_keys(
                kofn_spec,
                {"n", "k", "unit_rate", "repair_time", "repair"},
                f"{context} kofn",
            )
            model = KofNModel(
                n=_integer(kofn_spec, "n", f"{context} kofn"),
                k=_integer(kofn_spec, "k", f"{context} kofn"),
                unit_rate=_event_rate_from_spec(
                    _require(kofn_spec, "unit_rate", f"{context} kofn"),
                    f"{context} kofn",
                ),
                repair_time=parse_duration(
                    _require(kofn_spec, "repair_time", f"{context} kofn")
                ),
                repair=kofn_spec.get("repair", "parallel"),
            )
            members.append(model.member(member_id, scenario))

    for index, pair_spec in enumerate(spec.get("correlated", ())):
        context = f"ensemble correlated {index}"
        _check_keys(
            pair_spec,
            {"id", "rate", "fraction", "base", "correlated"},
            context,
        )
        members.extend(
            correlated_pair(
                _require(pair_spec, "id", context),
                scenario_from_spec(_require(pair_spec, "base", context)),
                scenario_from_spec(_require(pair_spec, "correlated", context)),
                _event_rate_from_spec(
                    _require(pair_spec, "rate", context), context
                ),
                _require(pair_spec, "fraction", context),
            )
        )

    cascades: "List[Any]" = []
    for index, cascade_spec in enumerate(spec.get("cascades", ())):
        context = f"ensemble cascade {index}"
        _check_keys(
            cascade_spec,
            {"id", "rate", "primary", "escalated", "secondary_rate",
             "probability"},
            context,
        )
        secondary = cascade_spec.get("secondary_rate")
        cascades.append(
            CascadeSpec(
                member_id=_require(cascade_spec, "id", context),
                primary=scenario_from_spec(
                    _require(cascade_spec, "primary", context)
                ),
                occurrence_rate=_event_rate_from_spec(
                    _require(cascade_spec, "rate", context), context
                ),
                escalated=scenario_from_spec(
                    _require(cascade_spec, "escalated", context)
                ),
                secondary_rate=(
                    None
                    if secondary is None
                    else _event_rate_from_spec(secondary, context)
                ),
                probability=cascade_spec.get("probability"),
            )
        )

    grid = None
    generate = spec.get("generate")
    if generate is not None:
        _check_keys(generate, {"object_grid"}, "ensemble generate")
        grid_spec = _require(generate, "object_grid", "ensemble generate")
        _check_keys(
            grid_spec,
            {"count", "total_rate", "distinct_ages", "max_age",
             "object_size"},
            "object_grid",
        )
        grid = object_corruption_grid(
            count=_integer(grid_spec, "count", "object_grid"),
            total_rate_per_year=_event_rate_from_spec(
                _require(grid_spec, "total_rate", "object_grid"),
                "object_grid",
            ) * YEAR,
            distinct_ages=_integer(
                grid_spec, "distinct_ages", "object_grid", default=64
            ),
            max_age=grid_spec.get("max_age", "1 wk"),
            object_size=grid_spec.get("object_size", "1 MB"),
        ).members.grid

    return ScenarioEnsemble(
        name=name,
        members=EnsembleMembers(members, grid),
        cascades=tuple(cascades),
    )


def ensemble_to_dict(ensemble: "Any") -> "Dict[str, Any]":
    """An ensemble as a JSON-friendly output record.

    An *output* shape (like the assessment records above): every member
    fully expanded with its concrete rate — k-out-of-n models and
    generators have already been applied, so the record feeds reports
    and diffs, not :func:`ensemble_from_spec`.
    """
    return {
        "name": ensemble.name,
        "members": [
            {
                "id": member.member_id,
                "scenario": scenario_to_dict(member.scenario),
                "rate_per_year": member.rate_per_year,
            }
            for member in ensemble.members
        ],
        "cascades": [
            {
                "id": cascade.member_id,
                "primary": scenario_to_dict(cascade.primary),
                "escalated": scenario_to_dict(cascade.escalated),
                "rate_per_year": cascade.occurrence_rate * YEAR,
                "secondary_rate_per_year": (
                    None
                    if cascade.secondary_rate is None
                    else cascade.secondary_rate * YEAR
                ),
                "probability": cascade.probability,
            }
            for cascade in ensemble.cascades
        ],
    }
