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

Every spec object is one row of :data:`SPEC_SCHEMA` (its required and
optional keys) and passes one gate, :func:`_fields`: a value of the
wrong shape, an unknown key or a missing required key is a
:class:`DesignError` naming where it is — a typo in a config should
never silently fall back to a default.  Only the keys present reach
the constructor (a null counts as absent), so the constructor owns
every default.
"""

from __future__ import annotations

import json
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

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
from .exceptions import DesignError, ReproError, UnitError
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
from .units import YEAR, parse_duration, parse_event_rate
from .workload.batch_curve import BatchUpdateCurve
from .workload.presets import cello, oltp_database, web_server
from .workload.spec import Workload

_WORKLOAD_PRESETS: "Dict[str, Callable[[], Workload]]" = {
    "cello": cello,
    "oltp": oltp_database,
    "web": web_server,
}


# ---------------------------------------------------------------------------
# The spec schema: one row per kind of spec object.
# ---------------------------------------------------------------------------


class SpecRow(NamedTuple):
    """The keys one kind of spec object may hold.

    ``required`` keys are checked in order; ``build`` is the class a
    device or technique ``kind`` constructs.
    """

    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    build: Optional[Callable[..., Any]] = None


_PLACED = ("location", "spare", "cost_model")

#: Every spec object's keys, by row name (a device or technique row is
#: named by its ``kind`` tag).  README's "Spec reference" lists them.
SPEC_SCHEMA: "Dict[str, SpecRow]" = {
    "workload": SpecRow(
        ("batch_curve", "data_capacity", "avg_access_rate", "avg_update_rate"),
        ("name", "burst_multiplier", "short_window_rate"),
    ),
    "catalog": SpecRow(("catalog",), ("name", "link_count", "location")),
    "disk_array": SpecRow(
        ("kind", "name", "max_capacity_slots", "slot_capacity",
         "max_bandwidth_slots", "slot_bandwidth", "enclosure_bandwidth"),
        ("raid_capacity_factor",) + _PLACED,
        DiskArray,
    ),
    "tape_library": SpecRow(
        ("kind", "name", "max_cartridges", "cartridge_capacity", "max_drives",
         "drive_bandwidth", "enclosure_bandwidth"),
        ("access_delay",) + _PLACED,
        TapeLibrary,
    ),
    "vault": SpecRow(
        ("kind", "name", "max_cartridges", "cartridge_capacity"), _PLACED, Vault
    ),
    "network_link": SpecRow(
        ("kind", "name", "link_bandwidth"),
        ("link_count", "propagation_delay") + _PLACED,
        NetworkLink,
    ),
    "shipment": SpecRow(
        ("kind", "name"), ("delay", "location", "cost_model"), Shipment
    ),
    "location": SpecRow(("region", "site"), ("building",)),
    "spare": SpecRow(("type",), ("provisioning_time", "discount")),
    "cost_model": SpecRow((), ("fixed", "per_gb", "per_mb_per_sec", "per_shipment")),
    "primary": SpecRow(("kind",), ("name",), PrimaryCopy),
    "snapshot": SpecRow(
        ("kind", "accumulation_window", "retention_count"), ("name",), VirtualSnapshot
    ),
    "split_mirror": SpecRow(
        ("kind", "accumulation_window", "retention_count"), ("name",), SplitMirror
    ),
    "sync_mirror": SpecRow(("kind",), ("name",), SyncMirror),
    "async_mirror": SpecRow(("kind",), ("name", "write_behind_lag"), AsyncMirror),
    "batched_async_mirror": SpecRow(
        ("kind",),
        ("name", "accumulation_window", "propagation_window", "hold_window",
         "retention_count"),
        BatchedAsyncMirror,
    ),
    "backup": SpecRow(
        ("kind", "full_accumulation_window", "full_propagation_window"),
        ("name", "full_hold_window", "retention_count", "incremental"),
        Backup,
    ),
    "vaulting": SpecRow(
        ("kind", "accumulation_window", "propagation_window", "hold_window",
         "retention_count"),
        ("name",),
        RemoteVaulting,
    ),
    "incremental": SpecRow(
        ("kind", "count", "accumulation_window", "propagation_window"),
        ("hold_window",),
    ),
    "design": SpecRow(("name", "levels"), ("recovery_facility",)),
    "level": SpecRow(("technique", "store"), ("transport", "feeds_from")),
    "ref": SpecRow(("ref",)),
    "scenario": SpecRow(
        ("scope",),
        ("failed_device", "failed_location", "recovery_target_age", "object_size"),
    ),
    "requirements": SpecRow(
        ("unavailability_per_hour", "loss_per_hour"), ("rto", "rpo")
    ),
    "ensemble": SpecRow(("name",), ("members", "correlated", "cascades", "generate")),
    "member": SpecRow(("id", "scenario"), ("rate", "kofn")),
    "kofn": SpecRow(("n", "k", "unit_rate", "repair_time"), ("repair",)),
    "correlated": SpecRow(("id", "base", "correlated", "rate", "fraction")),
    "cascade": SpecRow(
        ("id", "primary", "rate", "escalated"), ("secondary_rate", "probability")
    ),
    "generate": SpecRow(("object_grid",)),
    "object_grid": SpecRow(
        ("count", "total_rate"), ("distinct_ages", "max_age", "object_size")
    ),
}

_DEVICE_KINDS = ("disk_array", "tape_library", "vault", "network_link", "shipment")
_TECHNIQUE_KINDS = (
    "primary", "snapshot", "split_mirror", "sync_mirror", "async_mirror",
    "batched_async_mirror", "backup", "vaulting",
)


def _mapping(value: Any, context: str) -> "Mapping[str, Any]":
    if not isinstance(value, Mapping):
        raise DesignError(f"{context}: expected an object, got {value!r:.60}")
    return value


def _items(value: Any, context: str) -> "Sequence[Any]":
    if not isinstance(value, (list, tuple)):
        raise DesignError(f"{context}: expected a list, got {value!r:.60}")
    return value


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise DesignError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _fields(spec: Any, row: str, context: Optional[str] = None) -> "Dict[str, Any]":
    """The keys of one spec object, checked against its schema row.

    ``spec`` must be a mapping holding only the row's keys and all of
    its required ones.  The keys present come back (a null counts as
    absent), ready to pass to the constructor that owns the defaults.
    """
    context = context or row
    schema = SPEC_SCHEMA[row]
    present = {
        key: value for key, value in _mapping(spec, context).items()
        if value is not None
    }
    allowed = {*schema.required, *schema.optional}
    unknown = set(spec) - allowed
    if unknown:
        raise DesignError(
            f"{context}: unknown keys {sorted(unknown)!r} "
            f"(allowed: {sorted(allowed)!r})"
        )
    for key in schema.required:
        _require(present, key, context)
    return present


def _integer(fields: Mapping[str, Any], context: str, *keys: str) -> None:
    """Check the integer fields present.

    A bool, a float (``1000.5``) or a numeric string (``"1000"``) is a
    :class:`DesignError` naming the field, not a ``TypeError`` later.
    """
    for key in keys:
        value = fields.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise DesignError(
                f"{context}: {key!r} must be an integer, got {value!r}"
            )


def _call(context: str, build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, where a value of the wrong type or an
    unknown enum value is a :class:`DesignError` naming ``context``."""
    try:
        return build(*args, **kwargs)
    except ReproError:
        raise
    except (TypeError, ValueError) as error:
        raise DesignError(f"{context}: {error}") from error


def _event_rate(value: Any, context: str) -> float:
    """An occurrence rate in events/second.

    Strings carry their unit (``"0.5/yr"``, ``"2/wk"``); bare numbers
    are events per *second* like every other bare quantity in a spec.
    """
    try:
        return parse_event_rate(value)
    except (UnitError, TypeError) as error:
        raise DesignError(f"{context}: {error}") from error


# ---------------------------------------------------------------------------
# Workloads, devices and techniques.
# ---------------------------------------------------------------------------

#: The two workload fields whose constructor takes no default.
_WORKLOAD_DEFAULTS = {"name": "custom", "burst_multiplier": 1.0}


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
    fields = _fields(spec, "workload")
    curve = _call(
        "batch_curve",
        BatchUpdateCurve,
        _mapping(fields.pop("batch_curve"), "batch_curve"),
        short_window_rate=fields.pop("short_window_rate", None),
    )
    return _call(
        "workload", Workload, **{**_WORKLOAD_DEFAULTS, **fields}, batch_curve=curve
    )


def _location(spec: Any) -> Location:
    return _call("location", Location, **_fields(spec, "location"))


def _spare(spec: Any) -> SpareConfig:
    fields = _fields(spec, "spare")
    spare_type = _call("spare", SpareType, fields.pop("type"))
    return _call("spare", SpareConfig, spare_type, **fields)


def _cost(spec: Any) -> CostModel:
    fields = _fields(spec, "cost_model")
    return _call("cost_model", CostModel.from_paper_units, **fields)


def _incremental(spec: Any) -> IncrementalPolicy:
    fields = _fields(spec, "incremental")
    fields["kind"] = _call("incremental", IncrementalKind, fields["kind"])
    return _call("incremental", IncrementalPolicy, **fields)


#: Readers of the keys whose values are spec objects themselves.
_CONVERTERS: "Dict[str, Callable[[Any], Any]]" = {
    "location": _location,
    "failed_location": _location,
    "spare": _spare,
    "recovery_facility": _spare,
    "cost_model": _cost,
    "incremental": _incremental,
}


def _converted(fields: "Dict[str, Any]") -> "Dict[str, Any]":
    for key, read in _CONVERTERS.items():
        if key in fields:
            fields[key] = read(fields[key])
    return fields


def _of_kind(spec: Any, what: str, kinds: "Sequence[str]") -> Any:
    """The device or technique the spec's ``kind`` row builds."""
    kind = _require(_mapping(spec, what), "kind", what)
    if kind not in kinds:
        raise DesignError(f"unknown {what} kind {kind!r}")
    fields = _converted(_fields(spec, kind))
    del fields["kind"]
    return _call(kind, SPEC_SCHEMA[kind].build, **fields)


_CATALOG_FACTORIES = {
    "midrange_disk_array": device_catalog.midrange_disk_array,
    "enterprise_tape_library": device_catalog.enterprise_tape_library,
    "offsite_vault": device_catalog.offsite_vault,
    "air_shipment": device_catalog.air_shipment,
    "oc3_links": device_catalog.oc3_links,
    "san_link": device_catalog.san_link,
}


def device_from_spec(spec: Any) -> Device:
    """A catalog preset reference or a fully specified device."""
    if "catalog" not in _mapping(spec, "device"):
        return _of_kind(spec, "device", _DEVICE_KINDS)
    fields = _fields(spec, "catalog", "device")
    factory_name = fields.pop("catalog")
    factory = (
        _CATALOG_FACTORIES.get(factory_name) if isinstance(factory_name, str) else None
    )
    if factory is None:
        raise DesignError(
            f"unknown catalog device {factory_name!r} "
            f"(available: {sorted(_CATALOG_FACTORIES)})"
        )
    if "link_count" in fields and factory_name != "oc3_links":
        raise DesignError("link_count applies only to oc3_links")
    return _call(factory_name, factory, **_converted(fields))


def technique_from_spec(spec: Any) -> ProtectionTechnique:
    """Build a technique from its kind tag and parameters."""
    return _of_kind(spec, "technique", _TECHNIQUE_KINDS)


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
    fields = _converted(_fields(spec, "design"))
    levels = _items(fields.pop("levels"), "design levels")
    design = _call("design", StorageDesign, **fields)
    devices_by_id: "Dict[Hashable, Device]" = {}

    def resolve_device(device_spec: Any, context: str) -> Device:
        if "ref" in _mapping(device_spec, f"{context} device"):
            ref = _fields(device_spec, "ref", f"{context} device")["ref"]
            if not isinstance(ref, Hashable) or ref not in devices_by_id:
                raise DesignError(f"{context}: unknown device ref {ref!r}")
            return devices_by_id[ref]
        local = dict(device_spec)
        device_id = local.pop("id", None)
        if not isinstance(device_id, Hashable):
            raise DesignError(f"{context}: device id {device_id!r} is not a name")
        device = device_from_spec(local)
        if device_id is not None:
            devices_by_id[device_id] = device
        return device

    for index, level_spec in enumerate(levels):
        context = f"level {index}"
        level = _fields(level_spec, "level", context)
        level["technique"] = technique_from_spec(level["technique"])
        level["store"] = resolve_device(level["store"], context)
        if "transport" in level:
            level["transport"] = resolve_device(level["transport"], context)
        _call(context, design.add_level, **level)
    return design


#: Scope-dependent scenario defaults the constructor leaves to callers.
_SCOPE_DEFAULTS: "Dict[FailureScope, Dict[str, Any]]" = {
    FailureScope.DISK_ARRAY: {"failed_device": "primary-array"},
    FailureScope.DATA_OBJECT: {"object_size": "1 MB"},
}


def scenario_from_spec(spec: Any) -> FailureScenario:
    """A scope-name string or a full scenario dictionary."""
    if isinstance(spec, str):
        spec = {"scope": spec}
    fields = _converted(_fields(spec, "scenario"))
    scope = fields["scope"] = _call("scenario", FailureScope, fields["scope"])
    return _call(
        "scenario", FailureScenario, **{**_SCOPE_DEFAULTS.get(scope, {}), **fields}
    )


def scenarios_from_spec(spec: Any) -> "List[FailureScenario]":
    """A list of scenario specs."""
    return [scenario_from_spec(item) for item in _items(spec, "scenarios")]


def requirements_from_spec(spec: Any) -> BusinessRequirements:
    """Penalty rates in $/hour plus optional RTO/RPO."""
    fields = _fields(spec, "requirements")
    return _call(
        "requirements",
        BusinessRequirements.per_hour,
        fields.pop("unavailability_per_hour"),
        fields.pop("loss_per_hour"),
        **fields,
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
    location = data.get("failed_location")
    return FailureScenario(
        scope=FailureScope(data["scope"]),
        failed_device=data.get("failed_device"),
        failed_location=None if location is None else Location(**location),
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


def ensemble_from_spec(spec: Any) -> "Any":
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

    fields = _fields(spec, "ensemble")
    members: "List[Any]" = []

    for index, member_spec in enumerate(
        _items(fields.get("members", ()), "ensemble members")
    ):
        context = f"ensemble member {index}"
        member = _fields(member_spec, "member", context)
        scenario = scenario_from_spec(member["scenario"])
        if ("rate" in member) == ("kofn" in member):
            raise DesignError(
                f"{context} ({member['id']!r}): needs exactly one of "
                "'rate' or 'kofn'"
            )
        if "rate" in member:
            rate = _event_rate(member["rate"], context)
            members.append(_call(context, EnsembleMember, member["id"], scenario, rate))
            continue
        context += " kofn"
        kofn = _fields(member["kofn"], "kofn", context)
        _integer(kofn, context, "n", "k")
        kofn["unit_rate"] = _event_rate(kofn["unit_rate"], context)
        kofn["repair_time"] = _call(context, parse_duration, kofn["repair_time"])
        model = _call(context, KofNModel, **kofn)
        members.append(model.member(member["id"], scenario))

    for index, pair_spec in enumerate(
        _items(fields.get("correlated", ()), "ensemble correlated")
    ):
        context = f"ensemble correlated {index}"
        pair = _fields(pair_spec, "correlated", context)
        members.extend(
            _call(
                context,
                correlated_pair,
                pair["id"],
                scenario_from_spec(pair["base"]),
                scenario_from_spec(pair["correlated"]),
                _event_rate(pair["rate"], context),
                pair["fraction"],
            )
        )

    cascades: "List[Any]" = []
    for index, cascade_spec in enumerate(
        _items(fields.get("cascades", ()), "ensemble cascades")
    ):
        context = f"ensemble cascade {index}"
        cascade = _fields(cascade_spec, "cascade", context)
        if "secondary_rate" in cascade:
            cascade["secondary_rate"] = _event_rate(cascade["secondary_rate"], context)
        cascades.append(
            _call(
                context,
                CascadeSpec,
                member_id=cascade.pop("id"),
                primary=scenario_from_spec(cascade.pop("primary")),
                occurrence_rate=_event_rate(cascade.pop("rate"), context),
                escalated=scenario_from_spec(cascade.pop("escalated")),
                **cascade,
            )
        )

    grid = None
    if "generate" in fields:
        generate = _fields(fields["generate"], "generate", "ensemble generate")
        object_grid = _fields(generate["object_grid"], "object_grid")
        _integer(object_grid, "object_grid", "count", "distinct_ages")
        object_grid["total_rate_per_year"] = (
            _event_rate(object_grid.pop("total_rate"), "object_grid") * YEAR
        )
        grid = _call(
            "object_grid", object_corruption_grid, **object_grid
        ).members.grid

    return ScenarioEnsemble(
        name=fields["name"],
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
