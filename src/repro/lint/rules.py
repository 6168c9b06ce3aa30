"""The dependability anti-pattern rules (``DEP###``).

Static checks over a :class:`~repro.core.hierarchy.StorageDesign`, its
workload, the declared failure scenarios and business requirements —
*without evaluating*.  Each rule catches a design that would either
fail evaluation later (capacity overcommit, unknown devices) or, worse,
evaluate "successfully" while being structurally hopeless (every copy
in one building still produces a Table 6 row — it just loses everything
under a site failure).

The rule table:

========  ========  ===========  ================================================
code      severity  category     what it catches
========  ========  ===========  ================================================
DEP000    error     spec         spec file does not parse or build
DEP001    error     retention    retention-count inversion (retCnt_i+1 < retCnt_i)
DEP002    error     retention    accumulation window shorter than feeder's cycle
DEP003    warning   retention    hold window exceeds the feeder's retention
DEP004    error     placement    all RP copies lost under one declared scope
DEP005    error     objectives   declared RPO statically unreachable
DEP006    error     objectives   declared RTO below the bandwidth lower bound
DEP007    error     capacity     capacity overcommit on a bound device
DEP008    error     spec         dangling device ``ref`` in a serialized spec
DEP009    warning   spec         duplicate device id / ambiguous device name
DEP010    warning   sparing      no spare pool for hardware-replacement scenarios
DEP011    warning   units        penalty rate off by >= 10^3 (per-hour as per-s)
DEP012    error     scenario     scenario names a device the design lacks
DEP013    error     structure    empty design / level 0 is not a primary copy
DEP014    warning   structure    no secondary levels: any hardware loss is total
DEP015    error     spec         inconsistent risk ensemble (rates, ids, refs)
========  ========  ===========  ================================================

DEP001–DEP003 are the paper's section 3.2.1 inter-level conventions,
previously hard-coded in :mod:`repro.core.validate`; ``validate_design``
is now a thin string adapter over them (plus DEP013).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..scenarios.failures import FailureScenario, FailureScope
from ..units import (
    HOUR,
    UnitError,
    format_duration,
    format_money,
    format_size,
    parse_event_rate,
)
from .diagnostics import Diagnostic, Severity
from .registry import RuleContext, make, register_code, rule

register_code(
    "DEP000", Severity.ERROR, "spec", "Spec file does not parse or build."
)
register_code(
    "DEP099",
    Severity.WARNING,
    "spec",
    "An expected diagnostic (lint.expect) did not fire: stale suppression.",
)

def _secondary_pairs(design: Any) -> "Iterator[Tuple[Any, Any]]":
    """(feeder, level) pairs the 3.2.1 conventions compare.

    Levels fed directly by the primary copy are skipped: the conventions
    compare secondary levels to their *secondary* feeders.
    """
    for current in design.levels[1:]:
        previous = design.parent_of(current)
        if previous.index == 0:
            continue
        yield previous, current


def _hardware_scopes(
    ctx: RuleContext,
) -> "List[Tuple[FailureScenario, bool]]":
    """The hardware failure scenarios to check placement against.

    Declared scenarios are used as-is; with none declared, the linter
    hypothesizes building and site disasters at the primary location
    (the motivating anti-pattern: a hierarchy whose every copy sits in
    one building).  The bool marks whether the scenario was declared.
    """
    declared = [s for s in ctx.scenarios if s.scope.is_hardware]
    if declared:
        return [(scenario, True) for scenario in declared]
    return [
        (FailureScenario.building_disaster(), False),
        (FailureScenario.site_disaster(), False),
    ]


# ---------------------------------------------------------------------------
# Section 3.2.1 conventions (DEP001-DEP003).
# ---------------------------------------------------------------------------


@rule("DEP001", Severity.ERROR, "retention")
def retention_count_inversion(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A slower level retains fewer cycles than the level feeding it."""
    if ctx.design is None:
        return
    for previous, current in _secondary_pairs(ctx.design):
        prev_ret = ctx.facts.of(previous.technique).retention_count
        curr_ret = ctx.facts.of(current.technique).retention_count
        if prev_ret is None or curr_ret is None or curr_ret >= prev_ret:
            continue
        yield make(
            "DEP001",
            f"level {current.index} ({current.technique.name}) retains "
            f"fewer cycles ({curr_ret}) than level {previous.index} "
            f"({previous.technique.name}, {prev_ret}): slower levels must "
            "retain at least as much (paper section 3.2.1)",
            hint=(
                f"raise level {current.index}'s retention_count to at "
                f"least {prev_ret}"
            ),
            pointer=f"/levels/{current.index}/technique/retention_count",
        )


@rule("DEP002", Severity.ERROR, "retention")
def accumulation_window_inversion(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A level accumulates over less than its feeder's full cycle."""
    if ctx.design is None:
        return
    for previous, current in _secondary_pairs(ctx.design):
        prev_period = ctx.facts.of(previous.technique).period
        curr_period = ctx.facts.of(current.technique).period
        if prev_period is None or curr_period is None:
            continue
        if curr_period >= prev_period:
            continue
        yield make(
            "DEP002",
            f"level {current.index} ({current.technique.name}) "
            f"accumulates over {format_duration(curr_period)}, shorter "
            f"than level {previous.index}'s cycle period "
            f"({format_duration(prev_period)}): accW_i+1 >= cyclePer_i "
            "(paper section 3.2.1)",
            hint=(
                f"stretch level {current.index}'s accumulation window to "
                f"at least {format_duration(prev_period)}"
            ),
            pointer=f"/levels/{current.index}/technique/accumulation_window",
        )


@rule("DEP003", Severity.WARNING, "retention")
def hold_window_exceeds_retention(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A level holds RPs longer than its feeder retains them."""
    if ctx.design is None:
        return
    for previous, current in _secondary_pairs(ctx.design):
        hold = ctx.facts.of(current.technique).full_hold
        source = ctx.facts.of(previous.technique)
        if hold is None or source.retention_count is None or source.period is None:
            continue
        source_retention = source.retention_count * source.period
        if hold <= source_retention:
            continue
        # Backups name their full RP's hold ``full_hold_window``.
        hold_field = (
            "full_hold_window"
            if hasattr(current.technique, "full_hold_window")
            else "hold_window"
        )
        yield make(
            "DEP003",
            f"level {current.index} ({current.technique.name}) holds "
            f"RPs {format_duration(hold)} before shipping, longer than "
            f"level {previous.index}'s retention "
            f"({format_duration(source_retention)}): extra retention "
            "capacity is demanded from the source device",
            hint=(
                f"cut the hold window to {format_duration(source_retention)} "
                f"or raise level {previous.index}'s retention"
            ),
            pointer=f"/levels/{current.index}/technique/{hold_field}",
        )


# ---------------------------------------------------------------------------
# Placement and sparing (DEP004, DEP010).
# ---------------------------------------------------------------------------


def _failed_stores(design: Any, scenario: FailureScenario) -> "List[Any]":
    """The level stores a scenario destroys (static location/name match)."""
    stores = [level.store for level in design.levels]
    unique: "List[Any]" = []
    for store in stores:
        if not any(existing is store for existing in unique):
            unique.append(store)
    if scenario.scope is FailureScope.DISK_ARRAY:
        return [s for s in unique if s.name == scenario.failed_device]
    failed_at = scenario.failed_location or design.primary_level.store.location
    return [
        s
        for s in unique
        if scenario.scope.fails_location(failed_at, s.location)
    ]


@rule("DEP004", Severity.ERROR, "placement")
def single_point_of_failure_scope(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """Every RP copy is contained in one declared failure scope."""
    design = ctx.design
    if design is None or not design.levels:
        return
    stores = [level.store for level in design.levels]
    unique: "List[Any]" = []
    for store in stores:
        if not any(existing is store for existing in unique):
            unique.append(store)
    for scenario, declared in _hardware_scopes(ctx):
        failed = _failed_stores(design, scenario)
        if len(failed) < len(unique) or not failed:
            continue
        scope = scenario.scope.value
        origin = (
            "the declared" if declared else "a hypothesized"
        )
        if scenario.scope is FailureScope.DISK_ARRAY:
            where = scenario.failed_device
        else:
            failed_at = (
                scenario.failed_location
                or design.primary_level.store.location
            )
            where = failed_at.label()
        yield make(
            "DEP004",
            f"single point of failure: all {len(unique)} device(s) holding "
            f"RP copies are lost under {origin} {scope} failure at "
            f"{where} — the design loses every copy",
            hint=(
                "place at least one retention level (remote mirror, "
                f"vault) outside the {scope} scope"
            ),
            pointer="/levels",
        )


@rule("DEP010", Severity.WARNING, "sparing")
def spare_pool_absent(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """Hardware-replacement scenarios with no spare and no facility."""
    design = ctx.design
    if design is None or not design.levels:
        return
    if ctx.scenarios and not any(s.scope.is_hardware for s in ctx.scenarios):
        return  # only object-scope scenarios declared: nothing to replace
    if design.recovery_facility is not None:
        return
    if any(device.spare.exists for device in design.storage_devices()):
        return
    yield make(
        "DEP010",
        "no device has a spare and the design has no shared recovery "
        "facility: scenarios that destroy hardware leave nowhere to "
        "rebuild (site-scale failures of unspared devices are "
        "unrecoverable)",
        hint=(
            "add a SpareConfig to the critical devices or set "
            "recovery_facility on the design (the case study uses a "
            "shared facility: 9 h provisioning at 0.2x cost)"
        ),
        pointer="/recovery_facility",
    )


# ---------------------------------------------------------------------------
# Objective feasibility (DEP005, DEP006).
# ---------------------------------------------------------------------------


@rule("DEP005", Severity.ERROR, "objectives")
def rpo_statically_unreachable(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """No level can ever be fresh enough to meet the declared RPO."""
    design = ctx.design
    requirements = ctx.requirements
    if design is None or requirements is None or requirements.rpo is None:
        return
    secondaries = design.secondary_levels()
    if not secondaries:
        return
    best_lag = None
    best_level = None
    for level in secondaries:
        lag = (
            design.upstream_delay(level.index, ctx.facts)
            + ctx.facts.of(level.technique).worst_lag
        )
        if best_lag is None or lag < best_lag:
            best_lag, best_level = lag, level
    if best_lag is None or best_lag <= requirements.rpo:
        return
    assert best_level is not None
    yield make(
        "DEP005",
        f"declared RPO {format_duration(requirements.rpo)} is statically "
        f"unreachable: the freshest level "
        f"({best_level.technique.name}, level {best_level.index}) already "
        f"lags up to {format_duration(best_lag)} (accW + holdW + propW "
        "along its ancestor chain)",
        hint=(
            "shorten the accumulation/hold windows of the freshest "
            "level (or add a mirror) — or relax the RPO to at least "
            f"{format_duration(best_lag)}"
        ),
        pointer="/requirements/rpo",
    )


@rule("DEP006", Severity.ERROR, "objectives")
def rto_below_bandwidth_bound(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """The declared RTO is below the restore-bandwidth lower bound."""
    design = ctx.design
    workload = ctx.workload
    requirements = ctx.requirements
    if (
        design is None
        or workload is None
        or requirements is None
        or requirements.rto is None
    ):
        return
    if ctx.scenarios and not any(s.scope.is_hardware for s in ctx.scenarios):
        return  # only object restores requested: the bound is the object
    best_time = None
    best_level = None
    for level in design.secondary_levels():
        store = level.store
        bandwidth = store.max_bandwidth * store.recovery_read_efficiency
        if bandwidth == float("inf"):
            transfer = 0.0
        elif bandwidth <= 0:
            continue
        else:
            transfer = workload.data_capacity / bandwidth
        if best_time is None or transfer < best_time:
            best_time, best_level = transfer, level
    if best_time is None or best_time <= requirements.rto:
        return
    assert best_level is not None
    yield make(
        "DEP006",
        f"declared RTO {format_duration(requirements.rto)} is infeasible: "
        f"restoring {format_size(workload.data_capacity)} from the "
        f"fastest level store ({best_level.store.name}) takes at least "
        f"{format_duration(best_time)} at its full device bandwidth, "
        "before any provisioning or reconfiguration",
        hint=(
            "add restore bandwidth (more drives/links or a disk-resident "
            "copy) or relax the RTO to at least "
            f"{format_duration(best_time)}"
        ),
        pointer="/requirements/rto",
    )


# ---------------------------------------------------------------------------
# Capacity (DEP007).
# ---------------------------------------------------------------------------


@rule("DEP007", Severity.ERROR, "capacity")
def capacity_overcommit(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A device's static capacity demands exceed its envelope."""
    design = ctx.design
    workload = ctx.workload
    if design is None or workload is None or not design.levels:
        return
    # The demand ledger is the paper's own static sizing arithmetic
    # (section 3.2.3) — no evaluation involved.
    from ..core.demands import register_design_demands

    demands = register_design_demands(design, workload, ctx.facts)
    for device in design.devices():
        if device.is_interconnect or device.max_capacity == float("inf"):
            continue
        demand = device.capacity_demand_raw(demands[device])
        if demand <= device.max_capacity:
            continue
        yield make(
            "DEP007",
            f"device {device.name!r} is overcommitted: the design "
            f"demands {format_size(demand)} raw capacity against "
            f"a {format_size(device.max_capacity)} envelope "
            f"({demand / device.max_capacity:.0%})",
            hint=(
                "retain fewer RPs on this device, shrink the "
                "dataset, or bind the level to a larger device"
            ),
            pointer="/levels",
        )


# ---------------------------------------------------------------------------
# Serialized-spec structure (DEP008, DEP009).
# ---------------------------------------------------------------------------


def _spec_levels(spec: "Optional[Mapping[str, Any]]") -> "List[Mapping[str, Any]]":
    """The level dictionaries of a spec's inline design ([] otherwise)."""
    if not isinstance(spec, Mapping):
        return []
    design = spec.get("design")
    if not isinstance(design, Mapping):
        return []
    levels = design.get("levels")
    if not isinstance(levels, Sequence) or isinstance(levels, (str, bytes)):
        return []
    return [level for level in levels if isinstance(level, Mapping)]


@rule("DEP008", Severity.ERROR, "spec")
def dangling_device_ref(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A level references a device id the spec never (yet) defines."""
    levels = _spec_levels(ctx.spec)
    defined_anywhere = set()
    for level in levels:
        for key in ("store", "transport"):
            device = level.get(key)
            if isinstance(device, Mapping) and "id" in device:
                defined_anywhere.add(device["id"])
    defined_so_far: set = set()
    for index, level in enumerate(levels):
        for key in ("store", "transport"):
            device = level.get(key)
            if not isinstance(device, Mapping):
                continue
            if "ref" in device:
                ref = device["ref"]
                pointer = f"/design/levels/{index}/{key}/ref"
                if ref not in defined_anywhere:
                    yield make(
                        "DEP008",
                        f"level {index} {key} references device id {ref!r}, "
                        "which no level defines",
                        hint=(
                            'give some earlier device an "id": '
                            f'"{ref}", or fix the ref'
                        ),
                        pointer=pointer,
                    )
                elif ref not in defined_so_far:
                    yield make(
                        "DEP008",
                        f"level {index} {key} references device id {ref!r} "
                        "before its definition (ids resolve in level "
                        "order)",
                        hint="move the defining level earlier, or swap "
                        "the definition and the ref",
                        pointer=pointer,
                    )
            elif "id" in device:
                defined_so_far.add(device["id"])


@rule("DEP009", Severity.WARNING, "spec")
def duplicate_device_binding(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """Duplicate device ids or ambiguous device names."""
    levels = _spec_levels(ctx.spec)
    seen_ids: "dict" = {}
    seen_names: "dict" = {}
    for index, level in enumerate(levels):
        for key in ("store", "transport"):
            device = level.get(key)
            if not isinstance(device, Mapping) or "ref" in device:
                continue
            pointer = f"/design/levels/{index}/{key}"
            device_id = device.get("id")
            if device_id is not None:
                if device_id in seen_ids:
                    yield make(
                        "DEP009",
                        f"device id {device_id!r} is defined twice (levels "
                        f"{seen_ids[device_id]} and {index}): the later "
                        "definition silently shadows the earlier one",
                        hint="rename one id, or replace the second "
                        'definition with {"ref": ...}',
                        pointer=pointer + "/id",
                    )
                else:
                    seen_ids[device_id] = index
            name = device.get("name")
            if name is not None:
                if name in seen_names:
                    yield make(
                        "DEP009",
                        f"two distinct devices are named {name!r} (levels "
                        f"{seen_names[name]} and {index}): failure "
                        "scenarios match devices by name and will fail "
                        "both",
                        hint="give each physical device a unique name "
                        '(or share one device via {"ref": ...})',
                        pointer=pointer + "/name",
                    )
                else:
                    seen_names[name] = index
    # The built-design variant of the same mistake: two distinct device
    # objects carrying one name (programmatic designs have no spec).
    design = ctx.design
    if design is not None:
        by_name: "dict" = {}
        for device in design.devices():
            by_name.setdefault(device.name, []).append(device)
        for name, devices in by_name.items():
            if len(devices) > 1:
                yield make(
                    "DEP009",
                    f"{len(devices)} distinct devices share the name "
                    f"{name!r}: failure scenarios match devices by name "
                    "and will fail all of them",
                    hint="give each physical device a unique name",
                    pointer="/levels",
                )


# ---------------------------------------------------------------------------
# Requirements units (DEP011).
# ---------------------------------------------------------------------------

#: Above this per-second penalty rate (>= $3.6M per hour) the rate was
#: almost certainly quoted per hour and passed to the per-second
#: constructor — a 3600x (~10^3.5) cost-model error.
_PENALTY_RATE_SUSPECT = 1_000.0


@rule("DEP011", Severity.WARNING, "units")
def penalty_rate_units_suspect(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A penalty rate is ~10^3 over plausible: per-hour passed as per-second."""
    requirements = ctx.requirements
    if requirements is None:
        return
    for label, pointer, value in (
        (
            "unavailability",
            "/requirements/unavailability_per_hour",
            requirements.unavailability_penalty_rate,
        ),
        ("loss", "/requirements/loss_per_hour", requirements.loss_penalty_rate),
    ):
        if value < _PENALTY_RATE_SUSPECT:
            continue
        yield make(
            "DEP011",
            f"{label} penalty rate is {value:,.0f} $/s, i.e. "
            f"{format_money(value * HOUR)} per hour of impact — at least "
            "10^3 over plausible rates; a $/hour figure was likely "
            "passed to the per-second constructor",
            hint=(
                "use BusinessRequirements.per_hour(...) (the paper's "
                "units) or divide the rate by HOUR"
            ),
            pointer=pointer,
        )


# ---------------------------------------------------------------------------
# Scenario/design consistency (DEP012) and structure (DEP013, DEP014).
# ---------------------------------------------------------------------------


@rule("DEP012", Severity.ERROR, "scenario")
def scenario_names_unknown_device(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """An array-failure scenario names a device the design lacks."""
    design = ctx.design
    if design is None or not design.levels:
        return
    names = sorted({device.name for device in design.devices()})
    for index, scenario in enumerate(ctx.scenarios):
        if scenario.scope is not FailureScope.DISK_ARRAY:
            continue
        if scenario.failed_device in names:
            continue
        yield make(
            "DEP012",
            f"scenario {index} fails device "
            f"{scenario.failed_device!r}, which the design does not "
            "contain (evaluation would reject it)",
            hint=f"use one of the design's devices: {', '.join(names)}",
            pointer=f"/scenarios/{index}/failed_device",
        )


@rule("DEP013", Severity.ERROR, "structure")
def structural_integrity(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """The design is empty or does not start with a primary copy."""
    design = ctx.design
    if design is None:
        return
    if not design.levels:
        yield make(
            "DEP013",
            "design has no levels",
            hint="add a primary-copy level first",
            pointer="/levels",
        )
        return
    if not design.levels[0].technique.is_primary:
        yield make(
            "DEP013",
            "level 0 is not a primary copy",
            hint="make the first level a PrimaryCopy technique",
            pointer="/levels/0/technique",
        )


@rule("DEP014", Severity.WARNING, "structure")
def no_secondary_levels(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A primary-only design: any hardware failure is a total loss."""
    design = ctx.design
    if design is None or not design.levels:
        return
    if design.secondary_levels():
        return
    yield make(
        "DEP014",
        "the design has no data protection levels: every hardware "
        "failure scenario is an unrecoverable total loss",
        hint="add at least one secondary level (snapshot, mirror, "
        "backup...)",
        pointer="/levels",
    )


# ---------------------------------------------------------------------------
# Risk ensembles (DEP015).
# ---------------------------------------------------------------------------


def _entries(section: "Mapping[str, Any]", group: str) -> "Iterator[Tuple[int, Mapping[str, Any]]]":
    """The well-formed dictionary entries of one ensemble group."""
    entries = section.get(group)
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        return
    for index, entry in enumerate(entries):
        if isinstance(entry, Mapping):
            yield index, entry


def _rate_problem(value: Any) -> "Optional[str]":
    """Why a spec rate value is unusable (None if it is fine)."""
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        return f"rate must be a number or a rate string, got {value!r}"
    try:
        rate = parse_event_rate(value)
    except UnitError as exc:
        return str(exc)
    if not rate > 0:
        return (
            f"rate {value!r} is not positive: an event that cannot occur "
            "contributes no risk — drop the member instead"
        )
    return None


def _scenario_device(scenario_spec: Any) -> "Optional[str]":
    """The device an array-failure scenario spec would fail, if any."""
    if isinstance(scenario_spec, str):
        scenario_spec = {"scope": scenario_spec}
    if not isinstance(scenario_spec, Mapping):
        return None
    if scenario_spec.get("scope") != FailureScope.DISK_ARRAY.value:
        return None
    device = scenario_spec.get("failed_device", "primary-array")
    return device if isinstance(device, str) else None


@rule("DEP015", Severity.ERROR, "spec")
def ensemble_inconsistency(ctx: RuleContext) -> "Iterator[Diagnostic]":
    """A risk ensemble spec that would not build or could not fire.

    Four inconsistencies: non-positive (or unparseable) occurrence
    rates, cascade probabilities / correlation fractions outside
    (0, 1], duplicate member ids, and a rate attached to an
    array-failure scenario naming a device the design never defines
    (the ensemble's analogue of DEP012).
    """
    spec = ctx.spec
    if not isinstance(spec, Mapping):
        return
    section = spec.get("ensemble")
    if not isinstance(section, Mapping):
        return

    device_names: "Optional[List[str]]" = None
    if ctx.design is not None and ctx.design.levels:
        device_names = sorted(
            {device.name for device in ctx.design.devices()}
        )

    def check_scenario(
        scenario_spec: Any, pointer: str
    ) -> "Iterator[Diagnostic]":
        failed = _scenario_device(scenario_spec)
        if failed is None or device_names is None or failed in device_names:
            return
        yield make(
            "DEP015",
            f"ensemble rates an array failure of device {failed!r}, "
            "which the design does not contain (evaluation would "
            "reject it)",
            hint="use one of the design's devices: "
            + ", ".join(device_names),
            pointer=pointer,
        )

    seen_ids: "dict" = {}
    rate_keys = {
        "members": ("rate",),
        "correlated": ("rate",),
        "cascades": ("rate", "secondary_rate"),
    }
    scenario_keys = {
        "members": ("scenario",),
        "correlated": ("base", "correlated"),
        "cascades": ("primary", "escalated"),
    }
    for group in ("members", "correlated", "cascades"):
        for index, entry in _entries(section, group):
            pointer = f"/ensemble/{group}/{index}"
            member_id = entry.get("id")
            if isinstance(member_id, str) and member_id:
                if member_id in seen_ids:
                    yield make(
                        "DEP015",
                        f"duplicate ensemble member id {member_id!r} "
                        f"(also declared at {seen_ids[member_id]})",
                        hint="ids must be unique across members, "
                        "correlated pairs and cascades",
                        pointer=f"{pointer}/id",
                    )
                else:
                    seen_ids[member_id] = pointer
            for key in rate_keys[group]:
                if key not in entry:
                    continue
                problem = _rate_problem(entry[key])
                if problem is not None:
                    yield make(
                        "DEP015",
                        f"ensemble {group} entry {index}: {problem}",
                        hint='rates are events per second; write '
                        '"0.5/yr" for the paper\'s per-year idiom',
                        pointer=f"{pointer}/{key}",
                    )
            kofn = entry.get("kofn")
            if isinstance(kofn, Mapping) and "unit_rate" in kofn:
                problem = _rate_problem(kofn["unit_rate"])
                if problem is not None:
                    yield make(
                        "DEP015",
                        f"ensemble member {index} kofn: {problem}",
                        hint="the unit failure rate must be a positive "
                        "event rate",
                        pointer=f"{pointer}/kofn/unit_rate",
                    )
            for key, label in (
                ("probability", "cascade probability"),
                ("fraction", "correlation fraction"),
            ):
                value = entry.get(key)
                if value is None or isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)) and not 0 < value <= 1:
                    yield make(
                        "DEP015",
                        f"ensemble {group} entry {index}: {label} "
                        f"{value!r} is outside (0, 1]",
                        hint="0 means the split never happens (drop "
                        "it); above 1 is not a probability",
                        pointer=f"{pointer}/{key}",
                    )
            for key in scenario_keys[group]:
                if key in entry:
                    yield from check_scenario(
                        entry[key], f"{pointer}/{key}"
                    )

    generate = section.get("generate")
    if isinstance(generate, Mapping):
        grid = generate.get("object_grid")
        if isinstance(grid, Mapping) and "total_rate" in grid:
            problem = _rate_problem(grid["total_rate"])
            if problem is not None:
                yield make(
                    "DEP015",
                    f"ensemble object_grid: {problem}",
                    hint="the generated members share this total rate; "
                    "it must be positive",
                    pointer="/ensemble/generate/object_grid/total_rate",
                )
