"""Multi-object evaluation: several protected objects on shared hardware.

The paper models a single data object for clarity and notes (§3.1.1)
that the extension to multiple objects is "straightforward": explicitly
track each object's workload demands, the techniques and devices
protecting it, and **inter-object dependencies during recovery**.  This
module is that extension.

A :class:`Portfolio` holds named :class:`ProtectedObject` entries, each
pairing a workload with its own design; designs may share device
instances (two databases on one array, one tape library for everything).
Evaluation then:

* adds every object's demand ledger into one *joint* ledger over the
  (shared) devices, so utilization reflects the union of protection
  workloads;
* computes each object's worst-case data loss independently (RPs are
  per-object);
* schedules recoveries respecting the declared dependencies — an
  application object whose database must be restored first starts its
  recovery only when the database finishes — and reports both
  per-object and portfolio-wide recovery times;
* prices outlays once (shared devices are not double-charged) and
  penalties per object.

Recovery concurrency is modeled optimistically within a dependency
level (independent objects restore in parallel, each at its own
available bandwidth, without contending for shared devices) — the
conservative serialized alternative is a single flag away
(``serialize_recoveries=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core.dataloss import DataLossResult, compute_data_loss
from .core.demands import DemandLedger, register_design_demands
from .core.hierarchy import StorageDesign
from .core.recovery import RecoveryPlan, plan_recovery
from .core.utilization import SystemUtilization
from .core.validate import validate_design
from .devices.base import Device
from .exceptions import DesignError, RecoveryError
from .scenarios.failures import FailureScenario
from .scenarios.requirements import BusinessRequirements
from .techniques.facts import FactsTable
from .units import format_duration, format_money
from .workload.spec import Workload


@dataclass(frozen=True)
class ProtectedObject:
    """One data object: its workload, its design, and what it waits for."""

    name: str
    workload: Workload
    design: StorageDesign
    depends_on: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("protected object requires a name")
        if self.name in self.depends_on:
            raise DesignError(f"object {self.name!r} cannot depend on itself")


@dataclass(frozen=True)
class ObjectOutcome:
    """One object's result under the evaluated scenario."""

    name: str
    data_loss: DataLossResult
    plan: Optional[RecoveryPlan]
    recovery_start: float
    recovery_finish: float

    @property
    def own_recovery_time(self) -> float:
        """The object's recovery duration, dependencies excluded."""
        if self.plan is None:
            return float("inf")
        return self.plan.recovery_time

    @property
    def unavailability(self) -> float:
        """Outage as experienced: from failure until this object is back."""
        return self.recovery_finish


@dataclass(frozen=True)
class PortfolioAssessment:
    """The whole portfolio under one failure scenario."""

    portfolio_name: str
    scenario: FailureScenario
    utilization: SystemUtilization
    outcomes: "Dict[str, ObjectOutcome]"
    outlays_by_technique: "Dict[str, float]"
    outage_penalty: float
    loss_penalty: float

    @property
    def portfolio_recovery_time(self) -> float:
        """When the last object is back: the business-level RT."""
        return max(o.recovery_finish for o in self.outcomes.values())

    @property
    def total_outlays(self) -> float:
        """Annualized outlays over the shared device set (no double count)."""
        return sum(self.outlays_by_technique.values())

    @property
    def total_cost(self) -> float:
        """Outlays plus every object's outage and loss penalties."""
        return self.total_outlays + self.outage_penalty + self.loss_penalty

    def summary(self) -> str:
        """One-line portfolio outcome for logs and examples."""
        worst = max(
            self.outcomes.values(), key=lambda o: o.recovery_finish
        )
        return (
            f"{self.portfolio_name} / {self.scenario.describe()}: portfolio "
            f"RT={format_duration(self.portfolio_recovery_time)} (last: "
            f"{worst.name}), cost={format_money(self.total_cost)}"
        )


class Portfolio:
    """Named protected objects whose designs may share devices."""

    def __init__(self, name: str):
        if not name:
            raise DesignError("portfolio requires a name")
        self.name = name
        self._objects: "Dict[str, ProtectedObject]" = {}

    def add_object(
        self,
        name: str,
        workload: Workload,
        design: StorageDesign,
        depends_on: Sequence[str] = (),
    ) -> ProtectedObject:
        """Register an object; dependencies must already be present."""
        if name in self._objects:
            raise DesignError(f"duplicate object name {name!r}")
        for dependency in depends_on:
            if dependency not in self._objects:
                raise DesignError(
                    f"object {name!r} depends on unknown object {dependency!r} "
                    "(add dependencies first)"
                )
        obj = ProtectedObject(
            name=name,
            workload=workload,
            design=design,
            depends_on=tuple(depends_on),
        )
        self._objects[name] = obj
        return obj

    @property
    def objects(self) -> "Tuple[ProtectedObject, ...]":
        """All protected objects, in insertion (topological) order."""
        return tuple(self._objects.values())

    def devices(self) -> "Tuple[Device, ...]":
        """Unique devices across all designs, in first-use order."""
        seen: "Dict[int, Device]" = {}
        for obj in self._objects.values():
            for device in obj.design.devices():
                seen.setdefault(id(device), device)
        return tuple(seen.values())

    # -- joint demands -------------------------------------------------------------

    def demands(self) -> DemandLedger:
        """The joint ledger: every object's demands, added in order."""
        if not self._objects:
            raise DesignError(f"portfolio {self.name!r} has no objects")
        facts = FactsTable()
        return sum(
            (
                register_design_demands(obj.design, obj.workload, facts)
                for obj in self._objects.values()
            ),
            DemandLedger(),
        )

    def utilization(self, demands: DemandLedger) -> SystemUtilization:
        """Joint utilization across the shared device set."""
        return SystemUtilization.of(self.devices(), demands)

    def _prepare(
        self, strict_utilization: bool
    ) -> "Tuple[DemandLedger, SystemUtilization]":
        """Validate every design; the joint ledger and its utilization."""
        for obj in self._objects.values():
            validate_design(obj.design, obj.workload, strict=True)
        demands = self.demands()
        utilization = self.utilization(demands)
        if strict_utilization:
            utilization.raise_if_overcommitted()
        return demands, utilization

    @staticmethod
    def _recover(
        obj: ProtectedObject, scenario: FailureScenario, demands: DemandLedger
    ) -> "Tuple[DataLossResult, Optional[RecoveryPlan]]":
        """One object's data loss and recovery plan (None if unplannable)."""
        loss = compute_data_loss(obj.design, scenario, allow_total_loss=True)
        if loss.total_loss:
            return loss, None
        try:
            plan = plan_recovery(
                obj.design, demands, scenario, obj.workload, loss_result=loss
            )
        except RecoveryError:
            return loss, None
        return loss, plan

    # -- recovery scheduling ----------------------------------------------------------

    def _topological_order(self) -> "List[ProtectedObject]":
        """Objects ordered so dependencies precede dependents.

        Insertion order already guarantees acyclicity (dependencies must
        exist when an object is added), so insertion order *is* a valid
        topological order.
        """
        return list(self._objects.values())

    def evaluate(
        self,
        scenario: FailureScenario,
        requirements: BusinessRequirements,
        strict_utilization: bool = True,
        serialize_recoveries: bool = False,
    ) -> PortfolioAssessment:
        """Assess the whole portfolio under one failure scenario.

        ``serialize_recoveries=True`` restores objects strictly one at a
        time (a single recovery crew / shared restore pipe); the default
        lets independent objects restore in parallel.
        """
        demands, utilization = self._prepare(strict_utilization)

        outcomes: "Dict[str, ObjectOutcome]" = {}
        outage_penalty = 0.0
        loss_penalty = 0.0
        serial_clock = 0.0
        for obj in self._topological_order():
            loss, plan = self._recover(obj, scenario, demands)
            dependency_finish = max(
                (outcomes[d].recovery_finish for d in obj.depends_on),
                default=0.0,
            )
            start = max(dependency_finish, serial_clock)
            duration = plan.recovery_time if plan is not None else float("inf")
            finish = start + duration
            if serialize_recoveries:
                serial_clock = finish
            outcomes[obj.name] = ObjectOutcome(
                name=obj.name,
                data_loss=loss,
                plan=plan,
                recovery_start=start,
                recovery_finish=finish,
            )
            outage_penalty += requirements.outage_penalty(finish)
            loss_penalty += (
                float("inf")
                if loss.total_loss
                else requirements.loss_penalty(loss.data_loss)
            )

        return PortfolioAssessment(
            portfolio_name=self.name,
            scenario=scenario,
            utilization=utilization,
            outcomes=outcomes,
            outlays_by_technique=self._outlays(demands),
            outage_penalty=outage_penalty,
            loss_penalty=loss_penalty,
        )

    def evaluate_scenarios(
        self,
        scenarios: "Iterable[FailureScenario]",
        requirements: BusinessRequirements,
        strict_utilization: bool = True,
    ) -> "Dict[str, PortfolioAssessment]":
        """Assess the portfolio under each scenario.

        Returns ``{scenario description: assessment}`` in input order;
        the first scenario that fails raises its error.
        """
        return {
            scenario.describe(): self.evaluate(
                scenario, requirements, strict_utilization=strict_utilization
            )
            for scenario in scenarios
        }

    # -- outlays ---------------------------------------------------------------------

    def _outlays(self, demands: DemandLedger) -> "Dict[str, float]":
        """Joint outlays over the shared device set.

        ``demands`` is the joint ledger, so per-technique attribution
        reflects every object's demands; iterating designs would
        double-count shared devices.
        """
        outlays: "Dict[str, float]" = {}
        for device in self.devices():
            device_outlays = device.outlays_by_technique(demands[device])
            for technique, dollars in device_outlays.items():
                outlays[technique] = outlays.get(technique, 0.0) + dollars
        # The recovery facility charges its discount fraction of the
        # primary-site hardware it stands behind, exactly once per
        # protected site (several objects on one site share one standby).
        facility_total = 0.0
        sites_seen = set()
        for obj in self._objects.values():
            facility = obj.design.recovery_facility
            if facility is None or not facility.exists:
                continue
            primary_site = obj.design.primary_level.store.location
            site_key = (primary_site.region, primary_site.site)
            if site_key in sites_seen:
                continue
            sites_seen.add(site_key)
            covered = [
                device
                for device in self.devices()
                if not device.is_interconnect
                and device.location.same_site(primary_site)
            ]
            facility_total += facility.discount * sum(
                device.cost_model.total_cost(
                    capacity_bytes=device.capacity_demand_raw(demands[device]),
                    bandwidth_bps=device.bandwidth_demand(demands[device]),
                )
                for device in covered
            )
        if facility_total > 0:
            outlays["recovery facility"] = facility_total
        return outlays
