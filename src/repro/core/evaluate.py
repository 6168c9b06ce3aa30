"""The one-call evaluation entry point.

:func:`evaluate` runs the whole pipeline for one design, workload,
failure scenario and set of business requirements:

1. validate the design against the paper's conventions;
2. compute the design's demand ledger;
3. compute normal-mode utilization (raising on over-commitment);
4. pick the recovery source and worst-case recent data loss;
5. build the recovery plan and its worst-case recovery time;
6. price outlays and penalties.

:func:`evaluate_scenarios` amortizes steps 1–3 across several scenarios
(the case study evaluates object / array / site failures of one design),
together with the scenario-independent parts of steps 4 and 6: each
level's guaranteed RP range and worst RP spacing, and the design's
outlays.  Every scenario's steps 4–6 read that one per-design table.
Technique timeline facts come from a
:class:`~repro.techniques.facts.FactsTable`, which the engine shares
across every design of one sweep so each distinct technique's cycle is
built once.

Every step emits spans and metrics through :mod:`repro.obs` (no-ops
unless a tracer/registry is installed), and each returned
:class:`~repro.core.results.Assessment` carries an
:class:`~repro.obs.provenance.EvaluationProvenance` recording the
decisions made along the way — including recovery-planning failures,
which used to be swallowed silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import RecoveryError
from ..obs import Span, get_metrics, get_tracer
from ..obs.provenance import EvaluationProvenance
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..techniques.facts import FactsTable
from ..workload.spec import Workload
from .cost import compute_costs, compute_outlays
from .dataloss import LevelTable, compute_data_loss
from .demands import DemandLedger, register_design_demands
from .hierarchy import StorageDesign
from .recovery import RecoveryPlan, plan_recovery
from .results import Assessment
from .utilization import SystemUtilization, compute_utilization
from .validate import validate_design

#: The spans that time each phase -> their ``EvaluationProvenance.phase_ms`` key.
_PHASE_SPANS = {
    "validate": "validate",
    "demands": "demands",
    "utilization.compute": "utilization",
    "dataloss.compute": "dataloss",
    "recovery.plan": "recovery",
    "cost.compute": "cost",
}


def _phase_ms(span: object) -> "Dict[str, float]":
    """Milliseconds of each phase span among ``span``'s direct children;
    empty when ``span`` is the null tracer's, which records nothing."""
    if not isinstance(span, Span):
        return {}
    return {
        _PHASE_SPANS[child.name]: child.duration_ms
        for child in span.children
        if child.name in _PHASE_SPANS
    }


def _utilization_driver(utilization: SystemUtilization) -> str:
    """Which device and dimension set the headline utilization."""
    if utilization.max_bandwidth_utilization >= utilization.max_capacity_utilization:
        return f"bandwidth of {utilization.max_bandwidth_device}"
    return f"capacity of {utilization.max_capacity_device}"


@dataclass(frozen=True)
class _Prepared:
    """The per-design work every scenario of one call shares.

    ``phase_ms`` holds (when tracing) the shared phases' span
    durations in milliseconds; ``demands`` is the design's demand ledger,
    ``levels`` its level table and ``outlays`` its outlay map, which
    each assessment copies.
    """

    demands: DemandLedger
    utilization: SystemUtilization
    warnings: "Tuple[str, ...]"
    phase_ms: "Dict[str, float]"
    levels: LevelTable
    outlays: "Dict[str, float]"


def _prepare(
    design: StorageDesign,
    workload: Workload,
    strict_utilization: bool,
    facts: FactsTable,
    parent: object,
) -> _Prepared:
    """Steps 1–3 plus the scenario-independent parts of steps 4 and 6.

    Validates, computes the demand ledger and utilization, then starts
    the level table (ranges and spacings need no demands, and each is
    computed on first use) and computes the outlay map (which does).
    Validation, demands and the level table read technique facts from
    ``facts``.  ``parent`` is the caller's open span, under which the
    phase spans are recorded.
    """
    tracer = get_tracer()
    with tracer.span("validate", design=design.name):
        warnings = validate_design(design, workload, strict=True, facts=facts)
    with tracer.span("demands", design=design.name):
        demands = register_design_demands(design, workload, facts)
    utilization = compute_utilization(design, demands, strict=strict_utilization)
    return _Prepared(
        demands=demands,
        utilization=utilization,
        warnings=tuple(warnings),
        phase_ms=_phase_ms(parent),
        levels=LevelTable(design, facts),
        outlays=compute_outlays(design, demands),
    )


def _assess(
    design: StorageDesign,
    workload: Workload,
    scenario: FailureScenario,
    requirements: BusinessRequirements,
    prepared: _Prepared,
    label: str,
) -> Assessment:
    """Steps 4–6 for one scenario, given the shared per-design state.

    ``label`` is the scenario's ``describe()``, computed once by the
    caller.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    utilization = prepared.utilization
    metrics.inc("evaluate.assessments")

    with tracer.span("assess", scenario=label) as span:
        with tracer.span("dataloss.compute"):
            loss = compute_data_loss(
                design, scenario, allow_total_loss=True, levels=prepared.levels
            )

        plan: Optional[RecoveryPlan] = None
        recovery_failure: Optional[str] = None
        if loss.total_loss:
            metrics.inc("recovery.total_loss")
            recovery_failure = (
                "total loss: no surviving level retains a usable RP"
            )
        else:
            try:
                plan = plan_recovery(
                    design,
                    prepared.demands,
                    scenario,
                    workload,
                    loss_result=loss,
                    label=label,
                )
            except RecoveryError as exc:
                # Record the failure instead of dropping it on the floor:
                # the assessment's unbounded recovery time stays explainable.
                metrics.inc("recovery.plan_failed")
                recovery_failure = str(exc)

        costs = compute_costs(
            design, requirements, prepared.outlays, loss=loss, plan=plan
        )

        span.set(
            source=loss.source_name,
            total_loss=loss.total_loss,
            recovery_planned=plan is not None,
        )
    phase_ms = {**prepared.phase_ms, **_phase_ms(span)}

    decisions: "List[str]" = []
    if loss.source_level is not None:
        decisions.append(
            f"recovery source: {loss.source_name} "
            f"(level {loss.source_level.index})"
        )
    else:
        decisions.append("no usable recovery source: total loss")
    if recovery_failure is not None:
        decisions.append(f"recovery planning failed: {recovery_failure}")
    dominant_outlay = (
        max(costs.outlays_by_technique, key=costs.outlays_by_technique.get)
        if costs.outlays_by_technique
        else None
    )
    if costs.total_penalties > 0:
        dominant_penalty = (
            "loss" if costs.loss_penalty > costs.outage_penalty else "outage"
        )
        decisions.append(f"dominant penalty term: {dominant_penalty}")
    else:
        dominant_penalty = None
    if dominant_outlay is not None:
        decisions.append(f"dominant outlay: {dominant_outlay}")
    warnings = prepared.warnings
    if warnings:
        decisions.append(f"{len(warnings)} validation warning(s)")

    provenance = EvaluationProvenance(
        design_name=design.name,
        scenario=label,
        scenario_scope=scenario.scope.value,
        recovery_target_age=scenario.recovery_target_age,
        recovery_size=None if plan is None else plan.recovery_size,
        validation_warnings=warnings,
        recovery_source=None if loss.source_level is None else loss.source_name,
        recovery_source_level=(
            None if loss.source_level is None else loss.source_level.index
        ),
        recovery_failure=recovery_failure,
        total_loss=loss.total_loss,
        utilization_driver=_utilization_driver(utilization),
        dominant_outlay=dominant_outlay,
        dominant_penalty=dominant_penalty,
        phase_ms=phase_ms,
        decisions=tuple(decisions),
    )
    return Assessment(
        design_name=design.name,
        scenario=scenario,
        requirements=requirements,
        utilization=utilization,
        data_loss=loss,
        recovery=plan,
        costs=costs,
        provenance=provenance,
    )


def evaluate(
    design: StorageDesign,
    workload: Workload,
    scenario: FailureScenario,
    requirements: BusinessRequirements,
    strict_utilization: bool = True,
) -> Assessment:
    """Evaluate one design against one failure scenario."""
    tracer = get_tracer()
    get_metrics().inc("evaluate.calls")
    label = scenario.describe()
    with tracer.span("evaluate", design=design.name, scenario=label) as span:
        prepared = _prepare(design, workload, strict_utilization, FactsTable(), span)
        return _assess(design, workload, scenario, requirements, prepared, label)


def evaluate_scenarios(
    design: StorageDesign,
    workload: Workload,
    scenarios: Iterable[FailureScenario],
    requirements: BusinessRequirements,
    strict_utilization: bool = True,
    facts: Optional[FactsTable] = None,
) -> "Dict[str, Assessment]":
    """Evaluate one design against several scenarios.

    Returns ``{scenario description: assessment}`` in input order.
    Validation, the demand ledger, utilization, the level ranges and
    RP spacings, and the outlays are computed once for all scenarios.
    ``facts`` is the technique-facts table to read and fill; callers
    evaluating many designs share one, and a fresh one is used when
    not given.  It never changes a result.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    metrics.inc("evaluate.calls")
    if facts is None:
        facts = FactsTable()
    with tracer.span("evaluate_scenarios", design=design.name) as span:
        prepared = _prepare(design, workload, strict_utilization, facts, span)
        results: "Dict[str, Assessment]" = {}
        for scenario in scenarios:
            metrics.inc("evaluate.scenarios")
            label = scenario.describe()
            results[label] = _assess(
                design, workload, scenario, requirements, prepared, label
            )
        return results
