"""High-level sweep helpers on top of :func:`map_evaluations`.

The design-automation layers all share one shape of work — "evaluate
each of these designs against these scenarios" — differing only in how
the designs are named and what they do with the outcomes.  These
helpers capture that shape once so ``optimize``, ``run_whatif``, the
sensitivity sweeps and the CLI stay thin.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

from ..core.hierarchy import StorageDesign
from ..core.results import Assessment
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..workload.spec import Workload
from .cache import ResultCache
from .executor import (
    DesignOrFactory,
    EngineConfig,
    EvaluationTask,
    TaskOutcome,
    map_evaluations,
)


def evaluate_design_map(
    designs: "Mapping[str, DesignOrFactory]",
    workload: Workload,
    scenarios: "Iterable[FailureScenario]",
    requirements: BusinessRequirements,
    config: Optional[EngineConfig] = None,
    cache: Optional[ResultCache] = None,
    strict_utilization: bool = True,
    label: str = "designs",
) -> "Dict[str, TaskOutcome]":
    """Evaluate every named design against every scenario.

    Returns ``{name: outcome}`` in the mapping's iteration order; a
    successful outcome's ``value`` is the ``{scenario: Assessment}``
    dict of :func:`repro.core.evaluate.evaluate_scenarios`.  ``label``
    names the sweep in live progress reports.
    """
    scenario_tuple = tuple(scenarios)
    tasks = [
        EvaluationTask(
            name=name,
            workload=workload,
            scenarios=scenario_tuple,
            requirements=requirements,
            design=design,
            strict_utilization=strict_utilization,
        )
        for name, design in designs.items()
    ]
    outcomes = map_evaluations(tasks, config=config, cache=cache, label=label)
    return {outcome.name: outcome for outcome in outcomes}


def evaluate_scenarios_cached(
    design: DesignOrFactory,
    workload: Workload,
    scenarios: "Iterable[FailureScenario]",
    requirements: BusinessRequirements,
    config: Optional[EngineConfig] = None,
    cache: Optional[ResultCache] = None,
    strict_utilization: bool = True,
) -> "Dict[str, Assessment]":
    """Single-design evaluation through the engine (the CLI path).

    Cache-aware like the sweep form, but raises the underlying error on
    failure — callers evaluating one design want the exception, not an
    outcome to inspect.
    """
    name = design.name if isinstance(design, StorageDesign) else "design"
    outcomes = evaluate_design_map(
        {name: design},
        workload,
        scenarios,
        requirements,
        config=config,
        cache=cache,
        strict_utilization=strict_utilization,
        label="evaluate",
    )
    outcome = outcomes[name]
    if outcome.error is not None:
        raise outcome.error
    value: "Dict[str, Any]" = outcome.value
    return value
