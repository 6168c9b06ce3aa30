"""What-if exploration: many designs x many failure scenarios.

This is the engine behind the paper's Table 7: evaluate every candidate
design against every scenario, collect the per-cell assessments, and
expose convenient worst-case/aggregate views for ranking.

Evaluation runs through :mod:`repro.engine`, so a what-if grid can be
parallelized and cached by passing an
:class:`~repro.engine.EngineConfig`; the default config is serial and
uncached, producing bit-identical results to evaluating each design in
a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..core.hierarchy import StorageDesign
from ..core.results import Assessment
from ..engine import EngineConfig, ResultCache
from ..engine.sweep import evaluate_design_map
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..workload.spec import Workload

#: Designs are passed as zero-argument factories, so a grid builds each
#: design only when its evaluation is dispatched.
DesignFactory = Callable[[], StorageDesign]


@dataclass(frozen=True)
class WhatIfResult:
    """One design's assessments across all evaluated scenarios."""

    design_name: str
    assessments: "Dict[str, Assessment]"

    @property
    def total_outlays(self) -> float:
        """Annual outlays (identical across scenarios of one design)."""
        first = next(iter(self.assessments.values()))
        return first.costs.total_outlays

    @property
    def worst_recovery_time(self) -> float:
        """The slowest recovery across the evaluated scenarios."""
        return max(a.recovery_time for a in self.assessments.values())

    @property
    def worst_data_loss(self) -> float:
        """The largest recent data loss across the evaluated scenarios."""
        return max(a.recent_data_loss for a in self.assessments.values())

    @property
    def worst_total_cost(self) -> float:
        """The most expensive scenario's total cost — the ranking metric."""
        return max(a.total_cost for a in self.assessments.values())

    @property
    def meets_objectives(self) -> bool:
        """RTO/RPO satisfied under every evaluated scenario."""
        return all(a.meets_objectives for a in self.assessments.values())

    def scenario(self, label_fragment: str) -> Assessment:
        """The assessment whose scenario label contains the fragment."""
        for label, assessment in self.assessments.items():
            if label_fragment in label:
                return assessment
        raise KeyError(label_fragment)


def run_whatif(
    designs: "Mapping[str, DesignFactory]",
    workload: Workload,
    scenarios: Sequence[FailureScenario],
    requirements: BusinessRequirements,
    config: Optional[EngineConfig] = None,
    cache: Optional[ResultCache] = None,
) -> "List[WhatIfResult]":
    """Evaluate every design against every scenario (Table 7's grid).

    ``designs`` maps display names to zero-argument factories.  Results
    preserve input order.  A design that cannot be evaluated raises its
    underlying :class:`~repro.exceptions.ReproError` (first failure in
    input order), matching the historical serial behavior; callers that
    want per-design failure reporting use the optimizer or
    :func:`repro.engine.sweep.evaluate_design_map` directly.
    """
    outcomes = evaluate_design_map(
        designs, workload, scenarios, requirements, config=config, cache=cache,
        label="whatif",
    )
    results: "List[WhatIfResult]" = []
    for name, outcome in outcomes.items():
        if outcome.error is not None:
            raise outcome.error
        results.append(
            WhatIfResult(design_name=name, assessments=outcome.value)
        )
    return results
