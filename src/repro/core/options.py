"""Recovery-source options: the loss-vs-time trade across levels.

The paper's composition picks the *closest* surviving level whose RP
range can serve the target (§3.3.3) — the loss-optimal choice, since
closer levels hold fresher RPs.  But operators sometimes prefer a
slower-to-lose, faster-to-restore source (restoring a small object from
a local snapshot vs. a remote mirror), and design reviews want to see
the whole trade.

:func:`recovery_options` enumerates *every* surviving level that can
serve the scenario, with its worst-case loss and full recovery plan, so
callers can choose loss-optimal (the paper's rule, first entry),
time-optimal, or anything between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..exceptions import RecoveryError
from ..scenarios.failures import FailureScenario
from ..workload.spec import Workload
from .dataloss import DataLossResult, usable_levels
from .demands import DemandLedger
from .hierarchy import Level, StorageDesign
from .recovery import RecoveryPlan, plan_recovery


@dataclass(frozen=True)
class RecoveryOption:
    """One candidate recovery source with its loss and plan."""

    level: Level
    data_loss: float
    plan: RecoveryPlan

    @property
    def source_name(self) -> str:
        """The candidate source technique's display name."""
        return self.level.technique.name

    @property
    def recovery_time(self) -> float:
        """Worst-case recovery time restoring from this source."""
        return self.plan.recovery_time


def recovery_options(
    design: StorageDesign,
    demands: DemandLedger,
    scenario: FailureScenario,
    workload: Workload,
) -> "List[RecoveryOption]":
    """All viable recovery sources, closest (loss-optimal) first.

    ``demands`` is the design's ledger.  Levels whose retention has
    expired past the target, or for which no recovery path exists, are
    omitted; an empty list means the scenario is a total loss.
    """
    options: "List[RecoveryOption]" = []
    ranges, usable = usable_levels(design, scenario)
    for level, loss in usable:
        loss_result = DataLossResult(
            source_level=level,
            data_loss=loss,
            total_loss=False,
            target_age=scenario.recovery_target_age,
            ranges=ranges,
        )
        try:
            plan = plan_recovery(
                design, demands, scenario, workload, loss_result=loss_result
            )
        except RecoveryError:
            continue
        options.append(RecoveryOption(level=level, data_loss=loss, plan=plan))
    return options


def time_optimal_option(
    design: StorageDesign,
    demands: DemandLedger,
    scenario: FailureScenario,
    workload: Workload,
) -> Optional[RecoveryOption]:
    """The fastest-restoring viable source (ties break toward less loss).

    Returns ``None`` when nothing can serve the scenario.
    """
    options = recovery_options(design, demands, scenario, workload)
    if not options:
        return None
    return min(options, key=lambda option: (option.recovery_time, option.data_loss))
