"""Monte Carlo cross-checks for the analytic risk aggregator.

Two independent checks, both seeded and order-insensitive:

* :func:`cross_check` re-derives the annualized distributions by brute
  force.  Members that share a per-event severity triple form one
  group (a sum of independent Poisson counts with one severity is a
  Poisson count in the summed rate, exactly as the analytic fold
  merges them).  Each group Poisson-samples its event count over the
  horizon from one named substream of the root seed
  (:func:`repro.simulation.failure_injection.substream_rng`), named
  by the group's smallest member id, multiplies by the severities the
  evaluator computed, and the totals are summarized empirically.  A
  group's rate is builtin ``sum`` over its members in member-id order,
  so each interpreter matches itself, as the fold does.  Neither
  member order nor the hash seed changes a byte, which is what lets
  the CLI's serial and ``--workers N`` runs diff clean; a group of one
  draws exactly what a per-member sampler would.
* :func:`simulated_loss_check` goes one layer deeper: it replays
  members through the discrete-event
  :class:`~repro.simulation.simulator.DependabilitySimulator`,
  measuring the *actual* data loss at random failure times and
  checking none exceeds the analytic worst case the aggregator's
  severities are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..exceptions import RiskError
from ..obs import get_tracer
from ..scenarios.failures import FailureScenario
from ..simulation.failure_injection import random_times, substream_rng
from ..simulation.simulator import DependabilitySimulator
from ..units import WEEK, PerSecond, Seconds
from .distributions import (
    RiskDistribution,
    check_entries,
    empirical_distribution,
)
from .ensemble import LazySequence

if TYPE_CHECKING:
    import numpy as np

#: (member_id, rate per second, downtime, loss, penalty) — the flat
#: severity row the aggregator hands to :func:`cross_check`.
SeverityRow = Tuple[str, PerSecond, float, float, float]

#: Per-event (downtime, loss, penalty) — one Monte Carlo group's key.
Severity = Tuple[float, float, float]


class SeverityTable(LazySequence[SeverityRow]):
    """Severity rows held as columns, sorted by member id.

    Row ``j`` is ``(ids[j], rates[j], *severities[slots[j]])``: each
    member indexes a short list of per-event severity triples (one per
    distinct scenario), so a row costs a rate and an index.  Rows must
    be in member-id order.
    """

    __slots__ = ("ids", "rates", "slots", "severities")

    def __init__(
        self,
        ids: "Sequence[str]",
        rates: "Sequence[PerSecond]",
        slots: "Sequence[int]",
        severities: "Sequence[Severity]",
    ) -> None:
        if not len(ids) == len(rates) == len(slots):
            raise RiskError("severity table columns differ in length")
        self.ids = ids
        self.rates = rates
        self.slots = slots
        self.severities = severities

    def __len__(self) -> int:
        return len(self.rates)

    def _item(self, row: int) -> SeverityRow:
        return (self.ids[row], self.rates[row], *self.severities[self.slots[row]])

    def column(self, metric: int) -> "List[float]":
        """Each row's severity ``metric`` (0 downtime, 1 loss, 2 penalty)."""
        values = [severity[metric] for severity in self.severities]
        return list(map(values.__getitem__, self.slots))


@dataclass(frozen=True)
class MonteCarloResult:
    """Sampled counterparts of the analytic distributions."""

    samples: int
    seed: int
    downtime: RiskDistribution
    loss: RiskDistribution
    penalty: RiskDistribution

    def to_dict(self) -> "Dict[str, object]":
        return {
            "samples": self.samples,
            "seed": self.seed,
            "downtime": self.downtime.to_dict(),
            "loss": self.loss.to_dict(),
            "penalty": self.penalty.to_dict(),
        }


def cross_check(
    rows: "Sequence[SeverityRow]",
    horizon: Seconds,
    samples: int,
    seed: int = 0,
) -> MonteCarloResult:
    """Sample the annualized totals and summarize them empirically.

    Rows are validated by the fold's own rule (rate > 0, each severity
    >= 0 or +inf), sorted by member id, and grouped by their per-event
    severity triple ``(downtime, loss, penalty)``.  Each group's event
    count is ``Poisson(sum(rates) * horizon)`` drawn from the substream
    ``risk:{smallest member id}`` of ``seed``; severities scale the
    counts (infinite severities contribute an infinite total whenever
    at least one event occurs).  Groups are visited in order of their
    smallest member id, so input order never matters.  The
    ``risk.monte_carlo`` span records the member and substream counts.
    """
    import numpy as np

    if samples < 1:
        raise RiskError(f"Monte Carlo needs >= 1 sample, got {samples}")
    if not horizon > 0:
        raise RiskError(f"risk horizon must be positive, got {horizon!r}")
    with get_tracer().span(
        "risk.monte_carlo", samples=samples, members=len(rows)
    ) as span:
        groups = _severity_groups(rows)
        span.set(substreams=len(groups))
        downtime = np.zeros(samples)
        loss = np.zeros(samples)
        penalty = np.zeros(samples)
        for severity, (member_id, rates) in groups.items():
            event_downtime, event_loss, event_penalty = severity
            rng = substream_rng(seed, f"risk:{member_id}")
            intensity = sum(rates) * horizon
            counts = rng.poisson(intensity, size=samples).astype(float)
            downtime += _scaled(counts, event_downtime)
            loss += _scaled(counts, event_loss)
            penalty += _scaled(counts, event_penalty)
        return MonteCarloResult(
            samples=samples,
            seed=seed,
            downtime=empirical_distribution(downtime),
            loss=empirical_distribution(loss),
            penalty=empirical_distribution(penalty),
        )


def _as_table(rows: "Sequence[SeverityRow]") -> SeverityTable:
    """``rows`` sorted and held as a :class:`SeverityTable` of one slot each."""
    if isinstance(rows, SeverityTable):
        return rows
    ordered = sorted(rows)
    ids, rates, *severities = tuple(zip(*ordered)) or ((),) * 5
    return SeverityTable(
        ids, rates, range(len(ordered)), list(zip(*severities))
    )


def _severity_groups(
    rows: "Sequence[SeverityRow]",
) -> "Dict[Severity, Tuple[str, List[PerSecond]]]":
    """``severity -> (smallest member id, rates in member-id order)``.

    Validates the rows first, then walks them sorted; the dict's
    insertion order is therefore the order of each group's smallest
    member id, whatever the hash seed.
    """
    table = _as_table(rows)
    check_entries(table.rates, *map(table.column, range(3)))
    groups: "Dict[Severity, Tuple[str, List[PerSecond]]]" = {}
    severities = table.severities
    for member_id, slot, rate in zip(table.ids, table.slots, table.rates):
        severity = severities[slot]
        group = groups.get(severity)
        if group is None:
            groups[severity] = (member_id, [rate])
        else:
            group[1].append(rate)
    return groups


def _scaled(counts: "np.ndarray", severity: float) -> "np.ndarray":
    """Total severity per sample; 0 events x infinite severity is 0."""
    import numpy as np

    if math.isfinite(severity):
        return counts * severity
    return np.where(counts > 0, float("inf"), 0.0)


@dataclass(frozen=True)
class BoundCheck:
    """One member's simulated losses against its analytic bound."""

    member_id: str
    scenario: str
    analytic_bound: Seconds
    max_simulated: Seconds
    samples: int

    @property
    def within_bound(self) -> bool:
        return self.max_simulated <= self.analytic_bound


def simulated_loss_check(
    design,
    members: "Sequence[Tuple[str, FailureScenario]]",
    seed: int = 0,
    times_per_member: int = 16,
    horizon: "Optional[Seconds]" = None,
) -> "List[BoundCheck]":
    """Replay members through the event simulator; check the bound.

    For each ``(member_id, scenario)`` pair, inject
    ``times_per_member`` random failure times (from the member's own
    substream of ``seed``) into a built simulation of ``design`` and
    compare the worst measured data loss against
    :meth:`DependabilitySimulator.analytic_bound`.  A member whose
    measured loss exceeded its bound would mean the aggregator's
    severities understate reality — the check the paper's validation
    future-work item asks for, applied to the risk layer.
    """
    if callable(design) and not hasattr(design, "levels"):
        design = design()
    simulator = DependabilitySimulator(
        design, horizon=horizon if horizon is not None else 320 * WEEK
    )
    simulator.build()
    start, end = simulator.steady_state_window()
    checks: "List[BoundCheck]" = []
    for member_id, scenario in sorted(members, key=lambda pair: pair[0]):
        times = random_times(
            start, end, times_per_member, seed=seed,
            stream=f"risk:{member_id}",
        )
        losses = [
            simulator.measure_loss(scenario, t).data_loss for t in times
        ]
        checks.append(
            BoundCheck(
                member_id=member_id,
                scenario=scenario.describe(),
                analytic_bound=simulator.analytic_bound(scenario),
                max_simulated=max(losses),
                samples=times_per_member,
            )
        )
    return checks
