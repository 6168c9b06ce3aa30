"""Scenario ensembles: failure scenarios with annual occurrence rates.

The base framework evaluates one *hypothesized* failure at a time and
reports its worst case.  An ensemble goes probabilistic: it attaches an
occurrence rate to each :class:`~repro.scenarios.failures.FailureScenario`
and lets the aggregator fold per-event severities into annualized
expected-downtime / expected-loss / expected-penalty distributions.

Three ways members enter an ensemble:

* **declared** — a scenario with an explicit rate (or a rate produced
  by the k-out-of-n redundancy model of :mod:`repro.risk.kofn`);
* **correlated** — :func:`correlated_pair` splits one fault's rate
  between its plain form and a co-occurring form (the motivating case:
  an array failure during the backup window also voids the in-flight
  backup copy, escalating the effective scope);
* **cascading** — a :class:`CascadeSpec` models a second fault arriving
  *during recovery* from the first.  The cascade probability depends on
  the recovery time the evaluator itself computes, so cascades stay
  symbolic until :meth:`CascadeSpec.split` is given that recovery time
  (the aggregator does this after evaluating the primary scenario).

Rates are events per **second** internally — the same SI-base-unit
convention as every other quantity in the framework.  Spec files write
``"0.5/yr"`` and :func:`repro.units.parse_event_rate` converts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..exceptions import RiskError
from ..scenarios.failures import FailureScenario
from ..units import MB, WEEK, PerSecond, Seconds, YEAR, parse_duration, parse_size


@dataclass(frozen=True)
class EnsembleMember:
    """One failure scenario with its occurrence rate (events/second)."""

    member_id: str
    scenario: FailureScenario
    occurrence_rate: PerSecond

    def __post_init__(self) -> None:
        if not self.member_id:
            raise RiskError("ensemble member id must be non-empty")
        if not self.occurrence_rate > 0:
            raise RiskError(
                f"ensemble member {self.member_id!r} has non-positive "
                f"occurrence rate {self.occurrence_rate!r} (events must "
                "be possible; drop the member instead of zeroing it)"
            )

    @classmethod
    def per_year(
        cls, member_id: str, scenario: FailureScenario, rate_per_year: float
    ) -> "EnsembleMember":
        """A member declared in the paper's events-per-year idiom."""
        return cls(member_id, scenario, rate_per_year / YEAR)

    @property
    def rate_per_year(self) -> float:
        """The occurrence rate in events per year (for reporting)."""
        return self.occurrence_rate * YEAR


@dataclass(frozen=True)
class CascadeSpec:
    """A second fault arriving while the first is still being repaired.

    The primary fault occurs at ``occurrence_rate``.  While its
    recovery runs (a duration the evaluator computes), a secondary
    fault process with rate ``secondary_rate`` may fire; the cascade
    probability is ``1 - exp(-secondary_rate * recovery_time)``.
    Alternatively an explicit ``probability`` fixes the split without
    reference to the recovery time.  :meth:`split` expands the spec
    into two concrete members: the escalated combination and the
    uncascaded remainder.
    """

    member_id: str
    primary: FailureScenario
    occurrence_rate: PerSecond
    escalated: FailureScenario
    secondary_rate: Optional[PerSecond] = None
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.member_id:
            raise RiskError("cascade member id must be non-empty")
        if not self.occurrence_rate > 0:
            raise RiskError(
                f"cascade {self.member_id!r} has non-positive occurrence "
                f"rate {self.occurrence_rate!r}"
            )
        if (self.secondary_rate is None) == (self.probability is None):
            raise RiskError(
                f"cascade {self.member_id!r} needs exactly one of "
                "secondary_rate or probability"
            )
        if self.secondary_rate is not None and not self.secondary_rate > 0:
            raise RiskError(
                f"cascade {self.member_id!r} has non-positive secondary "
                f"rate {self.secondary_rate!r}"
            )
        if self.probability is not None and not 0 < self.probability <= 1:
            raise RiskError(
                f"cascade {self.member_id!r} probability "
                f"{self.probability!r} is outside (0, 1]"
            )

    def cascade_probability(self, recovery_time: Seconds) -> float:
        """P(secondary fault during the primary's recovery window)."""
        if self.probability is not None:
            return self.probability
        assert self.secondary_rate is not None
        if not recovery_time >= 0:
            raise RiskError(
                f"cascade {self.member_id!r}: primary recovery time is "
                f"{recovery_time!r}; a design that cannot recover from "
                "the primary fault has no finite exposure window"
            )
        return 1.0 - math.exp(-self.secondary_rate * recovery_time)

    def split(self, recovery_time: Seconds) -> "List[EnsembleMember]":
        """The concrete members this cascade contributes.

        The escalated member carries ``rate * p`` and the combined
        scenario; the remainder keeps the primary scenario at
        ``rate * (1 - p)``.  A degenerate probability (0 or 1) yields
        a single member, never a zero-rate one.
        """
        p = self.cascade_probability(recovery_time)
        members: "List[EnsembleMember]" = []
        if p > 0:
            members.append(
                EnsembleMember(
                    f"{self.member_id}.cascade",
                    self.escalated,
                    self.occurrence_rate * p,
                )
            )
        if p < 1:
            members.append(
                EnsembleMember(
                    self.member_id, self.primary, self.occurrence_rate * (1 - p)
                )
            )
        return members


@dataclass(frozen=True)
class ScenarioEnsemble:
    """A named collection of rated failure scenarios (plus cascades)."""

    name: str
    members: Tuple[EnsembleMember, ...]
    cascades: Tuple[CascadeSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.members and not self.cascades:
            raise RiskError(f"ensemble {self.name!r} has no members")
        seen = set()
        for member_id in [m.member_id for m in self.members] + [
            c.member_id for c in self.cascades
        ]:
            if member_id in seen:
                raise RiskError(
                    f"ensemble {self.name!r} has duplicate member id "
                    f"{member_id!r}"
                )
            seen.add(member_id)
        # A cascade expands into its own id plus ``{id}.cascade``; the
        # latter must not meet another member, or two expanded members
        # would share one id (and one Monte Carlo substream).
        for cascade in self.cascades:
            escalated_id = f"{cascade.member_id}.cascade"
            if escalated_id in seen:
                raise RiskError(
                    f"ensemble {self.name!r}: member id {escalated_id!r} "
                    f"collides with the escalated member of cascade "
                    f"{cascade.member_id!r}"
                )

    def __len__(self) -> int:
        return len(self.members) + len(self.cascades)

    @property
    def total_rate(self) -> PerSecond:
        """The combined occurrence rate of all declared events.

        Cascade splitting conserves rate, so this is exact before and
        after expansion.
        """
        declared = sum(m.occurrence_rate for m in self.members)
        return declared + sum(c.occurrence_rate for c in self.cascades)

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.members)} members, "
            f"{len(self.cascades)} cascades"
        )


def correlated_pair(
    member_id: str,
    base: FailureScenario,
    correlated: FailureScenario,
    occurrence_rate: PerSecond,
    correlation_fraction: float,
) -> "List[EnsembleMember]":
    """Split one fault's rate between its plain and correlated forms.

    ``correlation_fraction`` is the fraction of occurrences that
    coincide with the correlating condition; those events present as
    the ``correlated`` scenario, the rest as ``base``.  The two rates
    sum to ``occurrence_rate`` exactly.
    """
    if not 0 < correlation_fraction <= 1:
        raise RiskError(
            f"correlation fraction {correlation_fraction!r} of "
            f"{member_id!r} is outside (0, 1]"
        )
    members = [
        EnsembleMember(
            f"{member_id}.corr",
            correlated,
            occurrence_rate * correlation_fraction,
        )
    ]
    if correlation_fraction < 1:
        members.append(
            EnsembleMember(
                member_id, base, occurrence_rate * (1 - correlation_fraction)
            )
        )
    return members


def array_failure_during_backup_window(
    member_id: str,
    occurrence_rate: PerSecond,
    window_fraction: float,
    device_name: str = "primary-array",
    escalated: Optional[FailureScenario] = None,
) -> "List[EnsembleMember]":
    """The motivating correlated event: the array dies mid-backup.

    ``window_fraction`` is the fraction of time the backup propagation
    window is open (``propagation_window / cycle_period`` of the backup
    level).  An array failure landing inside it also voids the copy
    being written, so recovery must come from the next level up — the
    escalated scenario, a building disaster at the primary location by
    default (array and in-flight backup media share the building).
    """
    if escalated is None:
        escalated = FailureScenario.building_disaster()
    return correlated_pair(
        member_id,
        FailureScenario.array_failure(device_name),
        escalated,
        occurrence_rate,
        window_fraction,
    )


def object_corruption_grid(
    count: int,
    total_rate_per_year: float,
    distinct_ages: int = 64,
    max_age: "float | str" = 1 * WEEK,
    object_size: "float | str" = 1 * MB,
) -> ScenarioEnsemble:
    """A generated ensemble: ``count`` rated object-corruption events.

    Recovery-target ages cycle through ``distinct_ages`` evenly spaced
    points in ``(0, max_age]``, so the ensemble holds ``count`` members
    over ``distinct_ages`` unique scenarios — the shape that exercises
    the aggregator's content-addressed dedup (and, across runs, its
    result cache).  Members with the same age share one scenario
    object.  Each member carries an equal share of
    ``total_rate_per_year``.
    """
    if count < 1:
        raise RiskError("generated ensemble needs at least one member")
    if distinct_ages < 1 or distinct_ages > count:
        raise RiskError(
            f"distinct_ages must be in [1, count], got {distinct_ages}"
        )
    age_span = parse_duration(max_age)
    size = parse_size(object_size)
    if not age_span > 0:
        raise RiskError(f"max_age must be positive, got {max_age!r}")
    share = total_rate_per_year / count
    scenarios = [
        FailureScenario.object_corruption(
            object_size=size,
            recovery_target_age=age_span * (step + 1) / distinct_ages,
        )
        for step in range(distinct_ages)
    ]
    members = [
        EnsembleMember.per_year(
            f"obj-{index:04d}", scenarios[index % distinct_ages], share
        )
        for index in range(count)
    ]
    return ScenarioEnsemble(
        name=f"object-grid-{count}", members=tuple(members)
    )
