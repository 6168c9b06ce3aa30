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

A generated ensemble is a rule, not a list: :class:`MemberGrid` keeps
an id rule, one per-member rate and a short scenario cycle, and
:class:`EnsembleMembers` (every ensemble's ``members``) builds an
:class:`EnsembleMember` only when one is read.  ``len()`` costs
nothing, and the aggregator reads the rule as columns.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple, TypeVar

from ..exceptions import RiskError
from ..scenarios.failures import FailureScenario
from ..units import MB, WEEK, PerSecond, Seconds, YEAR, parse_duration, parse_size

T = TypeVar("T")


class LazySequence(Sequence[T]):
    """A read-only sequence whose items are built by ``_item`` on read.

    Slices and ``+`` give plain tuples; equality and hashing are those
    of ``tuple(self)``.
    """

    __slots__ = ()

    def _item(self, index: int) -> T:
        raise NotImplementedError

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(len(self)))))
        size = len(self)
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise IndexError(f"index {index} out of range for {size} items")
        return self._item(position)

    def __add__(self, other: object) -> "Tuple[T, ...]":
        if not isinstance(other, (tuple, LazySequence)):
            return NotImplemented
        return tuple(self) + tuple(other)

    def __radd__(self, other: object) -> "Tuple[T, ...]":
        if not isinstance(other, tuple):
            return NotImplemented
        return other + tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, LazySequence)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} items>"


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


#: A grid member's id from its index: member 42 is ``obj-0042``.
_grid_id = "obj-%04d".__mod__


@dataclass(frozen=True)
class MemberGrid:
    """Generated members as a rule: an id rule, one rate, a scenario cycle.

    Member ``index`` (``0 <= index < count``) has id ``obj-{index:04d}``,
    scenario ``scenarios[index % len(scenarios)]`` and
    ``share_per_year`` events per year, declared as
    :meth:`EnsembleMember.per_year` declares it; :meth:`member` builds
    it only when asked.
    """

    count: int
    share_per_year: float
    scenarios: Tuple[FailureScenario, ...]

    def __post_init__(self) -> None:
        if self.count < 1 or not self.scenarios:
            raise RiskError("a member grid needs members and scenarios")
        self.member(0)  # every member has this rate: reject it once

    @property
    def occurrence_rate(self) -> PerSecond:
        """Each member's :attr:`EnsembleMember.occurrence_rate`."""
        return self.share_per_year / YEAR

    def member_id(self, index: int) -> str:
        return _grid_id(index)

    def member_ids(self, order: "Sequence[int]") -> "Iterator[str]":
        """The ids of the indices in ``order``, rendered in one pass."""
        return map(_grid_id, order)

    def member(self, index: int) -> EnsembleMember:
        return EnsembleMember.per_year(
            self.member_id(index),
            self.scenarios[index % len(self.scenarios)],
            self.share_per_year,
        )

    def index_of(self, member_id: str) -> Optional[int]:
        """The index whose id is ``member_id``, or None if none is."""
        digits = member_id[len("obj-"):]
        if not (digits.isascii() and digits.isdigit()):
            return None
        if len(digits) > max(4, len(str(self.count - 1))):
            return None  # wider than any id; ``int()`` may refuse it
        index = int(digits)
        if index < self.count and self.member_id(index) == member_id:
            return index
        return None

    def id_order(self) -> "Sequence[int]":
        """The indices in member-id order.

        Ids up to ``obj-9999`` share one width, and digit strings of
        one width sort as their values; past that the ids themselves
        are sorted (``obj-10000`` sorts before ``obj-1001``).
        """
        if self.count <= 10_000:
            return range(self.count)
        return sorted(range(self.count), key=self.member_id)

    def scenario_column(self, order: "Sequence[int]") -> "List[int]":
        """``index % len(scenarios)`` for each index of ``order``."""
        cycle = len(self.scenarios)
        if order == range(self.count):
            laps = -(-self.count // cycle)
            return (list(range(cycle)) * laps)[: self.count]
        return [index % cycle for index in order]


class EnsembleMembers(LazySequence[EnsembleMember]):
    """An ensemble's members: the declared ones, then a grid's.

    Declared members are objects; a grid's are built on read, so
    ``len()`` and the aggregator's column reads build none.
    """

    __slots__ = ("declared", "grid")

    def __init__(
        self,
        declared: "Sequence[EnsembleMember]" = (),
        grid: "Optional[MemberGrid]" = None,
    ) -> None:
        self.declared = tuple(declared)
        self.grid = grid

    def __len__(self) -> int:
        return len(self.declared) + (self.grid.count if self.grid else 0)

    def _item(self, index: int) -> EnsembleMember:
        if index < len(self.declared):
            return self.declared[index]
        assert self.grid is not None
        return self.grid.member(index - len(self.declared))

    def __iter__(self) -> "Iterator[EnsembleMember]":
        yield from self.declared
        if self.grid is not None:
            yield from map(self.grid.member, range(self.grid.count))

    def rates(self) -> "Iterator[PerSecond]":
        """Each member's occurrence rate, in sequence order."""
        declared = map(attrgetter("occurrence_rate"), self.declared)
        if self.grid is None:
            return declared
        return chain(
            declared, repeat(self.grid.occurrence_rate, self.grid.count)
        )


class MemberIds(LazySequence[str]):
    """Sorted member ids: a grid's, built on read, merged with others.

    ``positions[k]`` is the row of the ``k``-th smallest explicit id in
    the merged order.  No explicit id may be a grid id.
    """

    __slots__ = ("_grid", "order", "_explicit", "positions")

    def __init__(
        self, grid: "Optional[MemberGrid]", explicit: "Sequence[str]" = ()
    ) -> None:
        self._grid = grid
        #: The grid's indices in member-id order.
        self.order = grid.id_order() if grid is not None else range(0)
        self._explicit: "List[str]" = []
        self.positions: "List[int]" = []
        for member_id in sorted(explicit):
            # ``self`` does not hold this id yet, and every id still to
            # come sorts after it: bisecting finds its final row.
            self.positions.append(bisect_left(self, member_id))
            self._explicit.append(member_id)

    def __len__(self) -> int:
        return len(self.order) + len(self._explicit)

    def _item(self, row: int) -> str:
        before = bisect_left(self.positions, row)
        if before < len(self.positions) and self.positions[before] == row:
            return self._explicit[before]
        assert self._grid is not None
        return self._grid.member_id(self.order[row - before])

    def __iter__(self) -> "Iterator[str]":
        # Runs of grid ids between the explicit ids, chained: the ids
        # are rendered and merged without a Python step per id.
        grid_ids: "Iterator[str]" = iter(())
        if self._grid is not None:
            grid_ids = self._grid.member_ids(self.order)
        pieces: "List[Iterable[str]]" = []
        cursor = 0
        for position, member_id in zip(self.positions, self._explicit):
            pieces += (islice(grid_ids, position - cursor), (member_id,))
            cursor = position + 1
        pieces.append(grid_ids)
        return chain.from_iterable(pieces)


@dataclass(frozen=True)
class ScenarioEnsemble:
    """A named collection of rated failure scenarios (plus cascades).

    ``members`` may be given as any sequence of :class:`EnsembleMember`;
    it is held as :class:`EnsembleMembers`, which a grid already is.
    """

    name: str
    members: "EnsembleMembers"
    cascades: Tuple[CascadeSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.members, EnsembleMembers):
            object.__setattr__(
                self, "members", EnsembleMembers(self.members)
            )
        if not self.members and not self.cascades:
            raise RiskError(f"ensemble {self.name!r} has no members")
        # Grid ids are distinct by construction, so the grid is only
        # asked which declared or cascade ids it holds: its ids are
        # never built.
        grid = self.members.grid
        seen = set()
        for member_id in [m.member_id for m in self.members.declared] + [
            c.member_id for c in self.cascades
        ]:
            if member_id in seen or (
                grid is not None and grid.index_of(member_id) is not None
            ):
                raise RiskError(
                    f"ensemble {self.name!r} has duplicate member id "
                    f"{member_id!r}"
                )
            seen.add(member_id)
        # A cascade expands into its own id plus ``{id}.cascade``; the
        # latter must not meet another member, or two expanded members
        # would share one id (and one Monte Carlo substream).  Grid ids
        # hold no ``.``, so they cannot meet it.
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

        Summed in declaration order: members, then cascades.  A cascade
        splits its rate ``r`` into ``r * p`` and ``r * (1 - p)``, and in
        floating point those need not add back to ``r``, so the total
        is exact only for the ensemble as declared, before expansion.
        """
        declared = sum(self.members.rates())
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
    ``total_rate_per_year``.  The members are a :class:`MemberGrid`,
    built one at a time only when read.
    """
    for name, value in (("count", count), ("distinct_ages", distinct_ages)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise RiskError(f"{name} must be an integer, got {value!r}")
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
    scenarios = tuple(
        FailureScenario.object_corruption(
            object_size=size,
            recovery_target_age=age_span * (step + 1) / distinct_ages,
        )
        for step in range(distinct_ages)
    )
    grid = MemberGrid(count, total_rate_per_year / count, scenarios)
    return ScenarioEnsemble(
        name=f"object-grid-{count}", members=EnsembleMembers(grid=grid)
    )
