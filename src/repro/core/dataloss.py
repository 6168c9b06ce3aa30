"""Recent data loss and recovery-source selection (paper §3.3.2–3.3.3).

For each surviving level the framework computes the range of time whose
RPs are *guaranteed* present (Figure 3): the newest guaranteed RP is
``sum(holdW_i + propW_i) + accW_j`` old (generalized here to the cycle
model's worst lag plus the upstream delays), and the oldest reaches back
a further ``(retCnt_j - 1) * cyclePer_j``.

Given the recovery target, three cases per level (§3.3.3):

1. target newer than the level's newest guaranteed RP → the level is
   usable, losing the level's full time lag of recent updates;
2. target within the guaranteed range → usable, losing at most the
   worst spacing between RPs (the paper's ``accW_j``);
3. target older than the range → the level cannot serve the recovery.

The closest usable level (lowest index — fastest media, freshest RPs)
becomes the recovery source.  If no level qualifies, the data object is
lost in its entirety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import RecoveryError
from ..scenarios.failures import FailureScenario
from ..techniques.facts import FactsTable
from .hierarchy import Level, StorageDesign


@dataclass(frozen=True)
class LevelRange:
    """A level's guaranteed RP age range (ages relative to 'now')."""

    level_index: int
    technique_name: str
    newest_age: float
    oldest_age: float

    def covers(self, target_age: float) -> bool:
        """Whether an RP at or before the target age is guaranteed here."""
        return target_age <= self.oldest_age


@dataclass(frozen=True)
class DataLossResult:
    """Worst-case recent data loss and the level that bounds it.

    ``source_index`` and ``source_technique`` mirror the source level's
    identity as plain values; they are filled automatically from
    ``source_level`` and survive serialization (a result restored from
    the engine's cache has ``source_level=None`` but keeps both).
    """

    source_level: Optional[Level]
    data_loss: float
    total_loss: bool
    target_age: float
    ranges: Tuple[LevelRange, ...]
    source_index: Optional[int] = None
    source_technique: Optional[str] = None

    def __post_init__(self) -> None:
        if self.source_level is not None:
            if self.source_index is None:
                object.__setattr__(self, "source_index", self.source_level.index)
            if self.source_technique is None:
                object.__setattr__(
                    self, "source_technique", self.source_level.technique.name
                )

    @property
    def source_name(self) -> str:
        """The recovery source technique's name ("split mirror", ...)."""
        if self.source_technique is None:
            return "(unrecoverable)"
        return self.source_technique


def level_range(
    design: StorageDesign, level: Level, facts: Optional[FactsTable] = None
) -> LevelRange:
    """The Figure 3 guaranteed range for one level of a design.

    ``facts`` is the caller's technique-facts table; a fresh one is
    used when not given.
    """
    if facts is None:
        facts = FactsTable()
    upstream = design.upstream_delay(level.index, facts)
    own = facts.of(level.technique)
    newest_age = upstream + own.worst_lag
    oldest_age = upstream + own.full_availability_delay + own.retention_span
    return LevelRange(
        level_index=level.index,
        technique_name=level.technique.name,
        newest_age=newest_age,
        oldest_age=max(oldest_age, newest_age - own.worst_spacing),
    )


@dataclass(frozen=True)
class LevelEntry:
    """One level's scenario-independent facts: its range and RP spacing."""

    rp_range: LevelRange
    worst_spacing: float


class LevelTable(Dict[int, LevelEntry]):
    """A design's :class:`LevelEntry` per secondary level index.

    Ranges and spacings depend only on the techniques' windows and the
    hierarchy, never on demands or the failure scenario, so one table
    serves every scenario evaluated against the design.  Entries are
    computed on first lookup, so a level is ranged at most once per
    table and levels no scenario reaches are never ranged.  Technique
    facts come from ``facts``, which may be shared with other designs'
    tables; a fresh one is used when not given.
    """

    def __init__(
        self, design: StorageDesign, facts: Optional[FactsTable] = None
    ) -> None:
        super().__init__()
        self._design = design
        self._facts = FactsTable() if facts is None else facts

    def __missing__(self, index: int) -> LevelEntry:
        level = self._design.level(index)
        entry = self[index] = LevelEntry(
            rp_range=level_range(self._design, level, self._facts),
            worst_spacing=self._facts.of(level.technique).worst_spacing,
        )
        return entry


def _loss_for_level(entry: LevelEntry, target_age: float) -> Optional[float]:
    """Worst-case loss using this level, or None when it cannot serve."""
    rng = entry.rp_range
    if target_age < rng.newest_age:
        # Case 1: the wanted RP hasn't propagated here yet; restore the
        # newest RP present and lose the level's whole time lag.
        return rng.newest_age
    if target_age <= rng.oldest_age:
        # Case 2: RPs bracketing the target are retained; lose at most
        # one RP spacing relative to the target.
        return entry.worst_spacing
    # Case 3: too old — already expired from this level.
    return None


def usable_levels(
    design: StorageDesign,
    scenario: FailureScenario,
    levels: Optional[LevelTable] = None,
) -> "Tuple[Tuple[LevelRange, ...], List[Tuple[Level, float]]]":
    """The surviving levels' ranges, and each one able to serve the target.

    The second item pairs every level that can serve the scenario with
    its worst-case loss, closest level first.  ``levels`` is the design's
    :class:`LevelTable`; a fresh one is used when not given.
    """
    if levels is None:
        levels = LevelTable(design)
    target_age = scenario.recovery_target_age
    survivors = design.surviving_levels(scenario)
    ranges = tuple(levels[level.index].rp_range for level in survivors)
    usable: "List[Tuple[Level, float]]" = []
    for level in survivors:
        loss = _loss_for_level(levels[level.index], target_age)
        if loss is not None:
            usable.append((level, loss))
    return ranges, usable


def find_recovery_source(
    design: StorageDesign,
    scenario: FailureScenario,
    levels: Optional[LevelTable] = None,
) -> DataLossResult:
    """Pick the recovery source level and its worst-case data loss.

    Surviving levels are considered closest-first (they hold the most
    recent RPs on the fastest media).  A level whose guaranteed range
    has expired past the target is skipped; if every level has, the
    object is a total loss.  ``levels`` is the design's
    :class:`LevelTable`; a fresh one is used when not given.
    """
    target_age = scenario.recovery_target_age
    ranges, usable = usable_levels(design, scenario, levels)
    if usable:
        level, loss = usable[0]
        return DataLossResult(
            source_level=level,
            data_loss=loss,
            total_loss=False,
            target_age=target_age,
            ranges=ranges,
        )
    return DataLossResult(
        source_level=None,
        data_loss=float("inf"),
        total_loss=True,
        target_age=target_age,
        ranges=ranges,
    )


def compute_data_loss(
    design: StorageDesign,
    scenario: FailureScenario,
    allow_total_loss: bool = True,
    levels: Optional[LevelTable] = None,
) -> DataLossResult:
    """Worst-case recent data loss for the scenario.

    With ``allow_total_loss=False`` an unrecoverable scenario raises
    :class:`~repro.exceptions.RecoveryError` instead of returning an
    infinite loss.  ``levels`` is the design's :class:`LevelTable`, as
    for :func:`find_recovery_source`.
    """
    result = find_recovery_source(design, scenario, levels)
    if result.total_loss and not allow_total_loss:
        raise RecoveryError(
            f"design {design.name!r} retains no RP usable for "
            f"{scenario.describe()}: the data object is lost"
        )
    return result
