"""The RP propagation hierarchy: levels and the storage system design.

A :class:`StorageDesign` is an ordered list of :class:`Level` objects.
Level 0 is always the primary copy; each subsequent level receives RPs
from the one before it, retains some, and may forward them onward
(paper section 3.2, Figure 1).  Each level binds its technique to the
device that stores its RPs and, when RPs cross hardware, to the
interconnect that carries them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..devices.base import Device
from ..devices.spares import SpareConfig
from ..exceptions import DesignError
from ..scenarios.failures import FailureScenario, FailureScope
from ..units import HOUR
from ..techniques.base import ProtectionTechnique
from ..techniques.facts import FactsTable


@dataclass(frozen=True)
class Level:
    """One level of the hierarchy: a technique bound to its devices.

    Parameters
    ----------
    index:
        Level number (0 = primary copy).
    technique:
        The data protection technique maintaining this level's RPs.
    store:
        The device holding this level's RPs.  Co-located techniques
        (split mirror, snapshot) use the same device as their parent
        level.
    transport:
        The interconnect carrying RPs from the parent level, when one
        is involved (SAN for backup, WAN links for remote mirroring, a
        courier for vaulting).  ``None`` for intra-device levels.
    parent_index:
        The level this one receives RPs from.  The paper's hierarchies
        are linear (each level feeds from the previous one), but real
        designs branch: a snapshot *and* a mirror can both feed from the
        primary copy.  Defaults to ``index - 1``.
    """

    index: int
    technique: ProtectionTechnique
    store: Device
    transport: Optional[Device] = None
    parent_index: int = -1

    def __post_init__(self) -> None:
        if self.index < 0:
            raise DesignError(f"level index must be >= 0, got {self.index}")
        if self.transport is not None and not self.transport.is_interconnect:
            raise DesignError(
                f"level {self.index} transport {self.transport.name!r} is not "
                "an interconnect device"
            )
        if self.parent_index == -1:
            object.__setattr__(self, "parent_index", self.index - 1)
        if self.index > 0 and not 0 <= self.parent_index < self.index:
            raise DesignError(
                f"level {self.index} must feed from an earlier level, "
                f"got parent {self.parent_index}"
            )

    def describe(self) -> str:
        """One-line rendering for hierarchy diagrams."""
        via = f" via {self.transport.name}" if self.transport is not None else ""
        feed = (
            f" <- level {self.parent_index}"
            if self.index > 0 and self.parent_index != self.index - 1
            else ""
        )
        return (
            f"level {self.index}: {self.technique.describe()} "
            f"on {self.store.name}{via}{feed}"
        )


class StorageDesign:
    """A complete storage system design: hierarchy + shared recovery facility.

    Build with :meth:`add_level`, primary copy first::

        design = StorageDesign("baseline")
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("12 hr", 4), store=array)
        design.add_level(Backup("1 wk", "48 hr", "1 hr", 4),
                         store=library, transport=san)
        design.add_level(RemoteVaulting("4 wk", "24 hr", hold, 39),
                         store=vault, transport=courier)

    Parameters
    ----------
    name:
        Design label used throughout reports.
    recovery_facility:
        The shared recovery facility used when a failure scope destroys
        a device *and* its dedicated (co-located) spare — the case
        study's remote hosting facility: 9 h provisioning at 0.2x cost.
        ``None`` means site-scale failures of unspared devices are
        unrecoverable.
    """

    def __init__(
        self,
        name: str,
        recovery_facility: Optional[SpareConfig] = None,
    ):
        if not name:
            raise DesignError("design requires a name")
        self.name = name
        self.recovery_facility = recovery_facility
        self._levels: List[Level] = []

    # -- construction -----------------------------------------------------------

    def add_level(
        self,
        technique: ProtectionTechnique,
        store: Device,
        transport: Optional[Device] = None,
        feeds_from: Optional[int] = None,
    ) -> Level:
        """Append a level to the hierarchy and return it.

        ``feeds_from`` names the level this one receives RPs from; by
        default the previous level (the paper's linear hierarchy).
        Branching lets a snapshot and a mirror both feed from level 0.
        """
        index = len(self._levels)
        parent_index = index - 1 if feeds_from is None else feeds_from
        if index == 0:
            if not technique.is_primary:
                raise DesignError("level 0 must be a primary copy technique")
            if transport is not None:
                raise DesignError("level 0 has no inbound transport")
            if feeds_from is not None:
                raise DesignError("level 0 feeds from nothing")
        else:
            if technique.is_primary:
                raise DesignError("only level 0 may be the primary copy")
            if not 0 <= parent_index < index:
                raise DesignError(
                    f"level {index} must feed from an existing earlier level, "
                    f"got {parent_index}"
                )
            parent_store = self._levels[parent_index].store
            if technique.co_located_with_source and store is not parent_store:
                raise DesignError(
                    f"{technique.name!r} keeps its copies on the source device; "
                    f"bind it to {parent_store.name!r}"
                )
        level = Level(
            index=index,
            technique=technique,
            store=store,
            transport=transport,
            parent_index=parent_index,
        )
        self._levels.append(level)
        return level

    def parent_of(self, level: Level) -> Level:
        """The level the given one receives RPs from."""
        if level.index == 0:
            raise DesignError("level 0 has no parent")
        return self._levels[level.parent_index]

    # -- structure queries ---------------------------------------------------------

    @property
    def levels(self) -> Tuple[Level, ...]:
        """All levels, primary copy first."""
        return tuple(self._levels)

    @property
    def primary_level(self) -> Level:
        """Level 0."""
        if not self._levels:
            raise DesignError(f"design {self.name!r} has no levels")
        return self._levels[0]

    def secondary_levels(self) -> Tuple[Level, ...]:
        """Levels 1..n (the data protection techniques proper)."""
        return tuple(self._levels[1:])

    def level(self, index: int) -> Level:
        """The level with the given index."""
        try:
            return self._levels[index]
        except IndexError:
            raise DesignError(
                f"design {self.name!r} has no level {index}"
            ) from None

    def devices(self) -> Tuple[Device, ...]:
        """Unique devices (stores and transports) in first-use order."""
        seen: "Dict[int, Device]" = {}
        for level in self._levels:
            for device in (level.store, level.transport):
                if device is not None and id(device) not in seen:
                    seen[id(device)] = device
        return tuple(seen.values())

    def storage_devices(self) -> Tuple[Device, ...]:
        """Unique non-interconnect devices in first-use order."""
        return tuple(d for d in self.devices() if not d.is_interconnect)

    # -- derived designs ---------------------------------------------------------------

    def without_level(self, index: int, name: Optional[str] = None) -> "StorageDesign":
        """A derived design with one secondary level removed.

        This is the analytic half of degraded-mode evaluation (the
        paper's section 5 future work): evaluating the design as if a
        data protection technique were out of service.  Devices are
        shared with the original design (clear/re-register demands
        before evaluating either).  Level 0 cannot be removed.
        """
        if index == 0:
            raise DesignError("cannot remove the primary copy")
        removed = self.level(index)  # raises for unknown indices
        derived = StorageDesign(
            name or f"{self.name} [without {removed.technique.name}]",
            recovery_facility=self.recovery_facility,
        )
        index_map: "Dict[int, int]" = {}
        for level in self._levels:
            if level.index == index:
                continue
            if level.index == 0:
                derived.add_level(level.technique, store=level.store)
                index_map[0] = 0
                continue
            parent = level.parent_index
            if parent == index:
                # Children of the removed level re-attach to its parent.
                parent = removed.parent_index
            derived.add_level(
                level.technique,
                store=level.store,
                transport=level.transport,
                feeds_from=index_map[parent],
            )
            index_map[level.index] = len(derived.levels) - 1
        return derived

    # -- failure mapping --------------------------------------------------------------

    def failed_devices(self, scenario: FailureScenario) -> Tuple[Device, ...]:
        """The devices destroyed by the scenario's failure scope."""
        scope = scenario.scope
        if scope is FailureScope.DATA_OBJECT:
            return ()
        if scope is FailureScope.DISK_ARRAY:
            matches = [d for d in self.devices() if d.name == scenario.failed_device]
            if not matches:
                raise DesignError(
                    f"scenario names unknown device {scenario.failed_device!r}"
                )
            return tuple(matches)
        failed_at = scenario.failed_location or self.primary_level.store.location
        return tuple(
            device
            for device in self.devices()
            if scope.fails_location(failed_at, device.location)
        )

    def surviving_levels(self, scenario: FailureScenario) -> Tuple[Level, ...]:
        """Secondary levels whose store survives the failure."""
        failed = set(id(d) for d in self.failed_devices(scenario))
        return tuple(
            level
            for level in self.secondary_levels()
            if id(level.store) not in failed
        )

    # -- upstream delay sums (paper section 3.3.2) ----------------------------------------

    def upstream_delay(
        self, index: int, facts: Optional[FactsTable] = None
    ) -> float:
        """Sum of ``holdW + propW`` along the ancestor chain.

        The delay an RP accumulates traversing the hierarchy *before*
        reaching the given level; the level's own windows are accounted
        by its technique's cycle model.  For linear hierarchies this is
        the paper's sum over levels ``1..index-1``; for branching ones
        only the actual ancestors contribute.  Each ancestor's delay is
        read from ``facts`` (a fresh table when not given).
        """
        if facts is None:
            facts = FactsTable()
        total = 0.0
        current = self._levels[index]
        while current.index > 0:
            parent = self._levels[current.parent_index]
            if parent.index > 0:
                total += facts.of(parent.technique).full_availability_delay
            current = parent
        return total

    # -- rendering ----------------------------------------------------------------------

    def _depth(self, level: Level) -> int:
        """Hops from level 0 along the parent chain."""
        depth = 0
        current = level
        while current.index > 0:
            current = self._levels[current.parent_index]
            depth += 1
        return depth

    def render_hierarchy(self) -> str:
        """ASCII rendering of the hierarchy (the paper's Figure 1)."""
        lines = [f"storage design: {self.name}"]
        for level in self._levels:
            indent = "  " * self._depth(level)
            arrow = "" if level.index == 0 else "-> "
            lines.append(f"{indent}{arrow}{level.describe()}")
        if self.recovery_facility is not None:
            lines.append(
                f"  [shared recovery facility: provision in "
                f"{self.recovery_facility.provisioning_time / HOUR:.1f} h, "
                f"{self.recovery_facility.discount:.0%} of dedicated cost]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<StorageDesign {self.name!r}, {len(self._levels)} levels>"
