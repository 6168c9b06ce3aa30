"""The common data protection technique abstraction (paper section 3.2.1).

Every technique is described by the same parameter set — accumulation /
propagation / hold windows, cycle structure, retention and copy
representations — and exposes the same three behaviours to the
compositional framework:

1. **validation** of its policy against the paper's conventions
   (``propW <= accW`` etc.);
2. **demands**: converting the policy into the bandwidth and capacity
   demands it places on the devices of its level (section 3.2.3);
3. **timeline queries** (worst lag, RP spacing, retention span) via its
   :class:`~repro.techniques.timeline.CycleModel`.

Differences between techniques live entirely in how they implement
these, which is what makes the models composable.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Union

from ..exceptions import PolicyError
from ..devices.base import Demand, Device, Placement
from ..units import parse_duration
from ..workload.spec import Workload
from .facts import TechniqueFacts
from .timeline import CycleModel


class CopyRepresentation(enum.Enum):
    """How an RP is stored or propagated: a full copy or a partial delta."""

    FULL = "full"
    PARTIAL = "partial"


class ProtectionTechnique:
    """Base class for all data protection techniques.

    Parameters
    ----------
    name:
        The technique's label within a design (also the key under which
        its demands and outlays are attributed, e.g. ``"split mirror"``).
    """

    #: True only for the primary copy (level 0).
    is_primary: bool = False

    #: True when the technique's copies live on the *source* device
    #: (virtual snapshots, split mirrors) so restores are intra-device.
    co_located_with_source: bool = False

    #: True when restoring from this level requires routing the data
    #: through the previous level's device type (vaulted tapes must be
    #: read by a tape library).
    reads_via_source_level: bool = False

    #: What representation this level retains / propagates.
    copy_representation: CopyRepresentation = CopyRepresentation.FULL
    propagation_representation: CopyRepresentation = CopyRepresentation.FULL

    def __init__(self, name: str):
        if not name:
            raise PolicyError("technique requires a name")
        self.name = name

    # -- timeline ------------------------------------------------------------------

    def cycle(self) -> CycleModel:
        """The level's RP arrival cycle.  Techniques must override."""
        raise NotImplementedError

    def worst_lag(self) -> float:
        """Worst-case out-of-dateness contributed by this level alone."""
        return self.cycle().worst_lag()

    def worst_spacing(self) -> float:
        """Worst gap between usable RP snapshots retained at this level."""
        return self.cycle().worst_spacing()

    def retention_span(self) -> float:
        """How far back this level's RPs are guaranteed to reach."""
        return self.cycle().retention_span()

    def full_availability_delay(self) -> float:
        """``holdW + propW`` term this level adds to downstream lag sums."""
        return self.cycle().full_availability_delay()

    def retention_window(self) -> float:
        """``retW``: how long an individual RP is retained."""
        cycle = self.cycle()
        return cycle.retention_count * cycle.period

    # -- demands ---------------------------------------------------------------------

    def validate(self, workload: Workload) -> None:
        """Check policy parameters against the section 3.2.1 conventions.

        The base implementation checks nothing; techniques with windows
        override and call :func:`check_windows`.
        """

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """This level's ``(device, demand)`` placements, in order.

        Parameters
        ----------
        workload:
            The protected data object's workload.
        store:
            The device holding this level's RPs.
        source_store:
            The device holding the previous level's copy (reads for
            propagation are demanded from it).
        transport:
            The interconnect carrying RPs from the previous level, if
            distinct hardware is involved.
        source_facts:
            The previous level's technique facts (vaulting needs the
            backup retention window to decide whether extra tape copies
            are required).
        """
        raise NotImplementedError

    def place(self, device: Device, **amounts: Any) -> Placement:
        """This technique's :class:`~repro.devices.base.Demand` on ``device``."""
        return device, Demand(self.name, **amounts)

    # -- long-run propagation volume -----------------------------------------------------

    def propagated_bytes_per_cycle(self, workload: Workload) -> float:
        """Bytes moved into this level over one policy cycle.

        The default covers the common cases: a full-representation
        propagation moves the whole dataset once per cycle; a partial
        one moves the unique updates of one cycle.  Techniques with
        richer cycles (incremental backups) override.
        """
        cycle = self.cycle()
        if self.propagation_representation is CopyRepresentation.FULL:
            return workload.data_capacity * sum(
                1 for event in cycle.events if event.is_full
            )
        return workload.unique_bytes(cycle.period)

    def average_propagation_rate(self, workload: Workload) -> float:
        """Long-run mean transfer rate into this level, bytes/s.

        This is always at most the *provisioned* bandwidth demand the
        technique places (section 3.2.3 sizes for the peak within a
        propagation window); the gap is the burst headroom.  Used as a
        §3.2.3 consistency crosscheck and for energy/egress estimates.
        """
        return self.propagated_bytes_per_cycle(workload) / self.cycle().period

    # -- recovery ---------------------------------------------------------------------

    def recovery_size(self, workload: Workload, requested_bytes: float) -> float:
        """Bytes that must be transferred to restore from this level.

        ``requested_bytes`` is the size of what the scenario needs back
        (a single object, or the whole dataset).  Techniques whose worst
        case restores more than one RP (full + largest incremental)
        override this.
        """
        return requested_bytes

    # -- misc -------------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable one-line policy summary."""
        return f"{self.name} ({type(self).__name__})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def check_windows(
    name: str,
    accumulation_window: Union[str, float],
    propagation_window: Union[str, float] = 0.0,
    hold_window: Union[str, float] = 0.0,
    retention_count: int = 1,
) -> "tuple[float, float, float, int]":
    """Parse and validate the common window parameters.

    Enforces the paper's local conventions: positive accumulation
    window, non-negative hold and propagation windows, and
    ``propW <= accW`` ("to maintain the flow of data between the
    levels").  Returns the parsed ``(accW, propW, holdW, retCnt)``.
    """
    acc = parse_duration(accumulation_window)
    prop = parse_duration(propagation_window)
    hold = parse_duration(hold_window)
    if acc <= 0:
        raise PolicyError(f"{name}: accumulation window must be positive, got {acc}")
    if prop < 0 or hold < 0:
        raise PolicyError(f"{name}: hold and propagation windows must be >= 0")
    if prop > acc:
        raise PolicyError(
            f"{name}: propagation window ({prop:.0f}s) must not exceed the "
            f"accumulation window ({acc:.0f}s), or RP transfers overlap "
            "(paper section 3.2.1)"
        )
    if retention_count < 1:
        raise PolicyError(f"{name}: retention count must be >= 1, got {retention_count}")
    return acc, prop, hold, retention_count
