"""Wide-area erasure-coded archival (an extensibility demonstration).

The paper's section 2 lists "wide area erasure-coding schemes"
(OceanStore-style) among the protection techniques its abstractions are
meant to cover, and its stated design goal is that new techniques slot
into the same parameter set "as they are invented".  This module is
that demonstration: an archival technique that erasure-codes each RP
into ``n`` fragments of which any ``k`` reconstruct the data, spread
across independent sites.

Mapping onto the common abstractions:

* RPs are created every accumulation window, propagated (encoded and
  spread) during the propagation window — the standard cycle model
  drives data loss exactly as for any other technique;
* **capacity** demand on the fragment store is the stretch factor
  ``n / k`` times the retained bytes (the redundancy overhead of the
  code);
* **interconnect** demand is the unique update bytes times ``n / k``
  (every fragment must travel) within each propagation window;
* recovery reads ``k`` fragments' worth of data — i.e. the object size
  — from the surviving fragment sites, but pays the code's decode
  overhead as extra transferred bytes when fragments are larger than
  the systematic part (modeled by the stretch on partial reads).

The fragment store is modeled as a single aggregate :class:`Device`
(per-site placement of individual fragments is below the framework's
abstraction level, exactly as the paper's vault aggregates shelves).
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..devices.base import Device, Placement
from ..exceptions import PolicyError
from ..workload.spec import Workload
from .base import CopyRepresentation, ProtectionTechnique, check_windows
from .facts import TechniqueFacts
from .timeline import CycleModel


class ErasureCodedArchive(ProtectionTechnique):
    """k-of-n erasure-coded wide-area archival of RPs.

    Parameters
    ----------
    data_fragments:
        ``k``: fragments sufficient for reconstruction.
    total_fragments:
        ``n``: fragments produced per RP (``n > k`` for redundancy).
    accumulation_window / propagation_window / hold_window:
        The standard RP windows; encoding and spreading happen within
        the propagation window.
    retention_count:
        Archived RPs retained.
    """

    copy_representation = CopyRepresentation.PARTIAL
    propagation_representation = CopyRepresentation.PARTIAL

    def __init__(
        self,
        data_fragments: int,
        total_fragments: int,
        accumulation_window: Union[str, float],
        propagation_window: Union[str, float],
        hold_window: Union[str, float] = 0.0,
        retention_count: int = 1,
        name: str = "erasure archive",
    ):
        super().__init__(name)
        if data_fragments < 1:
            raise PolicyError(f"{name}: need at least one data fragment")
        if total_fragments <= data_fragments:
            raise PolicyError(
                f"{name}: total fragments ({total_fragments}) must exceed "
                f"data fragments ({data_fragments}) or the code adds no "
                "redundancy"
            )
        acc, prop, hold, ret = check_windows(
            name, accumulation_window, propagation_window, hold_window,
            retention_count,
        )
        self.data_fragments = int(data_fragments)
        self.total_fragments = int(total_fragments)
        self.accumulation_window = acc
        self.propagation_window = prop
        self.hold_window = hold
        self.retention_count = ret

    @property
    def stretch_factor(self) -> float:
        """Stored bytes per logical byte: ``n / k``."""
        return self.total_fragments / self.data_fragments

    @property
    def tolerated_fragment_losses(self) -> int:
        """Fragments that may vanish with the data still reconstructible."""
        return self.total_fragments - self.data_fragments

    def cycle(self) -> CycleModel:
        return CycleModel.single(
            accumulation_window=self.accumulation_window,
            hold_window=self.hold_window,
            propagation_window=self.propagation_window,
            retention_count=self.retention_count,
            label="coded archive",
        )

    def validate(self, workload: Workload) -> None:
        if self.stretch_factor > 10:
            raise PolicyError(
                f"{self.name}: stretch factor {self.stretch_factor:.1f} is "
                "implausibly large; check k and n"
            )

    def demands(
        self,
        workload: Workload,
        store: Device,
        source_store: Optional[Device] = None,
        transport: Optional[Device] = None,
        source_facts: Optional[TechniqueFacts] = None,
    ) -> "List[Placement]":
        """Stretch-inflated capacity; coded update traffic on the WAN.

        Each archived RP stores the unique updates of its window times
        the stretch factor, plus one full stretched dataset for the
        base image the deltas apply to.
        """
        delta_bytes = workload.unique_bytes(self.accumulation_window)
        capacity = self.stretch_factor * (
            workload.data_capacity + self.retention_count * delta_bytes
        )
        spread_bandwidth = (
            self.stretch_factor * delta_bytes / self.propagation_window
        )
        placements = [
            self.place(store, bandwidth=spread_bandwidth, capacity=capacity)
        ]
        if source_store is not None:
            # The archive reads each window's unique updates once.
            placements.append(
                self.place(
                    source_store, bandwidth=delta_bytes / self.propagation_window
                )
            )
        if transport is not None:
            placements.append(self.place(transport, bandwidth=spread_bandwidth))
        return placements

    def recovery_size(self, workload: Workload, requested_bytes: float) -> float:
        """Reconstruction reads ``k`` fragments: the logical bytes.

        A systematic code transfers exactly the object (the fragments
        *are* the data plus parity); decode overhead is computational,
        not transfer, so recovery size equals the requested bytes.
        """
        return requested_bytes

    def describe(self) -> str:
        return (
            f"{self.name}: {self.data_fragments}-of-{self.total_fragments} "
            f"coded archive, stretch {self.stretch_factor:.2f}x, "
            f"{self.retention_count} RPs"
        )
