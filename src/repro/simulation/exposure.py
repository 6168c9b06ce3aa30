"""Degraded-mode exposure profiles.

When a data protection technique is out of service (a failed tape
library, a paused mirror), the data-loss exposure of a failure striking
*during or after* the outage grows.  :func:`exposure_profile` sweeps
probe failure times across and beyond an outage window on two
simulators — one healthy, one with the level disabled — and reports the
exposure pair at each probe, quantifying both the peak extra exposure
and how long after service restoration the exposure takes to recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..exceptions import SimulationError
from ..scenarios.failures import FailureScenario
from .simulator import DependabilitySimulator


@dataclass(frozen=True)
class ExposurePoint:
    """Healthy vs degraded loss exposure at one probe instant."""

    probe_time: float
    healthy_loss: float
    degraded_loss: float

    @property
    def extra_exposure(self) -> float:
        """How much more would be lost because of the outage."""
        if self.degraded_loss == float("inf"):
            return float("inf")
        return max(0.0, self.degraded_loss - self.healthy_loss)


@dataclass(frozen=True)
class ExposureProfile:
    """The exposure sweep across an outage window."""

    level_index: int
    outage_start: float
    outage_end: float
    points: Tuple[ExposurePoint, ...]

    @property
    def peak_extra_exposure(self) -> float:
        """The largest outage-attributable exposure over the sweep."""
        return max(point.extra_exposure for point in self.points)

    def recovery_probe(self) -> float:
        """First probe after the outage with no extra exposure left.

        ``inf`` when the sweep never observes full recovery (extend the
        probe range).
        """
        for point in self.points:
            if point.probe_time >= self.outage_end and point.extra_exposure <= 0:
                return point.probe_time
        return float("inf")


def exposure_profile(
    design_factory,
    scenario: FailureScenario,
    level_index: int,
    outage_start: float,
    outage_duration: float,
    horizon: float,
    probes: int = 24,
    probe_overhang: float = None,
) -> ExposureProfile:
    """Sweep failure probes across (and past) a level outage.

    ``design_factory`` builds the design each simulator runs.  Probes
    run from the outage start to ``outage_end + probe_overhang``
    (default: one outage duration past the end).
    """
    if probes < 2:
        raise SimulationError("need at least two probes")
    if outage_duration <= 0:
        raise SimulationError("outage duration must be positive")
    outage_end = outage_start + outage_duration
    overhang = outage_duration if probe_overhang is None else probe_overhang

    healthy = DependabilitySimulator(design_factory(), horizon=horizon)
    healthy.build()

    degraded = DependabilitySimulator(design_factory(), horizon=horizon)
    degraded.disable_level(level_index, outage_start, outage_end)
    degraded.build()

    span = outage_end + overhang - outage_start
    points: "List[ExposurePoint]" = []
    for i in range(probes):
        probe = outage_start + span * i / (probes - 1)
        if probe > horizon:
            break
        points.append(
            ExposurePoint(
                probe_time=probe,
                healthy_loss=healthy.measure_loss(scenario, probe).data_loss,
                degraded_loss=degraded.measure_loss(scenario, probe).data_loss,
            )
        )
    return ExposureProfile(
        level_index=level_index,
        outage_start=outage_start,
        outage_end=outage_end,
        points=tuple(points),
    )
