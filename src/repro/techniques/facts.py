"""Per-technique timeline facts, computed once per distinct technique.

A design space repeats a handful of techniques across many candidates:
an ``optimize`` over a thousand designs holds a few dozen distinct
split mirrors, backups and vaults.  A technique's timeline facts — its
cycle period and retention count, worst lag, worst RP spacing,
retention span and window, full-availability delay and full-RP hold — depend only
on its own parameters, so a :class:`FactsTable` computes them once per
distinct technique *value* and every design holding an equal technique
reads the same :class:`TechniqueFacts`.

The table is keyed by the technique's class plus its instance state
(``vars()``): techniques assign their attributes only in their
constructors, so two techniques with equal keys have equal timelines.
A table holds no global state; its owner (an engine call, a worker
chunk, one evaluation) creates it, passes it down and drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from ..exceptions import NoCycleError


@dataclass(frozen=True)
class TechniqueFacts:
    """One technique's timeline facts, all from a single ``cycle()``.

    ``period``, ``retention_count`` and ``full_hold`` are None for
    continuous techniques (primary copy, sync/async mirrors), which
    have no RP cycle; their other facts come from the technique's own
    overrides of :meth:`~repro.techniques.base.ProtectionTechnique.worst_lag`
    and friends.  ``retention_window`` is ``retW``, how long one RP is
    retained: the retention count times the period for a cycle.
    """

    period: Optional[float]
    retention_count: Optional[int]
    worst_lag: float
    worst_spacing: float
    retention_span: float
    retention_window: float
    full_availability_delay: float
    full_hold: Optional[float]

    @classmethod
    def of(cls, technique: Any) -> "TechniqueFacts":
        """Compute a technique's facts from scratch.

        Only :class:`~repro.exceptions.NoCycleError` means "no cycle";
        any other exception out of ``cycle()`` is a bug in the
        technique and propagates.
        """
        try:
            cycle = technique.cycle()
        except NoCycleError:
            return cls(
                period=None,
                retention_count=None,
                worst_lag=technique.worst_lag(),
                worst_spacing=technique.worst_spacing(),
                retention_span=technique.retention_span(),
                retention_window=technique.retention_window(),
                full_availability_delay=technique.full_availability_delay(),
                full_hold=None,
            )
        return cls(
            period=cycle.period,
            retention_count=cycle.retention_count,
            worst_lag=cycle.worst_lag(),
            worst_spacing=cycle.worst_spacing(),
            retention_span=cycle.retention_span(),
            retention_window=cycle.retention_count * cycle.period,
            full_availability_delay=cycle.full_availability_delay(),
            full_hold=max(event.hold for event in cycle.events if event.is_full),
        )


def technique_key(technique: Any) -> "Tuple[Hashable, ...]":
    """The value a :class:`FactsTable` files a technique's facts under."""
    return (type(technique), tuple(vars(technique).items()))


class FactsTable(Dict[Tuple[Hashable, ...], TechniqueFacts]):
    """:class:`TechniqueFacts` per distinct technique value.

    An entry is stored only once its facts are fully computed, so a
    ``cycle()`` that raises raises again for every design using that
    technique, and an interrupted computation leaves no entry.  A
    technique whose state does not hash is computed afresh each time.
    """

    def of(self, technique: Any) -> TechniqueFacts:
        """The technique's facts, computed on its value's first lookup."""
        key = technique_key(technique)
        try:
            return self[key]
        except KeyError:
            pass
        except TypeError:
            return TechniqueFacts.of(technique)
        facts = self[key] = TechniqueFacts.of(technique)
        return facts
