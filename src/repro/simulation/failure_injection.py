"""Failure-time generators for simulation campaigns.

Three flavors:

* :func:`sweep_times` — an even deterministic sweep across a window,
  for reproducible coverage of every cycle phase;
* :func:`random_times` — seeded uniform random times, for unbiased
  sampling of the loss distribution;
* :func:`adversarial_times` — times just before each RP of a level
  becomes usable, which is when the level is most stale.  Used to show
  the analytic worst case is *tight*, not merely safe.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Optional

from ..exceptions import SimulationError
from .simulator import DependabilitySimulator

if TYPE_CHECKING:
    import numpy as np


def substream_seed(root_seed: int, stream_id: str) -> int:
    """A derived 64-bit seed for one named substream of ``root_seed``.

    The derivation hashes ``(root_seed, stream_id)``, so every labelled
    consumer of one root seed gets a statistically independent stream
    whose identity does not depend on *when* (or in which process) it
    is drawn.  That is the property a parallel Monte Carlo campaign
    needs: each scenario samples from its own substream, so the results
    are byte-identical whether members are sampled serially, in a
    different order, or sharded across ``--workers N``.
    """
    digest = hashlib.sha256(
        f"{root_seed}:{stream_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def substream_rng(root_seed: int, stream_id: str) -> np.random.Generator:
    """A generator over the named substream of ``root_seed``."""
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(substream_seed(root_seed, stream_id))
    )


def sweep_times(start: float, end: float, count: int) -> "List[float]":
    """``count`` evenly spaced failure times across ``[start, end]``."""
    import numpy as np

    if count < 1:
        raise SimulationError("need at least one failure time")
    if end < start:
        raise SimulationError("sweep window is empty")
    if count == 1:
        return [start]
    return list(np.linspace(start, end, count))


def random_times(
    start: float,
    end: float,
    count: int,
    seed: int = 0,
    stream: "Optional[str]" = None,
) -> "List[float]":
    """``count`` seeded uniform random failure times in ``[start, end]``.

    With ``stream`` given, times are drawn from the named substream of
    ``seed`` (see :func:`substream_seed`): two scenarios of one
    campaign pass the same root seed and distinct stream labels, and
    each gets its own independent, order-insensitive sequence.  Without
    it, ``seed`` is used directly (the historical behaviour).
    """
    import numpy as np

    if count < 1:
        raise SimulationError("need at least one failure time")
    if end < start:
        raise SimulationError("window is empty")
    if stream is None:
        rng = np.random.default_rng(seed)
    else:
        rng = substream_rng(seed, stream)
    return sorted(rng.uniform(start, end, size=count).tolist())


def adversarial_times(
    simulator: DependabilitySimulator,
    level_index: int,
    start: float,
    end: float,
    epsilon: float = 1.0,
) -> "List[float]":
    """Failure times ``epsilon`` before each RP of a level turns usable.

    Just before a new RP becomes available, the level's newest usable
    snapshot is as old as it ever gets — these instants realize the
    worst case.
    """
    simulator.build()
    store = simulator.stores.get(level_index)
    if store is None:
        raise SimulationError(f"no simulated store for level {level_index}")
    times = [
        point.available_at - epsilon
        for point in store.points
        if start <= point.available_at - epsilon <= end
    ]
    if not times:
        raise SimulationError(
            f"no availability transitions of level {level_index} in "
            f"[{start}, {end}]"
        )
    return sorted(times)
