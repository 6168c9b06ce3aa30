"""Discrete-event simulation of retrieval-point lifecycles.

The paper's analytic models give *worst-case* recovery time and recent
data loss.  Its future-work list includes validating those models
against measured behaviour and evaluating *degraded mode* operation
(running with a data protection technique out of service).  This
package provides both:

* :mod:`repro.simulation.engine` — a minimal discrete-event engine
  (heap-scheduled events, typed handlers);
* :mod:`repro.simulation.rp_store` — per-level retrieval-point
  bookkeeping: creation, availability, base-full dependencies, expiry;
* :mod:`repro.simulation.simulator` — drives a
  :class:`~repro.core.hierarchy.StorageDesign` through simulated time,
  injecting failures and measuring the *actual* data loss each failure
  would cause;
* :mod:`repro.simulation.failure_injection` — deterministic sweeps and
  seeded random failure-time generators;
* :mod:`repro.simulation.metrics` — loss-sample statistics (max, mean,
  percentiles) for comparison against the analytic bounds.

The key validation property: over any set of injected failure times,
the measured loss never exceeds the analytic worst case, and the
analytic worst case is *tight* (approached by adversarial failure
times).
"""

from ..lazy import lazy_getattr
from .engine import Event, SimulationEngine
from .rp_store import RPStore, RetrievalPoint
from .simulator import DependabilitySimulator, SimulatedLoss
from .recovery_sim import RecoverySimulator, SimulatedRecovery, TransferSpec
from .exposure import ExposurePoint, ExposureProfile, exposure_profile

#: Names of the numpy-backed modules, imported on first use (PEP 562)
#: so the package import loads no numpy.
_LAZY = {
    **dict.fromkeys(
        (
            "adversarial_times", "random_times", "substream_rng",
            "substream_seed", "sweep_times",
        ),
        "failure_injection",
    ),
    **dict.fromkeys(("LossStatistics", "summarize_losses"), "metrics"),
}

__getattr__ = lazy_getattr(__name__, _LAZY)


__all__ = [
    "Event",
    "SimulationEngine",
    "RPStore",
    "RetrievalPoint",
    "DependabilitySimulator",
    "SimulatedLoss",
    "sweep_times",
    "random_times",
    "substream_rng",
    "substream_seed",
    "adversarial_times",
    "LossStatistics",
    "summarize_losses",
    "RecoverySimulator",
    "SimulatedRecovery",
    "TransferSpec",
    "ExposurePoint",
    "ExposureProfile",
    "exposure_profile",
]
