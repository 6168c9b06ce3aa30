"""Exception hierarchy for the dependability modeling framework.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch framework errors without
accidentally swallowing programming mistakes (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class UnitError(ReproError, ValueError):
    """A quantity string or value could not be parsed or is out of range."""


class WorkloadError(ReproError, ValueError):
    """A workload description is inconsistent or incomplete.

    Examples: a negative update rate, an access rate smaller than the
    update rate, or a batch-update curve with no sample points.
    """


class DeviceError(ReproError, ValueError):
    """A device specification or demand is invalid."""


class CapacityExceededError(DeviceError):
    """The capacity demands placed on a device exceed its maximum.

    Raised by the global utilization check (paper section 3.3.1: the
    framework "generates an error if capUtil > 1").
    """

    def __init__(self, device_name: str, utilization: float):
        self.device_name = device_name
        self.utilization = utilization
        super().__init__(
            f"capacity utilization of device {device_name!r} is "
            f"{utilization:.1%}, which exceeds 100%"
        )

    def __reduce__(self):
        # ``args`` holds the formatted message, not the constructor
        # arguments, so the default reduction cannot rebuild this class
        # (engine workers ship these across process boundaries).
        return (type(self), (self.device_name, self.utilization))


class BandwidthExceededError(DeviceError):
    """The bandwidth demands placed on a device exceed its maximum.

    Raised by the global utilization check (paper section 3.3.1: the
    framework "generates an error if bwUtil > 1").
    """

    def __init__(self, device_name: str, utilization: float):
        self.device_name = device_name
        self.utilization = utilization
        super().__init__(
            f"bandwidth utilization of device {device_name!r} is "
            f"{utilization:.1%}, which exceeds 100%"
        )

    def __reduce__(self):
        return (type(self), (self.device_name, self.utilization))


class PolicyError(ReproError, ValueError):
    """A data protection technique's policy parameters are invalid.

    This covers both locally invalid values (e.g. a zero accumulation
    window) and violations of the inter-level conventions of paper
    section 3.2.1 (e.g. ``propW > accW``).
    """


class NoCycleError(PolicyError, NotImplementedError):
    """A continuous technique was asked for its (nonexistent) RP cycle.

    Primary copies and synchronous/asynchronous mirrors propagate
    updates continuously — there is no cycle period or retention count
    to report.  Deriving from both :class:`PolicyError` (callers treat
    the request as a policy misuse) and :class:`NotImplementedError`
    (static checks recognise "no cycle model here" and skip, while any
    *other* exception out of ``cycle()`` surfaces as the bug it is).
    """


class DesignError(ReproError, ValueError):
    """A storage system design is structurally invalid.

    Examples: a hierarchy whose level 0 is not a primary copy, a recovery
    path that does not start at a retained level, or a level bound to a
    device that was never declared.
    """


class RecoveryError(ReproError, RuntimeError):
    """A recovery plan cannot be constructed for the imposed failure.

    Raised when no surviving level retains a retrieval point usable for
    the requested recovery target, i.e. the data is irrecoverably lost.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class RiskError(ReproError, ValueError):
    """A probabilistic risk model is inconsistent or unusable.

    Examples: an ensemble member with a non-positive occurrence rate, a
    duplicate member id, a k-out-of-n model outside the validity range
    of its deterministic-repair approximation, or an ensemble member
    whose scenario the design cannot survive (infinite severity makes
    every annualized distribution degenerate).
    """


class OptimizationError(ReproError, RuntimeError):
    """The design optimizer could not produce a feasible design."""


class EngineError(ReproError, RuntimeError):
    """The evaluation engine failed outside any single task.

    Task-level failures (a candidate that cannot be evaluated) are
    reported per task; this error covers engine-level problems such as
    an unusable cache directory.
    """


class CacheKeyError(EngineError):
    """A task's inputs cannot be reduced to a canonical cache key.

    Raised by :func:`repro.engine.keys.fingerprint` when the object
    graph contains something with no deterministic serialization (an
    open file, a lambda, an unknown extension type).  The engine treats
    such tasks as uncacheable rather than failing the sweep.
    """
