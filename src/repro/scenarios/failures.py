"""Failure scopes and scenarios (paper section 3.1.3).

The framework evaluates dependability *under a specified failure
scenario* rather than integrating over failure frequencies: "most
disaster-tolerant systems are designed to meet a hypothesized disaster,
regardless of its frequency."

A :class:`FailureScenario` names a :class:`FailureScope` plus, for
scoped hardware failures, the thing that failed (a device or a place),
the recovery time target (how far back restoration is requested) and,
for object failures, the size of the damaged object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from ..exceptions import DesignError
from ..units import HOUR, parse_duration, parse_size
from .locations import Location


class FailureScope(enum.Enum):
    """The paper's named failure scopes.

    ``DATA_OBJECT`` is loss or corruption of the object itself (user or
    software error) with no hardware failure; the others fail all
    hardware at the named granularity.
    """

    DATA_OBJECT = "object"
    DISK_ARRAY = "array"
    BUILDING = "building"
    SITE = "site"
    REGION = "region"

    @property
    def is_hardware(self) -> bool:
        """True for scopes that destroy hardware (everything but object)."""
        return self is not FailureScope.DATA_OBJECT

    def fails_location(self, failed_at: Location, device_at: Location) -> bool:
        """Whether a device at ``device_at`` is lost when this scope hits
        ``failed_at``.

        ``DISK_ARRAY`` failures are device-specific and handled by the
        caller (they do not fail by place); ``DATA_OBJECT`` fails no
        hardware at all.
        """
        if self is FailureScope.BUILDING:
            return device_at.same_building(failed_at)
        if self is FailureScope.SITE:
            return device_at.same_site(failed_at)
        if self is FailureScope.REGION:
            return device_at.same_region(failed_at)
        return False


@dataclass(frozen=True)
class FailureScenario:
    """A concrete failure to evaluate against.

    Parameters
    ----------
    scope:
        The failure scope (see :class:`FailureScope`).
    failed_device:
        For ``DISK_ARRAY`` scope: the name of the failed device.  The
        conventional value ``"primary-array"`` matches the catalog
        designs.
    failed_location:
        For ``BUILDING``/``SITE``/``REGION`` scopes: the place that was
        destroyed.  Defaults to the location of the primary copy when
        omitted (filled in by the evaluator).
    recovery_target_age:
        How far before the failure the requested restoration point lies
        (``now - recTargetTime``).  Zero — the overwhelmingly common
        case — means "restore to just before the failure".  A user error
        discovered late uses a positive age (the case study rolls an
        object back 24 hours).
    object_size:
        For ``DATA_OBJECT`` scope: the size of the corrupted object
        (bytes or a string like ``"1 MB"``).  Ignored for hardware
        scopes, which recover the entire dataset.
    """

    scope: FailureScope
    failed_device: Optional[str] = None
    failed_location: Optional[Location] = None
    recovery_target_age: float = 0.0
    object_size: Optional[float] = None

    def __init__(
        self,
        scope: FailureScope,
        failed_device: Optional[str] = None,
        failed_location: Optional[Location] = None,
        recovery_target_age: Union[str, float] = 0.0,
        object_size: Union[str, float, None] = None,
    ) -> None:
        if not isinstance(scope, FailureScope):
            raise DesignError(f"scope must be a FailureScope, got {scope!r}")
        age = parse_duration(recovery_target_age)
        if age < 0:
            raise DesignError(f"recovery target age must be >= 0, got {age}")
        if age == 0:
            # -0.0 == 0.0 and hashes alike, but serializes as "-0.0":
            # store +0.0 so equal scenarios share one content address.
            age = 0.0
        size = None if object_size is None else parse_size(object_size)
        if size is not None and size <= 0:
            raise DesignError(f"object size must be positive, got {object_size!r}")
        if scope is FailureScope.DISK_ARRAY and failed_device is None:
            raise DesignError("DISK_ARRAY scope requires failed_device")
        if scope is FailureScope.DATA_OBJECT and size is None:
            raise DesignError("DATA_OBJECT scope requires object_size")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "failed_device", failed_device)
        object.__setattr__(self, "failed_location", failed_location)
        object.__setattr__(self, "recovery_target_age", age)
        object.__setattr__(self, "object_size", size)

    # -- constructors for the common cases -------------------------------------

    @classmethod
    def object_corruption(
        cls,
        object_size: Union[str, float],
        recovery_target_age: Union[str, float] = 0.0,
    ) -> "FailureScenario":
        """User/software error corrupting an object (no hardware failure)."""
        return cls(
            scope=FailureScope.DATA_OBJECT,
            object_size=object_size,
            recovery_target_age=recovery_target_age,
        )

    @classmethod
    def array_failure(cls, device_name: str = "primary-array") -> "FailureScenario":
        """Failure of a named disk array; recover everything to 'now'."""
        return cls(scope=FailureScope.DISK_ARRAY, failed_device=device_name)

    @classmethod
    def building_disaster(cls, location: Optional[Location] = None) -> "FailureScenario":
        """Loss of every device in a building."""
        return cls(scope=FailureScope.BUILDING, failed_location=location)

    @classmethod
    def site_disaster(cls, location: Optional[Location] = None) -> "FailureScenario":
        """Loss of every device on a site."""
        return cls(scope=FailureScope.SITE, failed_location=location)

    @classmethod
    def region_disaster(cls, location: Optional[Location] = None) -> "FailureScenario":
        """Loss of every device in a geographic region."""
        return cls(scope=FailureScope.REGION, failed_location=location)

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        parts = [self.scope.value]
        if self.failed_device:
            parts.append(f"of {self.failed_device}")
        if self.failed_location:
            parts.append(f"at {self.failed_location.label()}")
        if self.recovery_target_age:
            parts.append(
                f"target {self.recovery_target_age / HOUR:.0f}h before failure"
            )
        return " ".join(parts)
