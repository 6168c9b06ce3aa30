"""k-out-of-n redundancy with deterministic repair (Aggarwal).

A storage scope built from ``n`` identical units that stays up while at
least ``k`` of them work — a mirrored pair is 1-out-of-2, an 8-disk
RAID-6 group is 6-out-of-8.  Units fail independently at ``unit_rate``
and a failed unit is back after a *deterministic* repair time ``tau``
(hot-spare rebuild, courier swap): the model of Aggarwal's
*k-out-of-n data storage system with deterministic parallel and serial
repair*, which the ensemble layer uses to turn device-level failure
rates into per-scope effective rates.

The system fails when, after some unit's failure, the remaining
``m = n - k`` tolerated failures all occur before repairs complete.
First-order in ``unit_rate * tau`` (events are rare on the repair
timescale):

* **parallel repair** — every failed unit is repaired concurrently, so
  each subsequent failure must land within the same window ``tau``::

      rate = n * lam * C(n-1, m) * (lam * tau) ** m

* **serial repair** — one repair facility; the j-th concurrent failure
  waits behind j-1 repairs, stretching its exposure window to
  ``j * tau``.  The product over the m windows contributes ``m!``::

      rate = n * lam * C(n-1, m) * m! * (lam * tau) ** m

The mirrored-pair sanity check (n=2, k=1, either flavor) gives the
classic ``2 * lam**2 * tau``.  The approximation needs
``lam * tau << 1``; construction rejects ``lam * tau >= 0.1`` where
the dropped higher-order terms stop being negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import RiskError
from ..scenarios.failures import FailureScenario
from ..units import PerSecond, Seconds
from .ensemble import EnsembleMember

#: Above this value of ``unit_rate * repair_time`` the first-order
#: approximation is no longer trustworthy (error ~ (lam*tau)^(m+1)).
MAX_RATE_REPAIR_PRODUCT = 0.1

_REPAIR_KINDS = ("parallel", "serial")


@dataclass(frozen=True)
class KofNModel:
    """``k``-out-of-``n`` units, unit failure rate, deterministic repair."""

    n: int
    k: int
    unit_rate: PerSecond
    repair_time: Seconds
    repair: str = "parallel"

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("k", self.k)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise RiskError(f"{name} must be an integer, got {value!r}")
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise RiskError(
                f"need 1 <= k <= n, got k={self.k}, n={self.n}"
            )
        if not self.unit_rate > 0:
            raise RiskError(
                f"unit failure rate must be positive, got {self.unit_rate!r}"
            )
        if not self.repair_time >= 0:
            raise RiskError(
                f"repair time must be >= 0, got {self.repair_time!r}"
            )
        if self.repair not in _REPAIR_KINDS:
            raise RiskError(
                f"repair must be one of {_REPAIR_KINDS}, got {self.repair!r}"
            )
        product = self.unit_rate * self.repair_time
        if product >= MAX_RATE_REPAIR_PRODUCT:
            raise RiskError(
                f"unit_rate * repair_time = {product:.3g} is too large "
                f"for the deterministic-repair approximation "
                f"(needs < {MAX_RATE_REPAIR_PRODUCT}); model faster "
                "repair or rarer failures"
            )

    @property
    def tolerated_failures(self) -> int:
        """``m = n - k``: concurrent failures survived after the first."""
        return self.n - self.k

    def effective_failure_rate(self) -> PerSecond:
        """The scope-level failure rate (events/second, first order)."""
        m = self.tolerated_failures
        base = (
            self.n
            * self.unit_rate
            * math.comb(self.n - 1, m)
            * (self.unit_rate * self.repair_time) ** m
        )
        if self.repair == "serial":
            return base * math.factorial(m)
        return base

    def mttf(self) -> Seconds:
        """Mean time to scope failure (the rate's reciprocal)."""
        return 1.0 / self.effective_failure_rate()

    def member(
        self, member_id: str, scenario: FailureScenario
    ) -> EnsembleMember:
        """An ensemble member rated by this redundancy model."""
        return EnsembleMember(
            member_id, scenario, self.effective_failure_rate()
        )
