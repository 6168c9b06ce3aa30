"""Annualized risk distributions from rated per-event severities.

Each ensemble member is a Poisson event process with a fixed per-event
severity (downtime seconds, loss seconds, penalty dollars).  Over a
horizon the total severity is therefore a *compound Poisson* sum, and
the distributions here fold the whole ensemble into one such sum:

* the number of events of member *i* over horizon ``T`` is
  ``Poisson(rate_i * T)``, so the superposition has intensity
  ``Lambda = T * sum(rate_i)`` and per-event severity drawn from the
  rate-weighted mixture of the members' severities;
* the total-severity distribution follows from the Panjer recursion on
  a discretized severity grid::

      g_0 = exp(-Lambda * (1 - f_0))
      g_j = (Lambda / j) * sum_{i=1..j} i * f_i * g_{j-i}

  where ``f`` is the severity mass function on the grid and ``g`` the
  resulting total mass function — exact for the discretized severities,
  no sampling error;
* members with *infinite* severity (a scenario the design cannot
  survive) contribute an atom at infinity: with combined intensity
  ``Lambda_inf`` the probability that the total stays finite is
  ``exp(-Lambda_inf)``, and quantiles above it are infinite.

The recursion runs only as far as the report reads: it stops at the
first grid index whose CDF reaches the highest finite quantile's
probability (p99 unless that one is infinite), and runs the whole
grid only when the grid's mass never gets there.  Every value it
computes is bit-identical to a full-grid run.

Entries arrive either as ``(rate, severity)`` pairs or, from the
aggregator, as :class:`EntryColumns`: the same entries held as two
parallel columns, which the fold reads without transposing.

For very large ``Lambda`` the recursion's starting term underflows;
there the central limit theorem is already excellent and the quantiles
switch to the matched normal approximation.  Everything is
deterministic — byte-identical across runs, orderings and worker
counts — which is what lets the CLI diff serial/parallel/cached output.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..exceptions import RiskError
from ..units import PerSecond, Seconds
from .ensemble import LazySequence

if TYPE_CHECKING:
    import numpy as np

#: The reported quantiles, as (label, probability) pairs.
PERCENTILES: "Tuple[Tuple[str, float], ...]" = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
)

#: Above this Poisson intensity ``exp(-Lambda)`` underflows and the
#: Panjer recursion degenerates; the matched normal approximation takes
#: over (its relative error is ~``1/sqrt(Lambda)`` — negligible here).
NORMAL_APPROX_INTENSITY = 600.0


@dataclass(frozen=True)
class RiskDistribution:
    """Summary of one annualized total-severity distribution."""

    mean: float
    p50: float
    p90: float
    p95: float
    p99: float

    def quantile(self, label: str) -> float:
        value = getattr(self, label, None)
        if value is None:
            raise RiskError(f"unknown quantile {label!r}")
        return float(value)

    def to_dict(self) -> "Dict[str, float]":
        return {
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
        }


class EntryColumns(LazySequence[Tuple[PerSecond, float]]):
    """``(rate, severity)`` entries held as two parallel columns."""

    __slots__ = ("rates", "severities")

    def __init__(
        self, rates: "Sequence[PerSecond]", severities: "Sequence[float]"
    ) -> None:
        if len(rates) != len(severities):
            raise RiskError("entry columns differ in length")
        self.rates = rates
        self.severities = severities

    def __len__(self) -> int:
        return len(self.rates)

    def _item(self, index: int) -> "Tuple[PerSecond, float]":
        return self.rates[index], self.severities[index]


def compound_poisson_distribution(
    entries: "Sequence[Tuple[PerSecond, float]]",
    horizon: Seconds,
    bins: int = 2048,
) -> RiskDistribution:
    """Fold ``(rate, per-event severity)`` pairs over a horizon.

    ``entries`` may repeat severities (rates add) and may include
    infinite severities (mass at infinity, see module docstring).
    Zero-severity entries affect nothing but are accepted — an event
    the design fully absorbs is still an event.
    """
    if not horizon > 0:
        raise RiskError(f"risk horizon must be positive, got {horizon!r}")
    if bins < 2:
        raise RiskError(f"severity grid needs >= 2 bins, got {bins}")
    if isinstance(entries, EntryColumns):
        rates, severities = entries.rates, entries.severities
    else:
        rates, severities = tuple(zip(*entries)) or ((), ())
    check_entries(rates, severities)

    is_finite = list(map(math.isfinite, severities))
    finite_rates = list(compress(rates, is_finite))
    finite_severities = list(compress(severities, is_finite))
    lam_inf = sum(compress(rates, map(operator.not_, is_finite))) * horizon
    p_finite = math.exp(-lam_inf)

    lam = sum(finite_rates) * horizon
    products = list(map(operator.mul, finite_rates, finite_severities))
    mean_total = horizon * sum(products)
    mean = float("inf") if lam_inf > 0 else mean_total

    values = {}
    targets = {}
    for label, prob in PERCENTILES:
        if prob > p_finite or (prob == p_finite and lam_inf > 0):
            values[label] = float("inf")
        else:
            # Quantile of the full distribution = quantile of the
            # finite part at the conditional probability.
            targets[label] = min(1.0, prob / p_finite)
    quantiles = _finite_quantiles(
        finite_rates, finite_severities, products,
        horizon, lam, mean_total, bins, list(targets.values()),
    )
    values.update(zip(targets, quantiles))
    return RiskDistribution(mean=mean, **values)


def check_entries(
    rates: "Sequence[PerSecond]", *severities: "Sequence[float]"
) -> None:
    """Reject any rate that is not > 0 and any severity not >= 0.

    ``severities`` are columns parallel to ``rates``; +inf passes (an
    event the design cannot survive), NaN and negatives do not.  One
    C-level pass per column; only a failure pays for the per-entry
    loop that names the first bad entry, rate before severities.
    """
    if all(map(operator.gt, rates, repeat(0))) and all(
        all(map(operator.ge, column, repeat(0))) for column in severities
    ):
        return
    for rate, *row in zip(rates, *severities):
        if not rate > 0:
            raise RiskError(f"severity entry has non-positive rate {rate!r}")
        for severity in row:
            if math.isnan(severity) or severity < 0:
                raise RiskError(
                    f"per-event severity {severity!r} is not >= 0"
                )


def empirical_distribution(samples: "np.ndarray") -> RiskDistribution:
    """Summarize Monte Carlo samples with the same quantile convention.

    Quantiles use the inverted-CDF definition (smallest sample with
    empirical CDF >= p) to match the analytic grid search — no
    interpolation, so infinite samples never bleed into finite
    quantiles.
    """
    import numpy as np

    if samples.size == 0:
        raise RiskError("cannot summarize an empty sample set")
    ordered = np.sort(samples)
    n = ordered.shape[0]
    values = {}
    for label, prob in PERCENTILES:
        index = min(n - 1, max(0, math.ceil(prob * n) - 1))
        values[label] = float(ordered[index])
    finite = ordered[np.isfinite(ordered)]
    if finite.size < n:
        mean = float("inf")
    else:
        mean = float(np.mean(ordered)) if n else 0.0
    return RiskDistribution(mean=mean, **values)


def _finite_quantiles(
    rates: "List[PerSecond]",
    severities: "List[float]",
    products: "List[float]",
    horizon: Seconds,
    lam: float,
    mean_total: float,
    bins: int,
    probs: "List[float]",
) -> "List[float]":
    """The finite-severity compound sum's quantiles at ``probs``.

    ``rates`` and ``severities`` are the finite entries as columns and
    ``products`` their rate x severity terms.
    """
    import numpy as np

    if not probs:
        return []
    if lam == 0 or not any(map(operator.gt, severities, repeat(0))):
        return [0.0] * len(probs)

    second_moment = horizon * sum(map(operator.mul, products, severities))
    if lam > NORMAL_APPROX_INTENSITY:
        sigma = math.sqrt(second_moment)
        return [
            max(0.0, mean_total + _probit(prob) * sigma) for prob in probs
        ]

    max_sev = max(severities)
    # Generous upper edge: mean + 10 sigma of the compound sum plus a
    # few single worst events; mass beyond it is far below 1e-6.
    grid_max = mean_total + 10.0 * math.sqrt(second_moment) + 4.0 * max_sev
    step = grid_max / (bins - 1)
    # Nearest grid point (rint rounds half to even, as round() does);
    # bincount adds each bin's weights in entry order, as a loop of
    # ``mass[index] += rate / total_rate`` would.
    indices = np.rint(np.asarray(severities, float) / step)
    severity_mass = np.bincount(
        np.minimum(bins - 1, indices).astype(np.intp),
        weights=np.asarray(rates, float) / sum(rates),
        minlength=bins,
    )

    cdf = _panjer(lam, severity_mass, max(probs))
    return [
        float(min(bisect_left(cdf, prob), bins - 1) * step) for prob in probs
    ]


def _probit(prob: float) -> float:
    """The standard normal quantile (Acklam's approximation).

    Relative error below 1.2e-9 over (0, 1) — far inside the normal
    approximation's own error at the intensities where it is used.
    """
    if not 0 < prob < 1:
        raise RiskError(f"probit needs a probability in (0, 1), got {prob!r}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if prob < p_low:
        q = math.sqrt(-2 * math.log(prob))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if prob > p_high:
        q = math.sqrt(-2 * math.log(1 - prob))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = prob - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def _panjer(
    lam: float, severity_mass: "np.ndarray", target: float
) -> "List[float]":
    """The Panjer recursion's running CDF for a compound Poisson on a grid.

    The recursion stops at the first grid index whose CDF reaches
    ``target`` (the largest probability the caller searches for), so
    the returned prefix may be shorter than the grid; when the grid's
    total mass never reaches ``target`` it runs to the end.  Each step
    keeps the dense dot product and the CDF adds the terms one by one,
    as ``np.cumsum`` would, so every value matches the full-grid fold.
    """
    import numpy as np

    bins = severity_mass.shape[0]
    total = np.zeros(bins)
    total[0] = cumulative = math.exp(-lam * (1.0 - severity_mass[0]))
    weighted = severity_mass * np.arange(bins)
    cdf = [cumulative]
    for j in range(1, bins):
        if cumulative >= target:
            break
        total[j] = mass = (lam / j) * float(
            np.dot(weighted[1 : j + 1], total[j - 1 :: -1])
        )
        cumulative += mass
        cdf.append(cumulative)
    return cdf
