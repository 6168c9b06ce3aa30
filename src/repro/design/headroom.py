"""Workload headroom: how much growth a design can absorb.

A design that is feasible today may over-commit as the workload grows.
:func:`max_supported_scale` binary-searches the largest uniform workload
scale factor (rates and batch curve together; the dataset size is
scaled separately via :func:`max_supported_capacity`) at which every
device stays within its bandwidth envelope, and
:func:`max_supported_capacity` does the same for dataset growth against
capacity envelopes.  Both answer the capacity-planning questions the
normal-mode utilization model (§3.3.1) makes precise.
"""

from __future__ import annotations

from typing import Callable

from ..core.demands import register_design_demands
from ..core.hierarchy import StorageDesign
from ..core.utilization import compute_utilization
from ..exceptions import DesignError
from ..techniques.facts import FactsTable
from ..workload.spec import Workload


def _feasible_at(
    design: StorageDesign,
    workload: Workload,
    bandwidth_only: bool,
) -> bool:
    demands = register_design_demands(design, workload, FactsTable())
    utilization = compute_utilization(design, demands, strict=False)
    if bandwidth_only:
        return utilization.max_bandwidth_utilization <= 1.0
    return utilization.feasible


def _binary_search_scale(
    predicate: Callable[[float], bool],
    upper_start: float = 2.0,
    tolerance: float = 1e-3,
    max_upper: float = 1e9,
) -> float:
    """Largest x with predicate(x) true, assuming monotone predicate."""
    if not predicate(1.0):
        raise DesignError("design is infeasible at the current workload")
    lo, hi = 1.0, upper_start
    while predicate(hi):
        lo = hi
        hi *= 2.0
        if hi > max_upper:
            return float("inf")
    while (hi - lo) / lo > tolerance:
        mid = (lo + hi) / 2.0
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_supported_scale(
    design: StorageDesign,
    workload: Workload,
    tolerance: float = 1e-3,
) -> float:
    """Largest uniform rate-scale factor the design's bandwidth absorbs.

    Scaling multiplies the access/update rates and the batch curve;
    the dataset size is held fixed (see
    :func:`max_supported_capacity` for growth in bytes).  Returns
    ``inf`` when no device's bandwidth ever binds.
    """
    return _binary_search_scale(
        lambda x: _feasible_at(design, workload.scaled(x), bandwidth_only=True),
        tolerance=tolerance,
    )


def max_supported_capacity(
    design: StorageDesign,
    workload: Workload,
    tolerance: float = 1e-3,
) -> float:
    """Largest dataset-growth factor the design's capacity absorbs.

    Growth multiplies the dataset size; rates are held fixed.  Note
    that growing the dataset also grows full-backup bandwidth needs, so
    the check covers both envelopes.  Returns the growth factor (1.0 =
    no headroom).
    """
    def predicate(x: float) -> bool:
        grown = workload.with_capacity(workload.data_capacity * x)
        return _feasible_at(design, grown, bandwidth_only=False)

    return _binary_search_scale(predicate, tolerance=tolerance)
