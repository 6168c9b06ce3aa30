"""repro — a framework for evaluating storage system dependability.

A complete Python implementation of Keeton & Merchant, *A Framework for
Evaluating Storage System Dependability* (DSN 2004): analytic models of
data protection techniques (PiT copies, inter-array mirroring, backup,
vaulting), hardware device models, and the compositional framework that
turns a storage system design plus a workload, failure scenario and
business requirements into the paper's four output metrics — normal
mode utilization, worst-case recovery time, worst-case recent data loss
and overall cost.

Quick start::

    import repro

    workload = repro.workload.cello()
    design = repro.casestudy.baseline_design()
    result = repro.evaluate(
        design,
        workload,
        repro.FailureScenario.array_failure("primary-array"),
        repro.BusinessRequirements.per_hour(50_000, 50_000),
    )
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from typing import List

from .lazy import lazy_getattr

#: Every re-exported name and the sub-module it lives in; a sub-module
#: kept importable as a namespace (``repro.workload.cello()``) maps to
#: itself.  Nothing here is imported until first use (PEP 562), so
#: ``import repro.units`` loads the units module, not the whole model,
#: and no process pays for a layer it never touches.
_EXPORTS = {
    **{name: name for name in ("casestudy", "obs", "units", "workload")},
    **dict.fromkeys(
        (
            "Assessment", "Level", "StorageDesign", "evaluate",
            "evaluate_scenarios", "plan_recovery", "validate_design",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "CostModel", "DiskArray", "NetworkLink", "Shipment", "SpareConfig",
            "SpareType", "TapeLibrary", "Vault",
        ),
        "devices",
    ),
    **dict.fromkeys(
        (
            "BandwidthExceededError", "CapacityExceededError", "DesignError",
            "DeviceError", "PolicyError", "RecoveryError", "ReproError",
            "UnitError", "WorkloadError",
        ),
        "exceptions",
    ),
    **dict.fromkeys(
        ("BusinessRequirements", "FailureScenario", "FailureScope", "Location"),
        "scenarios",
    ),
    **dict.fromkeys(
        (
            "AsyncMirror", "Backup", "BatchedAsyncMirror", "ErasureCodedArchive",
            "IncrementalKind", "IncrementalPolicy", "PrimaryCopy", "RemoteVaulting",
            "SplitMirror", "SyncMirror", "VirtualSnapshot",
        ),
        "techniques",
    ),
    **dict.fromkeys(("Portfolio", "PortfolioAssessment", "ProtectedObject"), "portfolio"),
    **dict.fromkeys(("BatchUpdateCurve", "Workload"), "workload"),
}

__getattr__ = lazy_getattr(__name__, _EXPORTS)


def __dir__() -> "List[str]":
    return sorted(set(globals()) | set(__all__))


__version__ = "1.0.0"

__all__ = list(_EXPORTS)
