"""Workload descriptions and characterization.

A :class:`~repro.workload.spec.Workload` captures the five parameters the
paper's Table 1 defines for the foreground workload: data capacity,
average access rate, average (non-unique) update rate, burstiness, and
the batch update rate curve (unique update rate within a window).

The sub-modules provide:

* :mod:`repro.workload.batch_curve` — the window -> unique-update-rate
  curve with interpolation between measured sample points;
* :mod:`repro.workload.spec` — the workload dataclass itself;
* :mod:`repro.workload.traces` — a lightweight I/O trace representation;
* :mod:`repro.workload.synthetic` — synthetic bursty trace generation
  (the substitute for the proprietary *cello* trace, see DESIGN.md);
* :mod:`repro.workload.characterize` — derive a :class:`Workload` from a
  trace by measuring rates, burstiness and unique update bytes;
* :mod:`repro.workload.presets` — ready-made workloads, including
  :func:`~repro.workload.presets.cello` (the paper's Table 2).

Only the first and last two load with the package: the trace modules
use numpy and are imported on first use of one of their names.
"""

from ..lazy import lazy_getattr
from .batch_curve import BatchUpdateCurve
from .spec import Workload
from .presets import cello, oltp_database, web_server

#: The numpy-backed trace tooling, imported on first use (PEP 562) so a
#: process that only evaluates designs never loads numpy.
_LAZY = {
    "Trace": "traces",
    "TraceRecord": "traces",
    "SyntheticWorkloadConfig": "synthetic",
    "generate_trace": "synthetic",
    "characterize_trace": "characterize",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "BatchUpdateCurve",
    "Workload",
    "Trace",
    "TraceRecord",
    "SyntheticWorkloadConfig",
    "generate_trace",
    "characterize_trace",
    "cello",
    "oltp_database",
    "web_server",
]
