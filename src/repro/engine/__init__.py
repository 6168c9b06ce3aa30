"""repro.engine — parallel, cache-aware evaluation engine.

The framework's evaluations are pure functions of their inputs, which
makes them embarrassingly parallel and perfectly cacheable.  This
package exploits both properties behind one call —
:func:`map_evaluations` — without changing any result:

* :mod:`repro.engine.keys` — content-addressed task keys, versioned by
  a digest of the model's own source code;
* :mod:`repro.engine.cache` — two-tier result cache (in-process LRU +
  persistent JSONL), round-tripping through :mod:`repro.serialization`;
* :mod:`repro.engine.executor` — process-pool execution with per-task
  timeouts, retry with backoff on worker crashes, and a graceful
  inline path when ``workers=1`` (the default);
* :mod:`repro.engine.sweep` — the design-map helpers the optimizer,
  what-if and sensitivity layers are built on.

The executor is also the bridge of the cross-process telemetry fabric:
each dispatched chunk carries a :class:`~repro.obs.context.TraceContext`,
workers return a :class:`~repro.obs.context.TelemetryCapsule` of spans
and metric deltas that the parent merges back (so ``--trace`` /
``--profile`` see worker-side hot paths), and every sweep reports live
progress through the reporter in the telemetry context
(:func:`repro.obs.current`).

Layering: the engine depends on ``repro.core`` / ``repro.serialization``
/ ``repro.obs``, never the reverse — the model stays ignorant of how it
is scheduled.
"""

from .cache import DiskCache, MemoryCache, ResultCache, register_codec
from .executor import (
    EngineConfig,
    EvaluationTask,
    PortfolioTask,
    TaskOutcome,
    map_evaluations,
    shutdown_pool,
    warm_pool,
)
from .keys import fingerprint, model_schema_version, result_digest, task_key
from .sweep import evaluate_design_map, evaluate_scenarios_cached

__all__ = [
    "DiskCache",
    "EngineConfig",
    "EvaluationTask",
    "MemoryCache",
    "PortfolioTask",
    "ResultCache",
    "TaskOutcome",
    "evaluate_design_map",
    "evaluate_scenarios_cached",
    "fingerprint",
    "map_evaluations",
    "model_schema_version",
    "register_codec",
    "result_digest",
    "shutdown_pool",
    "task_key",
    "warm_pool",
]
