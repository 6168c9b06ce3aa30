#!/usr/bin/env python3
"""Micro-benchmark of the evaluation hot paths, with an overhead gate.

Times ``evaluate``, ``evaluate_scenarios`` and ``optimize`` on the
DSN'04 cello case study in three configurations:

* **disabled** — the default no-op tracer/metrics (what production pays);
* **enabled** — a real :class:`~repro.obs.Tracer` and
  :class:`~repro.obs.MetricsRegistry` installed;
* an **estimated uninstrumented baseline**: the disabled time minus the
  measured per-call cost of a no-op span/metric emission times the
  number of emissions one call makes.  Direct A/B timing of "code with
  the call sites deleted" is impossible without patching sources, and
  the per-emission cost (~100 ns) times the emission count is a tight,
  noise-free bound on what the call sites add.

A fourth section benches the **parallel telemetry fabric**: the same
optimizer sweep on a worker pool with full telemetry live — worker
span/metric capture, capsule transport and merge, throttled progress
with run-ledger heartbeats.  Its gate is also an estimate built from
tightly-measured components (per-emission recording cost, capsule
pickle/unpickle, metric-state merge), because a direct on/off A/B of
a ~10 ms pooled sweep on a 1–2 core CI box is dominated by scheduler
jitter (the raw on/off medians and the per-run artifact-finalization
cost are still recorded, informationally).  Worker-side recording is
attributed ``/workers``: each worker records only its share of the
sweep, so that is what lands on the pooled critical path.

Writes ``BENCH_evaluate.json`` at the repo root and exits non-zero if
the estimated disabled-instrumentation overhead reaches 5% on any
benched operation, or the estimated live-fabric overhead of the
parallel telemetry sweep reaches 5%.

Run:  python benchmarks/bench_evaluate.py
"""

import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import casestudy, obs  # noqa: E402
from repro.core.evaluate import evaluate, evaluate_scenarios  # noqa: E402
from repro.design import DesignSpace, candidate_designs, optimize  # noqa: E402
from repro.obs.export import span_records  # noqa: E402
from repro.workload.presets import cello  # noqa: E402

REPEATS = 30
OVERHEAD_THRESHOLD = 0.05


def _median_ms(fn, repeats=REPEATS) -> float:
    """Median wall-clock milliseconds of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _noop_emission_cost_ms() -> float:
    """Per-call milliseconds of one disabled span + one disabled counter."""
    tracer = obs.get_tracer()
    metrics = obs.get_metrics()
    assert not tracer.enabled and not metrics.enabled, "obs must be disabled"
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("bench.noop"):
            metrics.inc("bench.noop")
    return (time.perf_counter() - t0) * 1e3 / n


def _emission_count(fn) -> int:
    """How many spans + metric emissions one ``fn()`` call makes."""
    tracer = obs.set_tracer(obs.Tracer())
    registry = obs.set_metrics(obs.MetricsRegistry())
    try:
        fn()
        spans = len(span_records(tracer))
        snapshot = registry.snapshot()
        metric_ops = int(sum(snapshot["counters"].values()))
        metric_ops += len(snapshot["gauges"])
        metric_ops += sum(h["count"] for h in snapshot["histograms"].values())
        return spans + metric_ops
    finally:
        obs.reset()


def bench_operations():
    """The benched operations: fresh inputs per call."""
    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = casestudy.case_study_scenarios()
    array_failure = casestudy.array_failure_scenario()

    def bench_evaluate():
        evaluate(casestudy.baseline_design(), workload, array_failure, requirements)

    def bench_evaluate_scenarios():
        evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )

    def bench_optimize():
        optimize(
            candidate_designs(DesignSpace()),
            workload,
            [array_failure, casestudy.site_failure_scenario()],
            requirements,
        )

    return {
        "evaluate": bench_evaluate,
        "evaluate_scenarios": bench_evaluate_scenarios,
        "optimize": bench_optimize,
    }


def _enabled_emission_costs_us():
    """Best-of-5 per-emission microseconds on *live* instruments:
    one recorded span, one counter increment, one histogram sample."""

    def best(fn, n):
        floor = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            fn(n)
            floor = min(floor, (time.perf_counter() - t0) / n * 1e6)
        return floor

    tracer = obs.Tracer()

    def spans(n):
        span = tracer.span
        for _ in range(n):
            with span("bench.noop"):
                pass
        tracer.clear()

    registry = obs.MetricsRegistry()

    def incs(n):
        inc = registry.inc
        for _ in range(n):
            inc("bench.noop")

    def observes(n):
        observe = registry.observe
        for _ in range(n):
            observe("bench.noop.hist", 0.5)

    return best(spans, 20_000), best(incs, 50_000), best(observes, 50_000)


def _best_ms(fn, repeats=20) -> float:
    """Best-of-N wall-clock milliseconds of ``fn()``."""
    floor = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        floor = min(floor, (time.perf_counter() - t0) * 1e3)
    return floor


def parallel_telemetry_section():
    """Bench the pooled optimizer sweep under the full telemetry fabric.

    Returns the ``optimize_parallel_telemetry`` result dict, including
    the estimated live-fabric overhead that the gate checks.
    """
    import io
    import os
    import pickle
    import shutil
    import tempfile

    from repro.engine import EngineConfig, warm_pool
    from repro.obs.context import TelemetryCapsule, merge_capsule
    from repro.obs.spans import pack_span

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = casestudy.case_study_scenarios()
    candidates = candidate_designs(DesignSpace())
    # At least two workers even on a single-core box: the point is to
    # exercise the cross-process capsule path, which workers=1 (the
    # serial inline path) would bypass entirely.
    workers = max(2, min(4, os.cpu_count() or 1))
    config = EngineConfig(workers=workers)
    warm_pool(workers)

    def sweep(cfg=config):
        optimize(candidates, workload, scenarios, requirements, config=cfg)

    sweep()  # warm caches/imports outside the timed region
    off_ms = _median_ms(sweep)

    # One instrumented serial pass: emission counts for the estimate,
    # and the real span/metric payload for the transport measurement.
    tracer = obs.set_tracer(obs.Tracer())
    registry = obs.set_metrics(obs.MetricsRegistry())
    try:
        sweep(EngineConfig(workers=1))
        span_count = len(span_records(tracer))
        snapshot = registry.snapshot()
        counter_ops = int(sum(snapshot["counters"].values()))
        gauge_ops = len(snapshot["gauges"])
        observe_ops = sum(h["count"] for h in snapshot["histograms"].values())
        capsule = TelemetryCapsule(
            pid=0,
            run_id="bench",
            packed_spans=tuple(pack_span(root) for root in tracer.roots),
            metrics=registry.state(),
            span_count=span_count,
        )
    finally:
        obs.reset()

    # Parent-side transport: capsule pickle round-trip plus the merge
    # into live instruments (span adoption is deferred to export, so
    # the merge is the metric-state fold plus bookkeeping).
    blob = pickle.dumps(capsule)

    def transport():
        merge_capsule(pickle.loads(blob), tracer=obs.Tracer(), metrics=obs.MetricsRegistry())

    transport_ms = _best_ms(lambda: (pickle.dumps(capsule), transport()))

    span_us, counter_us, observe_us = _enabled_emission_costs_us()
    recording_ms = (
        span_count * span_us
        + (counter_ops + gauge_ops) * counter_us
        + observe_ops * observe_us
    ) / 1e3
    estimated = (recording_ms / workers + transport_ms) / off_ms

    # The measured on/off medians and the per-run artifact flush, for
    # the record (noisy on few-core boxes; not gated).
    run_dir = tempfile.mkdtemp(prefix="bench-telemetry-")
    ledger = obs.RunLedger(run_dir, argv=["bench_evaluate"])
    ledger.begin(extra={"benchmark": "optimize_parallel_telemetry"})
    final_instruments = {}

    def sweep_full_telemetry():
        final_instruments["tracer"] = obs.set_tracer(obs.Tracer())
        final_instruments["metrics"] = obs.set_metrics(obs.MetricsRegistry())
        obs.set_progress(obs.ProgressReporter(stream=io.StringIO(), ledger=ledger))
        try:
            sweep()
        finally:
            obs.reset()

    sweep_full_telemetry()  # warm
    on_ms = _median_ms(sweep_full_telemetry)
    t0 = time.perf_counter()
    ledger.finish(final_instruments["tracer"], final_instruments["metrics"])
    finalize_ms = (time.perf_counter() - t0) * 1e3
    shutil.rmtree(run_dir, ignore_errors=True)

    return {
        "workers": workers,
        "telemetry_off_ms": round(off_ms, 4),
        "telemetry_on_ms": round(on_ms, 4),
        "finalize_ms": round(finalize_ms, 4),
        "emissions": {
            "spans": span_count,
            "counter_ops": counter_ops + gauge_ops,
            "observe_ops": observe_ops,
        },
        "unit_costs_us": {
            "span": round(span_us, 4),
            "counter": round(counter_us, 4),
            "observe": round(observe_us, 4),
        },
        "worker_recording_ms": round(recording_ms, 4),
        "capsule_transport_ms": round(transport_ms, 4),
        "estimated_fabric_overhead": round(estimated, 6),
    }


def main() -> int:
    obs.reset()
    operations = bench_operations()
    noop_cost_ms = _noop_emission_cost_ms()

    results = {}
    worst_overhead = 0.0
    for name, fn in operations.items():
        disabled_ms = _median_ms(fn)
        with_obs = _emission_count(fn)
        tracer = obs.set_tracer(obs.Tracer())
        registry = obs.set_metrics(obs.MetricsRegistry())
        try:
            enabled_ms = _median_ms(fn)
        finally:
            obs.reset()
        overhead = (with_obs * noop_cost_ms) / disabled_ms
        worst_overhead = max(worst_overhead, overhead)
        results[name] = {
            "disabled_ms": round(disabled_ms, 4),
            "enabled_ms": round(enabled_ms, 4),
            "emissions_per_call": with_obs,
            "estimated_disabled_overhead": round(overhead, 6),
        }
        print(
            f"{name:>20}: disabled {disabled_ms:8.3f} ms | enabled "
            f"{enabled_ms:8.3f} ms | {with_obs:5d} emissions | "
            f"est. disabled overhead {overhead * 100:.3f}%"
        )

    telemetry = parallel_telemetry_section()
    fabric_overhead = telemetry["estimated_fabric_overhead"]
    print(
        f"{'optimize_parallel_telemetry':>27}: off {telemetry['telemetry_off_ms']:8.3f} ms"
        f" | on {telemetry['telemetry_on_ms']:8.3f} ms"
        f" | finalize {telemetry['finalize_ms']:6.3f} ms"
        f" | est. fabric overhead {fabric_overhead * 100:.3f}%"
    )

    payload = {
        "benchmark": "bench_evaluate",
        "workload": "cello",
        "repeats": REPEATS,
        "python": sys.version.split()[0],
        "noop_emission_cost_us": round(noop_cost_ms * 1e3, 4),
        "results": results,
        "overhead_gate": {
            "threshold": OVERHEAD_THRESHOLD,
            "worst_estimated_overhead": round(worst_overhead, 6),
            "pass": worst_overhead < OVERHEAD_THRESHOLD,
        },
        "optimize_parallel_telemetry": telemetry,
        "telemetry_overhead_gate": {
            "threshold": OVERHEAD_THRESHOLD,
            "estimated_fabric_overhead": fabric_overhead,
            "pass": fabric_overhead < OVERHEAD_THRESHOLD,
        },
    }
    out_path = REPO_ROOT / "BENCH_evaluate.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    failed = False
    if worst_overhead >= OVERHEAD_THRESHOLD:
        print(
            f"FAIL: estimated disabled-instrumentation overhead "
            f"{worst_overhead * 100:.2f}% >= {OVERHEAD_THRESHOLD * 100:.0f}%",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: estimated disabled-instrumentation overhead "
            f"{worst_overhead * 100:.3f}% < {OVERHEAD_THRESHOLD * 100:.0f}%"
        )
    if fabric_overhead >= OVERHEAD_THRESHOLD:
        print(
            f"FAIL: estimated live-fabric overhead "
            f"{fabric_overhead * 100:.2f}% >= {OVERHEAD_THRESHOLD * 100:.0f}%",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"OK: estimated live-fabric overhead "
            f"{fabric_overhead * 100:.3f}% < {OVERHEAD_THRESHOLD * 100:.0f}%"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
