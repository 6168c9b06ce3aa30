#!/usr/bin/env python3
"""Instrumented evaluation: tracing, metrics, and provenance.

Evaluates the baseline design with a real tracer and metrics registry
installed (both are no-ops by default), then prints:

* the per-phase span tree — where the evaluation spent its time,
* the aggregated span profile — call counts, cumulative/self time,
  and the merged hot call paths,
* the metrics table — counters, gauges, and latency histograms with
  p50/p90/p99 estimates,
* the provenance record — *why* each of the four output metrics
  (utilization, recovery time, data loss, cost) came out as it did,

and finally exports everything as JSONL (the CLI's ``--trace-out``
format) and as an OpenMetrics exposition (``--metrics-out``).

The equivalent from the command line:

    python -m repro case-study --trace --profile --metrics --trace-out trace.jsonl

Run:  python examples/traced_evaluation.py
"""

import io

from repro import casestudy, evaluate_scenarios, obs
from repro.obs.export import openmetrics_text, write_trace_jsonl
from repro.reporting import metrics_report, provenance_report, span_tree_report
from repro.reporting.obs_report import profile_report
from repro.workload.presets import cello


def main() -> None:
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()

    with obs.use(obs.Telemetry(tracer=tracer, metrics=registry)):
        results = evaluate_scenarios(
            casestudy.baseline_design(),
            cello(),
            casestudy.case_study_scenarios(),
            casestudy.case_study_requirements(),
        )

    print(span_tree_report(tracer))
    print()
    print(profile_report(tracer))
    print()
    print(metrics_report(registry))
    print()
    print(provenance_report(results, title="Provenance: baseline design"))

    # Every assessment also explains itself directly:
    array = next(a for key, a in results.items() if "array" in key)
    print("\nassessment.explain() for the array-failure scenario:\n")
    print(array.explain())

    # The JSONL export (what --trace-out writes): one record per line,
    # spans depth-first so the tree rebuilds from the "depth" field.
    buffer = io.StringIO()
    count = write_trace_jsonl(buffer, tracer=tracer, metrics=registry)
    print(f"\nJSONL export: {count} records, first three lines:")
    for line in buffer.getvalue().splitlines()[:3]:
        print(" ", line)

    # The OpenMetrics exposition (what --metrics-out writes), ready
    # for a Prometheus scrape or a pushgateway:
    exposition = openmetrics_text(registry)
    print(f"\nOpenMetrics export, first three lines of {len(exposition)} chars:")
    for line in exposition.splitlines()[:3]:
        print(" ", line)


if __name__ == "__main__":
    main()
