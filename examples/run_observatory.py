#!/usr/bin/env python3
"""The run observatory: ledgers, structural diffs, regression attribution.

Writes two complete run ledgers of the same evaluation under one runs
root — the second with a seeded slowdown injected into recovery
planning — then loads them back through the observatory and prints:

* the run index (``repro runs list``),
* the structural diff (``repro runs diff``): span deltas, metric
  deltas, and the task join by content-addressed key,
* the regression attribution — the deepest span path that explains
  the seeded slowdown (the ``assess`` phase, which hosts the patched
  call), found by walking the merged call-path trees top-down,

demonstrating that the diff separates *performance drift* (the sleep:
same task keys, same result digests, slower spans) from *correctness
drift* (different digests — absent here, because a sleep changes no
answer).

The equivalent from the command line:

    python -m repro evaluate spec.json --cache-dir c --run-dir runs/a
    python -m repro evaluate spec.json --cache-dir c --run-dir runs/b --baseline a
    python -m repro runs diff a b --runs-root runs --fail-on-regression

Run:  python examples/run_observatory.py
"""

import shutil
import tempfile
import time

from importlib import import_module

from repro import casestudy, obs
from repro.engine import EvaluationTask, map_evaluations
from repro.obs.diff import diff_runs
from repro.obs.runs import RunRecord, RunStore, TaskLog
from repro.reporting.runs_report import run_diff_report, runs_list_report
from repro.workload.presets import cello


def record_run(directory: str, run_id: str) -> None:
    """One fully-instrumented evaluation, persisted as a run ledger."""
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    task_log = TaskLog()
    ledger = obs.RunLedger(directory, run_id=run_id, argv=["example"])
    telemetry = obs.Telemetry(tracer=tracer, metrics=registry, task_log=task_log)
    with obs.use(telemetry):
        ledger.begin(
            extra={
                "command": "example",
                "model_schema_version": "engine-example",
            }
        )
        task = EvaluationTask(
            name="baseline",
            workload=cello(),
            scenarios=tuple(casestudy.case_study_scenarios()),
            requirements=casestudy.case_study_requirements(),
            factory=casestudy.baseline_design,
        )
        (outcome,) = map_evaluations([task])
        assert outcome.ok
        ledger.finish(tracer, registry, tasks=task_log.records)


def main() -> None:
    root = tempfile.mkdtemp(prefix="observatory-")
    try:
        # Run 1: the baseline.
        record_run(f"{root}/base", run_id="example-base")

        # Run 2: the same work with a seeded ~40ms slowdown wrapped
        # around recovery planning — the attribution walk should
        # descend to the assess span that hosts the patched call.
        # (import_module, because repro.core re-exports the evaluate
        # *function* under the submodule's name.)
        evaluate_module = import_module("repro.core.evaluate")
        original = evaluate_module.plan_recovery

        def slowed(*args, **kwargs):
            time.sleep(0.04)
            return original(*args, **kwargs)

        evaluate_module.plan_recovery = slowed
        try:
            record_run(f"{root}/slow", run_id="example-slow")
        finally:
            evaluate_module.plan_recovery = original

        # The observatory: index, then diff.
        store = RunStore(root)
        print(runs_list_report(store.scan(), store.skipped))
        print()

        diff = diff_runs(
            RunRecord.load(f"{root}/base"),
            RunRecord.load(f"{root}/slow"),
        )
        print(run_diff_report(diff))
        print()

        assert diff.has_regressions, "the seeded slowdown must be attributed"
        assert not diff.has_drift, "a sleep changes timings, never answers"
        (attribution,) = diff.regressions[:1]
        print(f"attributed: {attribution.describe()}")
        print(f"deepest span: {attribution.leaf}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
