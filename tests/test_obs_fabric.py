"""The cross-process telemetry fabric: capsules, ledger, progress.

Covers the observability additions end to end:

* worker-side capture and parent-side merge (:mod:`repro.obs.context`),
  including the delta semantics of counters and the percentile
  preservation of histogram merges;
* byte-stability of the merged span *skeleton* between serial and
  parallel runs of the same sweep;
* the run ledger's artifact round-trips (:mod:`repro.obs.ledger`);
* the progress reporter's throttling, ETA and heartbeats
  (:mod:`repro.obs.progress`).
"""

import io
import json
import pickle

import pytest

from repro import casestudy, obs
from repro.design import DesignSpace, candidate_designs
from repro.engine import EngineConfig, map_evaluations, shutdown_pool, warm_pool
from repro.engine.sweep import evaluate_design_map
from repro.obs import (
    MetricsRegistry,
    ProgressReporter,
    RunLedger,
    Telemetry,
    TelemetryCapsule,
    TraceContext,
    Tracer,
    merge_capsule,
    read_manifest,
    read_trace_jsonl,
    skeleton_digest,
    span_skeleton,
    use,
)
from repro.workload.presets import cello


@pytest.fixture(autouse=True)
def _no_leftover_pool():
    yield
    shutdown_pool()


def _capture_chunk(ctx, work):
    """Run ``work()`` as a worker runs a chunk; return the capsule."""
    with use(ctx.capture()) as telemetry:
        work()
    return TelemetryCapsule.pack(telemetry, ctx.base)


class TestCapsules:
    def test_capsule_round_trips_through_pickle(self):
        ctx = TraceContext(trace=True, metrics=True)

        def work():
            with obs.get_tracer().span("w.task", task="t0"):
                obs.get_metrics().inc("w.calls")

        capsule = _capture_chunk(ctx, work)
        clone = pickle.loads(pickle.dumps(capsule))
        assert [s.name for s in clone.spans] == ["w.task"]
        assert clone.metrics["counters"]["w.calls"] == 1.0

    def test_capture_restores_previous_instruments(self):
        """``use`` restores the previous telemetry value exactly, on a
        normal exit and when the block raises."""
        outer = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        with use(outer):
            with use(TraceContext(trace=True, metrics=True).capture()) as inner:
                assert obs.current() is inner
                assert obs.get_tracer() is not outer.tracer
            assert obs.current() is outer
            with pytest.raises(RuntimeError):
                with use(Telemetry()):
                    raise RuntimeError("chunk failed")
            assert obs.current() is outer
        assert obs.current() == Telemetry()

    def test_counter_deltas_from_workers_sum(self):
        """N capsules each reporting a delta of k land as N*k."""
        parent = MetricsRegistry()
        ctx = TraceContext(metrics=True)
        for _ in range(3):
            capsule = _capture_chunk(
                ctx, lambda: obs.get_metrics().inc("engine.sub", 2)
            )
            merge_capsule(capsule, metrics=parent)
        snapshot = parent.snapshot()
        assert snapshot["counters"]["engine.sub"] == 6.0
        assert snapshot["counters"]["obs.capsules_merged"] == 3.0

    def test_histogram_merge_preserves_percentiles(self):
        """Merged worker histograms estimate the same p50/p90/p99 as a
        single registry observing every sample (shared bucket layout)."""
        samples = [0.001 * (i + 1) for i in range(300)]
        serial = MetricsRegistry()
        for value in samples:
            serial.observe("lat", value)

        parent = MetricsRegistry()
        ctx = TraceContext(metrics=True)
        for shard in (samples[0::3], samples[1::3], samples[2::3]):
            capsule = _capture_chunk(
                ctx,
                lambda shard=shard: [
                    obs.get_metrics().observe("lat", v) for v in shard
                ],
            )
            merge_capsule(capsule, metrics=parent)

        one = serial.histogram("lat")
        merged = parent.histogram("lat")
        assert merged.count == one.count == 300
        for quantile in (0.50, 0.90, 0.99):
            assert merged.percentile(quantile) == one.percentile(quantile)

    def test_merge_tags_roots_with_worker_pid_and_rebases(self):
        tracer = Tracer(clock=lambda: 0.0)
        ctx = TraceContext(trace=True, base=5.0)

        def work():
            with obs.get_tracer().span("w.task"):
                pass

        capsule = _capture_chunk(ctx, work)
        capsule = pickle.loads(pickle.dumps(capsule))  # as the parent sees it
        merge_capsule(capsule, tracer=tracer, metrics=MetricsRegistry())
        (root,) = tracer.roots
        assert root.attributes["pid"] == capsule.pid
        assert root.start >= 5.0

    def test_disabled_context_is_none(self):
        assert obs.current_context() is None
        with use(Telemetry(tracer=Tracer())):
            ctx = obs.current_context()
            assert ctx is not None and ctx.trace and not ctx.metrics


class _SweepFixture:
    """One small real sweep, runnable serially or on a pool."""

    def __init__(self):
        self.workload = cello()
        self.requirements = casestudy.case_study_requirements()
        self.scenarios = casestudy.case_study_scenarios()[:2]
        self.designs = dict(
            list(candidate_designs(DesignSpace()).items())[:6]
        )

    def run(self, workers):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use(Telemetry(tracer=tracer, metrics=registry)):
            if workers > 1:
                warm_pool(workers)
            outcomes = evaluate_design_map(
                self.designs,
                self.workload,
                self.scenarios,
                self.requirements,
                config=EngineConfig(workers=workers),
            )
        return tracer, registry, outcomes


class TestSerialParallelParity:
    def test_span_skeleton_byte_stable_serial_vs_parallel(self):
        sweep = _SweepFixture()
        serial_tracer, serial_metrics, serial_out = sweep.run(1)
        parallel_tracer, parallel_metrics, parallel_out = sweep.run(3)

        assert skeleton_digest(serial_tracer) == skeleton_digest(parallel_tracer)
        # The digest is over the canonical JSON of the skeleton; spell
        # the contract out on the structures too.
        one = json.dumps(span_skeleton(serial_tracer), sort_keys=True)
        two = json.dumps(span_skeleton(parallel_tracer), sort_keys=True)
        assert one == two

    def test_worker_counters_match_serial_totals(self):
        sweep = _SweepFixture()
        _, serial_metrics, _ = sweep.run(1)
        _, parallel_metrics, _ = sweep.run(3)
        serial_counts = serial_metrics.snapshot()["counters"]
        parallel_counts = parallel_metrics.snapshot()["counters"]
        # Every model-side counter incremented in workers must merge
        # back to the serial totals (engine.* bookkeeping differs:
        # chunks, capsule counters).
        for name in ("evaluate.calls", "recovery.plans", "cost.computations"):
            assert parallel_counts[name] == serial_counts[name]
        assert parallel_counts["obs.capsules_merged"] >= 1.0
        assert parallel_counts["obs.worker_spans"] >= 1.0

    def test_parallel_trace_contains_worker_pids(self):
        import os

        sweep = _SweepFixture()
        tracer, _, _ = sweep.run(3)
        pids = {
            span.attributes["pid"]
            for span, _ in tracer.walk()
            if "pid" in span.attributes
        }
        assert pids and os.getpid() not in pids


class TestRunLedger:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use(Telemetry(tracer=tracer, metrics=registry)):
            with tracer.span("work"):
                registry.inc("calls")
        ledger = RunLedger(tmp_path / "run", argv=["evaluate", "spec.json"])
        ledger.begin(extra={"model_schema_version": "engine-v1:test"})
        ledger.heartbeat({"kind": "progress", "done": 1, "total": 2})
        manifest = ledger.finish(tracer, registry)

        loaded = read_manifest(tmp_path / "run")
        assert loaded == manifest
        assert loaded["status"] == "ok"
        assert loaded["argv"] == ["evaluate", "spec.json"]
        assert loaded["model_schema_version"] == "engine-v1:test"
        assert loaded["spans"] == 1
        assert loaded["heartbeats"] == 1

        records = read_trace_jsonl(ledger.path(RunLedger.SPANS))
        assert [r["name"] for r in records if r["kind"] == "span"] == ["work"]
        prom = (tmp_path / "run" / RunLedger.METRICS).read_text()
        assert "calls_total 1" in prom and prom.endswith("# EOF\n")
        beat = json.loads(
            (tmp_path / "run" / RunLedger.PROGRESS).read_text().strip()
        )
        assert beat["done"] == 1

    def test_finish_without_instruments_skips_artifacts(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.begin()
        manifest = ledger.finish(status="error")
        assert manifest["status"] == "error"
        assert manifest["spans"] == 0
        assert not (tmp_path / "run" / RunLedger.SPANS).exists()
        assert not (tmp_path / "run" / RunLedger.METRICS).exists()

    def test_crashed_run_manifest_says_running(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.begin()
        assert read_manifest(tmp_path / "run")["status"] == "running"


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestProgressReporter:
    def _reporter(self, stream=None, ledger=None, min_interval=0.25):
        clock = _FakeClock()
        reporter = ProgressReporter(
            stream=stream,
            ledger=ledger,
            min_interval=min_interval,
            clock=clock,
            wall=clock,
        )
        return reporter, clock

    def test_throttles_between_first_and_last(self):
        stream = io.StringIO()
        reporter, clock = self._reporter(stream=stream)
        reporter.begin(100, label="designs")
        for _ in range(50):
            clock.t += 0.001  # 50 advances in 50ms: all throttled
            reporter.advance(done=1)
        assert reporter.heartbeats == 1  # only the begin emission
        clock.t += 1.0
        reporter.advance(done=1)  # past min_interval: emitted
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[designs] 0/100")
        assert any("51/100" in line for line in lines)

    def test_completion_always_emits(self):
        reporter, clock = self._reporter()
        reporter.begin(2)
        clock.t += 0.01
        reporter.advance(done=2)  # throttle window, but done == total
        assert reporter.latest["done"] == 2

    def test_eta_from_rolling_window(self):
        reporter, clock = self._reporter()
        reporter.begin(100)
        for _ in range(10):
            clock.t += 1.0
            reporter.advance(done=1)
        record = reporter.latest
        assert record["rate_per_s"] == pytest.approx(1.0)
        assert record["eta_s"] == pytest.approx(90.0)

    def test_heartbeats_reach_the_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.begin()
        reporter, clock = self._reporter(ledger=ledger)
        reporter.begin(2, label="evaluate")
        clock.t += 1.0
        reporter.advance(done=1, cached=1)
        reporter.finish()
        lines = (tmp_path / "run" / RunLedger.PROGRESS).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["done"] for r in records] == [0, 1, 1]
        assert records[-1]["cached"] == 1
        assert all(r["label"] == "evaluate" for r in records)

    def test_null_progress_discards(self):
        null = obs.NULL_PROGRESS
        null.begin(10)
        null.advance(done=5)
        null.finish()
        assert null.latest is None

    def test_use_progress_installs_and_restores(self):
        reporter, _ = self._reporter()
        assert obs.current().progress is obs.NULL_PROGRESS
        with use(Telemetry(progress=reporter)):
            assert obs.current().progress is reporter
        assert obs.current().progress is obs.NULL_PROGRESS


class TestFailureDiagnosis:
    def test_tasks_failed_counters_by_type(self):
        from repro.engine import EvaluationTask
        from repro.exceptions import ReproError

        def boom():
            raise ReproError("infeasible candidate")

        sweep = _SweepFixture()
        good_name, good_design = next(iter(sweep.designs.items()))
        tasks = [
            EvaluationTask(
                name="bad",
                workload=sweep.workload,
                scenarios=tuple(sweep.scenarios),
                requirements=sweep.requirements,
                factory=boom,
            ),
            EvaluationTask(
                name="good",
                workload=sweep.workload,
                scenarios=tuple(sweep.scenarios),
                requirements=sweep.requirements,
                factory=good_design,
            ),
        ]
        tracer = Tracer()
        registry = MetricsRegistry()
        with use(Telemetry(tracer=tracer, metrics=registry)):
            outcomes = map_evaluations(tasks)
        assert outcomes[0].error is not None and outcomes[1].ok
        counters = registry.snapshot()["counters"]
        assert counters["engine.tasks_failed"] == 1.0
        assert counters["engine.tasks_failed.ReproError"] == 1.0
        (map_span,) = tracer.roots
        assert map_span.attributes["failed"] == 1
        (record,) = map_span.attributes["failures"]
        assert record["task"] == "bad"
        assert record["error_type"] == "ReproError"
        assert "infeasible" in record["error"]
