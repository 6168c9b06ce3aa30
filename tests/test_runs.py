"""The run observatory: store, record fallbacks, diff, attribution, CLI.

Covers the observatory end to end:

* manifest schema v2 round-trips (rollup, metrics snapshot, task
  records) and the crash-safe atomic manifest write;
* v1 backward compatibility against the committed fixture in
  ``tests/data/ledger_v1`` — span rollups rebuilt from ``spans.jsonl``,
  counters recovered from ``metrics.prom``;
* ledger edge cases: crashed runs (manifest stuck ``running``), empty
  span streams, heartbeat-only progress files, unparseable manifests
  (skip-and-count), schema-version mismatches between compared runs;
* :func:`repro.obs.diff.diff_runs`: identical pairs diff to nothing,
  seeded slowdowns attribute to the correct deepest span path,
  correctness drift separates from cache/perf churn;
* the engine's task log: keys + result digests recorded identically in
  serial and parallel runs;
* the ``repro runs`` CLI family and the ``--fail-on-regression`` /
  ``--baseline`` gates.

All span trees are built with an injected fake clock, so every timing
assertion is exact, not statistical.
"""

import json
import os

import pytest

from repro import casestudy
from repro.cli import main
from repro.engine import EngineConfig, EvaluationTask, map_evaluations, shutdown_pool
from repro.obs import (
    MANIFEST_SCHEMA,
    ManifestError,
    MetricsRegistry,
    RunLedger,
    Telemetry,
    Tracer,
    current,
    read_manifest,
    use,
)
from repro.obs.diff import diff_runs
from repro.obs.runs import (
    RunLookupError,
    RunRecord,
    RunStore,
    TaskLog,
    resolve_run,
)
from repro.workload.presets import cello

FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "data", "ledger_v1")


class FakeClock:
    """A scripted monotonic clock: advances only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance_ms(self, ms):
        self.now += ms / 1000.0


def emit_spans(tracer, clock, plan):
    """Emit one (name, self_ms, children) tree through the tracer."""
    name, self_ms, children = plan
    with tracer.span(name):
        for child in children:
            emit_spans(tracer, clock, child)
        clock.advance_ms(self_ms)


def make_run(
    directory,
    plans,
    run_id,
    command="evaluate",
    counters=None,
    tasks=None,
    model_version="engine-v1:feedface00000000",
    status="ok",
):
    """Write one complete v2 ledger with exact, scripted span timings."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for plan in plans:
        emit_spans(tracer, clock, plan)
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    ledger = RunLedger(directory, run_id=run_id, argv=[command])
    ledger.begin(extra={"command": command, "model_schema_version": model_version})
    ledger.finish(tracer, registry, status=status, tasks=tasks)
    return ledger


#: The baseline span forest: optimize > map > {task: 10ms, serialize: 2ms}.
BASE_PLAN = [
    (
        "optimize",
        3.0,
        [("engine.map", 5.0, [("engine.task", 10.0, []), ("serialize", 2.0, [])])],
    )
]

#: The same forest with engine.task seeded 50ms slower.
SLOW_PLAN = [
    (
        "optimize",
        3.0,
        [("engine.map", 5.0, [("engine.task", 60.0, []), ("serialize", 2.0, [])])],
    )
]


def task_record(key, digest, cached=False, task="design", label="array"):
    return {
        "task": task,
        "label": label,
        "key": key,
        "digest": digest,
        "cached": cached,
        "ok": True,
        "error_type": None,
        "attempts": 1,
    }


class TestManifestV2:
    def test_round_trip_rollup_metrics_tasks(self, tmp_path):
        tasks = [task_record("k1", "d1"), task_record("k2", "d2", cached=True)]
        make_run(
            tmp_path / "run",
            BASE_PLAN,
            run_id="r-1",
            counters={"evaluate.calls": 4},
            tasks=tasks,
        )
        record = RunRecord.load(tmp_path / "run")
        assert record.manifest_schema == MANIFEST_SCHEMA
        assert record.run_id == "r-1"
        stats = record.span_stats()
        assert stats["engine.task"]["cum_ms"] == pytest.approx(10.0)
        assert stats["optimize"]["cum_ms"] == pytest.approx(20.0)
        assert stats["optimize"]["self_ms"] == pytest.approx(3.0)
        (root,) = record.tree()
        assert root["name"] == "optimize"
        assert root["children"][0]["name"] == "engine.map"
        assert record.metrics()["counters"]["evaluate.calls"] == 4
        assert record.tasks() == tasks
        # The exposition carries the run's identity as an info metric.
        prom = (tmp_path / "run" / "metrics.prom").read_text()
        assert 'repro_run_info{run_id="r-1"} 1' in prom

    def test_manifest_write_is_atomic(self, tmp_path):
        make_run(tmp_path / "run", BASE_PLAN, run_id="r-atomic")
        leftovers = [
            name
            for name in os.listdir(tmp_path / "run")
            if ".tmp." in name
        ]
        assert leftovers == []
        assert read_manifest(tmp_path / "run")["status"] == "ok"

    def test_unparseable_manifest_raises_manifest_error(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text("{torn")
        with pytest.raises(ManifestError):
            read_manifest(run)
        (run / "manifest.json").write_text('["not a mapping"]')
        with pytest.raises(ManifestError):
            read_manifest(run)
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "missing")


class TestV1Compatibility:
    def test_fixture_loads_with_schema_1(self):
        record = RunRecord.load(FIXTURE_V1)
        assert record.manifest_schema == 1
        assert record.run_id == "20260101T000000-0001-deadbeef"
        assert record.command == "optimize"
        assert record.status == "ok"

    def test_rollup_rebuilt_from_span_stream(self):
        record = RunRecord.load(FIXTURE_V1)
        stats = record.span_stats()
        # Two engine.task spans, 48ms + 45ms, merged by name.
        assert stats["engine.task"]["calls"] == 2
        assert stats["engine.task"]["cum_ms"] == pytest.approx(93.0)
        # Self time subtracts the nested evaluate_scenarios.
        assert stats["engine.task"]["self_ms"] == pytest.approx(53.0)
        (root,) = record.tree()
        assert root["name"] == "optimizer.optimize"
        assert record.rollup()["total_ms"] == pytest.approx(100.0)
        assert record.rollup()["span_count"] == 5

    def test_metrics_recovered_from_prom(self):
        record = RunRecord.load(FIXTURE_V1)
        metrics = record.metrics()
        assert metrics["counters"]["evaluate_calls"] == 16
        assert metrics["gauges"]["engine_tasks_inflight"] == 0
        assert metrics["histograms"]["evaluate_ms"]["count"] == 16

    def test_fixture_diffs_cleanly_against_itself(self):
        record = RunRecord.load(FIXTURE_V1)
        diff = diff_runs(record, RunRecord.load(FIXTURE_V1))
        assert not diff.has_regressions and not diff.has_drift
        assert diff.total_delta_ms == pytest.approx(0.0)
        assert all(d.delta == 0.0 for d in diff.counter_deltas)

    def test_v1_counters_align_with_v2_dotted_names(self, tmp_path):
        # v1 stores sanitized prom names; v2 stores dotted instrument
        # names. The diff must join them as the same counter.
        make_run(
            tmp_path / "v2",
            BASE_PLAN,
            run_id="r-v2",
            counters={"evaluate.calls": 16, "engine.cache.misses": 0},
        )
        diff = diff_runs(RunRecord.load(FIXTURE_V1), RunRecord.load(tmp_path / "v2"))
        deltas = {d.name: d for d in diff.counter_deltas}
        assert deltas["evaluate_calls"].base == 16
        assert deltas["evaluate_calls"].cand == 16
        assert deltas["evaluate_calls"].delta == 0.0


class TestLedgerEdgeCases:
    def test_crashed_run_status_stays_running(self, tmp_path):
        ledger = RunLedger(tmp_path / "crash", run_id="r-crash", argv=[])
        ledger.begin(extra={"command": "evaluate"})
        # No finish(): the process died. The begin manifest survives.
        record = RunRecord.load(tmp_path / "crash")
        assert record.status == "running"
        assert record.span_stats() == {}
        assert record.tasks() == []
        assert record.wall_time_s is None

    def test_empty_span_stream_rolls_up_to_nothing(self, tmp_path):
        run = tmp_path / "empty"
        ledger = RunLedger(run, run_id="r-empty", argv=[])
        ledger.begin()
        (run / "spans.jsonl").write_text("")
        record = RunRecord.load(run)
        assert record.rollup()["span_count"] == 0
        assert record.tree() == []

    def test_heartbeat_only_progress_file(self, tmp_path):
        ledger = RunLedger(tmp_path / "hb", run_id="r-hb", argv=[])
        ledger.begin()
        ledger.heartbeat({"done": 1, "total": 8})
        ledger.heartbeat({"done": 8, "total": 8})
        record = RunRecord.load(tmp_path / "hb")
        assert [h["done"] for h in record.heartbeats()] == [1, 8]

    def test_store_skips_and_counts_unparseable_manifests(self, tmp_path):
        make_run(tmp_path / "good", BASE_PLAN, run_id="r-good")
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / "manifest.json").write_text("{")
        store = RunStore(tmp_path)
        records = store.scan()
        assert [r.run_id for r in records] == ["r-good"]
        assert len(store.skipped) == 1
        assert str(torn) in store.skipped[0][0]


class TestRunStore:
    def make_three(self, tmp_path):
        make_run(tmp_path / "a", BASE_PLAN, run_id="aaa-1", command="evaluate")
        make_run(tmp_path / "b", BASE_PLAN, run_id="bbb-2", command="optimize")
        make_run(
            tmp_path / "c",
            BASE_PLAN,
            run_id="bbc-3",
            command="optimize",
            status="error",
        )
        return RunStore(tmp_path)

    def test_list_filters(self, tmp_path):
        store = self.make_three(tmp_path)
        assert len(store.list()) == 3
        assert [r.run_id for r in store.list(command="evaluate")] == ["aaa-1"]
        assert [r.run_id for r in store.list(status="error")] == ["bbc-3"]
        assert len(store.list(schema=str(MANIFEST_SCHEMA))) == 3
        assert len(store.list(schema="engine-v1")) == 3
        assert store.list(schema="engine-v99") == []

    def test_latest_prefers_newest(self, tmp_path):
        store = self.make_three(tmp_path)
        # Equal start stamps tie-break on run_id.
        assert store.latest().run_id == "bbc-3"
        assert store.latest(command="evaluate").run_id == "aaa-1"
        assert RunStore(tmp_path / "nowhere").latest() is None

    def test_find_exact_prefix_ambiguous_missing(self, tmp_path):
        store = self.make_three(tmp_path)
        assert store.find("aaa-1").run_id == "aaa-1"  # exact run ID
        assert store.find("c").run_id == "bbc-3"      # exact dirname
        assert store.find("bbb").run_id == "bbb-2"    # unique ID prefix
        with pytest.raises(RunLookupError):
            store.find("bb")  # ambiguous prefix: bbb-2 and bbc-3
        with pytest.raises(RunLookupError):
            store.find("zzz")

    def test_gc_keeps_newest_and_running(self, tmp_path):
        store = self.make_three(tmp_path)
        crash = RunLedger(tmp_path / "live", run_id="zzz-live", argv=[])
        crash.begin()
        removed = store.gc(keep=1)
        assert [r.run_id for r in removed] == ["aaa-1", "bbb-2"]
        survivors = {r.run_id for r in store.scan()}
        assert survivors == {"bbc-3", "zzz-live"}

    def test_resolve_run_by_path_and_token(self, tmp_path):
        self.make_three(tmp_path)
        assert resolve_run(str(tmp_path / "a")).run_id == "aaa-1"
        assert resolve_run("bbb-2", root=tmp_path).run_id == "bbb-2"
        with pytest.raises(RunLookupError):
            resolve_run("bbb-2")  # no root to resolve against


class TestDiff:
    def test_identical_pair_diffs_to_nothing(self, tmp_path):
        tasks = [task_record("k1", "d1"), task_record("k2", "d2")]
        make_run(
            tmp_path / "one", BASE_PLAN, run_id="r1",
            counters={"evaluate.calls": 4}, tasks=tasks,
        )
        make_run(
            tmp_path / "two", BASE_PLAN, run_id="r2",
            counters={"evaluate.calls": 4}, tasks=tasks,
        )
        diff = diff_runs(
            RunRecord.load(tmp_path / "one"), RunRecord.load(tmp_path / "two")
        )
        assert not diff.has_regressions
        assert not diff.has_drift
        assert diff.total_delta_ms == pytest.approx(0.0)
        assert diff.matched_tasks == 2
        assert diff.tasks_added == [] and diff.tasks_removed == []
        assert diff.newly_cached == [] and diff.newly_uncached == []
        assert not diff.schema_mismatch

    def test_seeded_slowdown_attributes_to_deepest_path(self, tmp_path):
        make_run(tmp_path / "base", BASE_PLAN, run_id="rb")
        make_run(tmp_path / "slow", SLOW_PLAN, run_id="rs")
        diff = diff_runs(
            RunRecord.load(tmp_path / "base"), RunRecord.load(tmp_path / "slow")
        )
        assert diff.has_regressions
        (attribution,) = diff.regressions
        assert attribution.path == ["optimize", "engine.map", "engine.task"]
        assert attribution.leaf == "engine.task"
        assert attribution.root_delta_ms == pytest.approx(50.0)
        assert attribution.delta_ms == pytest.approx(50.0)
        assert attribution.share == pytest.approx(1.0)
        assert "engine.task" in attribution.describe()

    def test_small_deltas_stay_below_thresholds(self, tmp_path):
        jitter = [("optimize", 3.5, [("engine.map", 5.0, [])])]
        make_run(tmp_path / "base", BASE_PLAN, run_id="rb")
        make_run(tmp_path / "near", jitter, run_id="rn")
        diff = diff_runs(
            RunRecord.load(tmp_path / "base"), RunRecord.load(tmp_path / "near")
        )
        # 0.5ms slower: under the 5ms absolute gate, no regression.
        assert not diff.has_regressions

    def test_correctness_drift_vs_cache_churn(self, tmp_path):
        base_tasks = [
            task_record("k1", "d1"),
            task_record("k2", "d2"),
            task_record("k3", "d3"),
        ]
        cand_tasks = [
            task_record("k1", "DIFFERENT"),          # drift
            task_record("k2", "d2", cached=True),    # newly cached
            task_record("k4", "d4"),                 # added (k3 removed)
        ]
        make_run(tmp_path / "base", BASE_PLAN, run_id="rb", tasks=base_tasks)
        make_run(tmp_path / "cand", BASE_PLAN, run_id="rc", tasks=cand_tasks)
        diff = diff_runs(
            RunRecord.load(tmp_path / "base"), RunRecord.load(tmp_path / "cand")
        )
        (drift,) = diff.correctness_drift
        assert drift.key == "k1"
        assert drift.base_digest == "d1" and drift.cand_digest == "DIFFERENT"
        assert diff.newly_cached == ["k2"]
        assert diff.tasks_added == ["k4"]
        assert diff.tasks_removed == ["k3"]
        assert diff.matched_tasks == 2

    def test_schema_mismatch_flagged(self, tmp_path):
        make_run(tmp_path / "old", BASE_PLAN, run_id="ro",
                 model_version="engine-v1:aaaa")
        make_run(tmp_path / "new", BASE_PLAN, run_id="rn",
                 model_version="engine-v1:bbbb")
        diff = diff_runs(
            RunRecord.load(tmp_path / "old"), RunRecord.load(tmp_path / "new")
        )
        assert diff.schema_mismatch
        assert diff.to_dict()["schema_mismatch"] is True

    def test_span_added_and_removed_marked(self, tmp_path):
        make_run(tmp_path / "base", BASE_PLAN, run_id="rb")
        extra = [("optimize", 3.0, [("brand.new", 7.0, [])])]
        make_run(tmp_path / "cand", extra, run_id="rc")
        diff = diff_runs(
            RunRecord.load(tmp_path / "base"), RunRecord.load(tmp_path / "cand")
        )
        by_name = {d.name: d for d in diff.span_deltas}
        assert by_name["brand.new"].status == "added"
        assert by_name["engine.task"].status == "removed"
        assert by_name["optimize"].status == "common"

    def test_to_dict_is_json_serializable(self, tmp_path):
        make_run(tmp_path / "base", BASE_PLAN, run_id="rb",
                 counters={"evaluate.calls": 1})
        make_run(tmp_path / "cand", SLOW_PLAN, run_id="rc",
                 counters={"evaluate.calls": 2})
        diff = diff_runs(
            RunRecord.load(tmp_path / "base"), RunRecord.load(tmp_path / "cand")
        )
        document = json.loads(json.dumps(diff.to_dict()))
        assert document["base"]["run_id"] == "rb"
        assert document["regressions"][0]["path"][-1] == "engine.task"


class TestTaskLog:
    @pytest.fixture(autouse=True)
    def _no_leftover_pool(self):
        yield
        shutdown_pool()

    def make_tasks(self):
        workload = cello()
        scenarios = tuple(casestudy.case_study_scenarios())
        requirements = casestudy.case_study_requirements()
        return [
            EvaluationTask(
                name="baseline",
                workload=workload,
                scenarios=scenarios,
                requirements=requirements,
                factory=casestudy.baseline_design,
            )
        ]

    def test_null_log_by_default(self):
        assert current().task_log is None

    def test_log_records_keys_and_digests(self):
        log = TaskLog()
        with use(Telemetry(task_log=log)):
            (outcome,) = map_evaluations(self.make_tasks())
        assert outcome.ok
        (record,) = log.records
        assert record["task"] == "baseline"
        assert len(record["key"]) == 64
        assert len(record["digest"]) == 64
        assert record["ok"] and not record["cached"]
        assert record["error_type"] is None

    def test_serial_and_parallel_digests_match(self):
        serial_log, parallel_log = TaskLog(), TaskLog()
        with use(Telemetry(task_log=serial_log)):
            map_evaluations(self.make_tasks())
        with use(Telemetry(task_log=parallel_log)):
            map_evaluations(self.make_tasks(), EngineConfig(workers=2))
        (serial,) = serial_log.records
        (parallel,) = parallel_log.records
        assert serial["key"] == parallel["key"]
        assert serial["digest"] == parallel["digest"]


class TestRunsCli:
    def seed_pair(self, tmp_path):
        tasks = [task_record("k1", "d1")]
        make_run(tmp_path / "base", BASE_PLAN, run_id="run-base", tasks=tasks)
        make_run(tmp_path / "slow", SLOW_PLAN, run_id="run-slow", tasks=tasks)
        return str(tmp_path)

    def test_list_and_show_and_latest(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        assert main(["runs", "list", "--runs-root", root]) == 0
        out = capsys.readouterr().out
        assert "run-base" in out and "run-slow" in out
        assert main(["runs", "show", "run-base", "--runs-root", root]) == 0
        assert "manifest v2" in capsys.readouterr().out
        assert main(["runs", "latest", "--runs-root", root]) == 0
        assert "run-slow" in capsys.readouterr().out

    def test_list_json(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        assert main(["runs", "list", "--runs-root", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in payload["runs"]] == ["run-base", "run-slow"]
        assert payload["skipped"] == []

    def test_diff_gate_passes_on_identical_pair(self, tmp_path, capsys):
        tasks = [task_record("k1", "d1")]
        make_run(tmp_path / "one", BASE_PLAN, run_id="r1", tasks=tasks)
        make_run(tmp_path / "two", BASE_PLAN, run_id="r2", tasks=tasks)
        code = main(
            ["runs", "diff", "r1", "r2", "--runs-root", str(tmp_path),
             "--fail-on-regression"]
        )
        assert code == 0
        assert "no span regressions" in capsys.readouterr().out

    def test_diff_gate_fails_on_seeded_slowdown(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        out_path = tmp_path / "diff.json"
        code = main(
            ["runs", "diff", "run-base", "run-slow", "--runs-root", root,
             "--fail-on-regression", "--json-out", str(out_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "optimize > engine.map > engine.task" in captured.out
        assert "FAIL" in captured.err
        document = json.loads(out_path.read_text())
        assert document["regressions"][0]["path"] == [
            "optimize", "engine.map", "engine.task",
        ]

    def test_diff_without_gate_reports_but_exits_zero(self, tmp_path):
        root = self.seed_pair(tmp_path)
        assert main(["runs", "diff", "run-base", "run-slow",
                     "--runs-root", root]) == 0

    def test_diff_json_format(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        code = main(["runs", "diff", "run-base", "run-slow", "--runs-root",
                     root, "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cand"]["run_id"] == "run-slow"

    def test_gc_cli(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        assert main(["runs", "gc", "--keep", "1", "--runs-root", root]) == 0
        assert "removed 1 run(s)" in capsys.readouterr().out
        store = RunStore(root)
        assert [r.run_id for r in store.scan()] == ["run-slow"]

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        root = self.seed_pair(tmp_path)
        assert main(["runs", "show", "nope", "--runs-root", root]) == 2
        assert "error" in capsys.readouterr().err

    def test_baseline_requires_run_dir(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"design": "baseline", "scenarios": ["array"]}')
        code = main(["evaluate", str(spec), "--baseline", "whatever"])
        assert code == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_baseline_auto_diff_on_stderr(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"design": "baseline", "scenarios": ["array"]}')
        first = main(["evaluate", str(spec), "--run-dir",
                      str(tmp_path / "runs" / "one")])
        assert first == 0
        capsys.readouterr()
        second = main(["evaluate", str(spec), "--run-dir",
                       str(tmp_path / "runs" / "two"), "--baseline", "one"])
        assert second == 0
        captured = capsys.readouterr()
        assert "no correctness drift" in captured.err
        assert "no correctness drift" not in captured.out

    def test_run_dir_manifest_carries_tasks(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"design": "baseline", "scenarios": ["array"]}')
        assert main(["evaluate", str(spec), "--run-dir",
                     str(tmp_path / "run")]) == 0
        capsys.readouterr()
        record = RunRecord.load(tmp_path / "run")
        assert record.manifest_schema == MANIFEST_SCHEMA
        (task,) = record.tasks()
        assert task["task"] == "baseline"
        assert len(task["key"]) == 64 and len(task["digest"]) == 64
        # And the CLI leaves the process-global log reset afterwards.
        assert current().task_log is None
