"""The evaluation engine: keys, cache tiers, executor, sweeps."""

import json
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import pytest

from repro import casestudy
from repro.design import DesignSpace, candidate_designs, optimize, run_whatif
from repro.engine import (
    EngineConfig,
    EvaluationTask,
    MemoryCache,
    ResultCache,
    fingerprint,
    map_evaluations,
    model_schema_version,
    shutdown_pool,
    task_key,
)
from repro.engine.cache import DiskCache
from repro.engine.sweep import evaluate_design_map, evaluate_scenarios_cached
from repro.exceptions import CacheKeyError, ReproError
from repro.obs import MetricsRegistry, TaskLog, Telemetry, use
from repro.workload.presets import cello


@pytest.fixture()
def workload():
    return cello()


@pytest.fixture()
def requirements():
    return casestudy.case_study_requirements()


@pytest.fixture()
def scenarios():
    return casestudy.case_study_scenarios()


@pytest.fixture(autouse=True)
def _no_leftover_pool():
    yield
    shutdown_pool()


class TestKeys:
    def test_fingerprint_deterministic_for_equal_graphs(self, workload):
        designs = candidate_designs(DesignSpace())
        name = next(iter(designs))
        one = fingerprint({"design": designs[name](), "workload": workload})
        two = fingerprint({"design": designs[name](), "workload": workload})
        assert one == two

    def test_task_key_distinguishes_designs(self, workload):
        designs = candidate_designs(DesignSpace())
        names = list(designs)
        key_a = task_key({"design": designs[names[0]](), "workload": workload})
        key_b = task_key({"design": designs[names[1]](), "workload": workload})
        assert key_a != key_b

    def test_task_key_includes_schema_version(self, workload, monkeypatch):
        from repro.engine import keys as keys_module

        payload = {"workload": workload}
        before = task_key(payload)
        monkeypatch.setattr(keys_module, "_schema_version", "engine-v0:test")
        assert task_key(payload) != before

    def test_memo_does_not_change_the_key(self, workload, scenarios):
        payload = {"workload": workload, "scenarios": tuple(scenarios)}
        memo = {}
        assert task_key(payload, memo) == task_key(payload)
        # And a second memoized call short-circuits to the same key.
        assert task_key(payload, memo) == task_key(payload)

    def test_shared_references_fingerprint_identically(self):
        shared = {"x": 1.0}
        graph_shared = [shared, shared]
        graph_copies = [{"x": 1.0}, {"x": 1.0}]
        # Plain dicts carry no identity: both graphs canonicalize alike.
        assert fingerprint(graph_shared) == fingerprint(graph_copies)

    def test_unserializable_objects_raise(self):
        with pytest.raises(CacheKeyError):
            fingerprint({"callback": lambda: None})

    def test_schema_version_is_stable_within_a_process(self):
        assert model_schema_version() == model_schema_version()
        assert model_schema_version().startswith("engine-v1")


class TestMemoryCache:
    def test_lru_evicts_oldest(self):
        cache = MemoryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_zero_entries_disables_the_tier(self):
        cache = MemoryCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestDiskCache:
    def _results(self, workload, scenarios, requirements):
        from repro.core.evaluate import evaluate_scenarios

        return evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )

    def test_round_trip_preserves_rendering(
        self, tmp_path, workload, scenarios, requirements
    ):
        results = self._results(workload, scenarios, requirements)
        disk = DiskCache(tmp_path)
        assert disk.put("k", results)
        restored = DiskCache(tmp_path).get("k")
        assert list(restored) == list(results)
        for label in results:
            assert restored[label].summary() == results[label].summary()
            assert restored[label].explain() == results[label].explain()

    def test_scenario_order_survives_the_disk(
        self, tmp_path, workload, scenarios, requirements
    ):
        # Regression: an alphabetically re-sorted payload would reorder
        # the scenario columns of every cached report.
        results = self._results(workload, list(reversed(scenarios)), requirements)
        disk = DiskCache(tmp_path)
        disk.put("k", results)
        assert list(DiskCache(tmp_path).get("k")) == list(results)

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / DiskCache.FILENAME
        path.write_text('not json\n{"key": "k", "codec": "x"}\n')
        disk = DiskCache(tmp_path)
        assert disk.get("k") is None

    def test_torn_lines_are_counted_misses(
        self, tmp_path, workload, scenarios, requirements
    ):
        results = self._results(workload, scenarios, requirements)
        writer = ResultCache(cache_dir=tmp_path)
        for key in ("healthy", "torn-1", "torn-2"):
            writer.put(key, results)
        path = tmp_path / DiskCache.FILENAME
        healthy, torn_1, torn_2 = path.read_text(encoding="utf-8").splitlines()
        # Writers killed mid-record leave the front part of their lines.
        path.write_text(
            "\n".join([torn_1[: len(torn_1) // 2], healthy, torn_2[:40]]) + "\n",
            encoding="utf-8",
        )
        registry = MetricsRegistry()
        with use(Telemetry(metrics=registry)):
            reader = ResultCache(cache_dir=tmp_path)
            assert reader.get("torn-1") == (False, None)
            assert reader.get("torn-2") == (False, None)
            hit, value = reader.get("healthy")
        assert hit and list(value) == list(results)
        counters = registry.snapshot()["counters"]
        assert counters["engine.cache.corrupt_records"] == 2
        assert counters["engine.cache.misses"] == 2
        assert counters["engine.cache.disk_hits"] == 1

    def test_unknown_codec_is_a_miss(self, tmp_path):
        path = tmp_path / DiskCache.FILENAME
        path.write_text(
            json.dumps({"key": "k", "codec": "from-the-future", "payload": {}})
            + "\n"
        )
        assert DiskCache(tmp_path).get("k") is None

    def test_uncodecable_values_are_not_stored(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert not disk.put("k", object())
        assert disk.get("k") is None

    def test_concurrent_writers_never_tear_records(
        self, tmp_path, workload, scenarios, requirements
    ):
        # Regression: two engine processes sharing one cache dir append
        # to the same results.jsonl.  Buffered text appends can flush a
        # large record in several chunks, interleaving mid-line and
        # corrupting the last-wins index; DiskCache.put must append
        # each record as one O_APPEND write.
        import multiprocessing

        results = self._results(workload, scenarios, requirements)
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        per_writer = 20
        writers = [
            context.Process(
                target=_hammer_cache,
                args=(tmp_path, results, f"writer{n}", per_writer, barrier),
            )
            for n in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
            assert process.exitcode == 0
        raw = (tmp_path / DiskCache.FILENAME).read_text(encoding="utf-8")
        lines = [line for line in raw.splitlines() if line]
        assert len(lines) == 2 * per_writer
        for line in lines:
            record = json.loads(line)  # a torn line would raise here
            assert {"key", "codec", "payload"} <= set(record)
        disk = DiskCache(tmp_path)
        for n in range(2):
            for i in range(per_writer):
                assert disk.get(f"writer{n}-{i}") is not None


def _hammer_cache(cache_dir, results, prefix, count, barrier):
    """Worker for the concurrent-append regression test (module level
    so fork/spawn children can resolve it)."""
    disk = DiskCache(cache_dir)
    barrier.wait()
    for i in range(count):
        disk.put(f"{prefix}-{i}", results)


@dataclass(frozen=True)
class _FlakyTask:
    """Fails ``failures`` times, then succeeds (module-level: picklable)."""

    name: str
    failures: int
    log: list = field(default_factory=list, compare=False)

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "flaky", "name": self.name}

    def run(self, facts=None):
        if len(self.log) < self.failures:
            self.log.append("boom")
            raise RuntimeError(f"transient #{len(self.log)}")
        return "recovered"


@dataclass(frozen=True)
class _HangingTask:
    name: str

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "hang", "name": self.name}

    def run(self, facts=None):
        time.sleep(30.0)
        return "unreachable"


@dataclass(frozen=True)
class _ModelErrorTask:
    name: str

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "modelerror", "name": self.name}

    def run(self, facts=None):
        raise ReproError("infeasible candidate")


@dataclass(frozen=True)
class _DyingTask:
    """Kills the worker process running it; completes when run in the
    parent, as an inline retry does (module-level: picklable)."""

    name: str
    parent_pid: int

    def resolve(self):
        return self

    def key_payload(self):
        return {"kind": "dying", "name": self.name}

    def run(self, facts=None):
        if os.getpid() != self.parent_pid:
            os._exit(70)
        return "survived"


class TestExecutor:
    def test_serial_default_runs_inline(self, workload, scenarios, requirements):
        task = EvaluationTask(
            name="baseline",
            workload=workload,
            scenarios=tuple(scenarios),
            requirements=requirements,
            design=casestudy.baseline_design,
        )
        (outcome,) = map_evaluations([task])
        assert outcome.ok and not outcome.cached
        assert set(outcome.value) == {s.describe() for s in scenarios}

    def test_parallel_matches_serial(self, workload, scenarios, requirements):
        designs = candidate_designs(DesignSpace())
        serial = evaluate_design_map(designs, workload, scenarios, requirements)
        parallel = evaluate_design_map(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert serial[name].ok and parallel[name].ok
            for label in serial[name].value:
                assert (
                    serial[name].value[label].summary()
                    == parallel[name].value[label].summary()
                )

    def test_model_errors_are_not_retried(self):
        task = _ModelErrorTask("bad")
        (outcome,) = map_evaluations(
            [task], EngineConfig(retries=3, retry_backoff=0.001)
        )
        assert not outcome.ok
        assert isinstance(outcome.error, ReproError)
        assert outcome.attempts == 1 and not outcome.retryable

    def test_generic_failures_retry_then_surface(self):
        task = _FlakyTask("boom", failures=99)
        (outcome,) = map_evaluations(
            [task], EngineConfig(workers=2, retries=2, retry_backoff=0.001)
        )
        assert not outcome.ok and outcome.retryable
        assert outcome.attempts == 3  # first try + two retries
        assert isinstance(outcome.error, RuntimeError)

    def test_transient_failure_recovers_on_retry(self):
        task = _FlakyTask("flaky", failures=1)
        (outcome,) = map_evaluations(
            [task], EngineConfig(workers=1, retries=2, retry_backoff=0.001)
        )
        # Inline serial execution runs once without retries...
        assert not outcome.ok
        # ...but on a pool the parent retries inline and recovers.
        task2 = _FlakyTask("flaky2", failures=1)
        (outcome2,) = map_evaluations(
            [task2], EngineConfig(workers=2, retries=2, retry_backoff=0.001)
        )
        assert outcome2.ok and outcome2.value == "recovered"

    def _run_dying(self, retries):
        """Three worker-killing tasks in one pool chunk, under a
        registry and a task log."""
        tasks = [_DyingTask(f"die-{n}", os.getpid()) for n in range(3)]
        registry, log = MetricsRegistry(), TaskLog()
        config = EngineConfig(
            workers=2, chunk_size=len(tasks), retries=retries, retry_backoff=0.001
        )
        with use(Telemetry(metrics=registry, task_log=log)):
            outcomes = map_evaluations(tasks, config)
        return tasks, outcomes, registry.snapshot()["counters"], log.records

    def test_killed_worker_fails_its_chunk_by_name(self):
        tasks, outcomes, counters, records = self._run_dying(retries=0)
        assert all(isinstance(o.error, BrokenProcessPool) for o in outcomes)
        assert counters["engine.tasks_failed.BrokenProcessPool"] == len(tasks)
        assert [r["task"] for r in records] == [task.name for task in tasks]
        assert len({r["key"] for r in records}) == len(tasks)
        for record in records:
            assert len(record["key"]) == 64
            assert record["error_type"] == "BrokenProcessPool"
            assert not record["ok"]

    def test_killed_worker_recovers_on_one_retry(self):
        tasks, outcomes, counters, records = self._run_dying(retries=1)
        assert all(o.ok and o.value == "survived" for o in outcomes)
        assert counters["engine.retries"] == len(tasks)
        assert "engine.tasks_failed" not in counters
        assert all(r["ok"] and r["attempts"] == 2 for r in records)

    def test_timeout_surfaces_without_hanging(self):
        start = time.monotonic()
        (outcome,) = map_evaluations(
            [_HangingTask("hang")],
            EngineConfig(
                workers=2, retries=1, retry_backoff=0.001, task_timeout=0.2
            ),
        )
        elapsed = time.monotonic() - start
        assert not outcome.ok and outcome.retryable
        assert elapsed < 10.0

    def test_timeout_is_counted_and_logged(self):
        # SIGALRM preempts the task in its worker, and again in the
        # parent's one inline retry: one failure, named by type.
        registry, log = MetricsRegistry(), TaskLog()
        config = EngineConfig(
            workers=2, retries=1, retry_backoff=0.001, task_timeout=0.2
        )
        with use(Telemetry(metrics=registry, task_log=log)):
            (outcome,) = map_evaluations([_HangingTask("hang")], config)
        assert not outcome.ok and outcome.retryable
        counters = registry.snapshot()["counters"]
        assert counters["engine.tasks_failed._TaskTimeout"] == 1
        assert counters["engine.retries"] == 1
        (record,) = log.records
        assert re.fullmatch("[0-9a-f]{64}", record["key"])
        assert record["error_type"] == "_TaskTimeout"
        assert record["attempts"] == 2

    def test_unpicklable_task_runs_inline(self):
        # A class local to this test cannot be pickled, so the engine
        # runs its task in the parent instead of shipping it.
        @dataclass(frozen=True)
        class LocalTask:
            name: str

            def resolve(self):
                return self

            def key_payload(self):
                return {"kind": "local", "name": self.name}

            def run(self, facts=None):
                return os.getpid()

        registry = MetricsRegistry()
        with use(Telemetry(metrics=registry)):
            (outcome,) = map_evaluations([LocalTask("local")], EngineConfig(workers=2))
        counters = registry.snapshot()["counters"]
        assert counters["engine.tasks_inline"] == 1
        assert outcome.ok and outcome.value == os.getpid()
        assert "engine.chunks" not in counters

    def test_outcomes_keep_input_order(self):
        tasks = [
            _ModelErrorTask("a"),
            _FlakyTask("b", failures=0),
            _ModelErrorTask("c"),
        ]
        outcomes = map_evaluations(tasks)
        assert [o.name for o in outcomes] == ["a", "b", "c"]
        assert [o.ok for o in outcomes] == [False, True, False]


class TestCaching:
    def test_memory_cache_hits_on_second_sweep(
        self, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        config = EngineConfig(memory_cache_entries=64)
        cache = ResultCache(memory_entries=64)
        registry = MetricsRegistry()
        with use(Telemetry(metrics=registry)):
            first = evaluate_design_map(
                designs, workload, scenarios, requirements,
                config=config, cache=cache,
            )
            second = evaluate_design_map(
                designs, workload, scenarios, requirements,
                config=config, cache=cache,
            )
        counters = registry.snapshot()["counters"]
        assert counters["engine.cache.hits"] >= len(designs)
        assert all(second[name].cached for name in second)
        for name in first:
            for label in first[name].value:
                assert (
                    first[name].value[label].summary()
                    == second[name].value[label].summary()
                )

    def test_disk_cache_survives_processes(
        self, tmp_path, workload, scenarios, requirements
    ):
        designs = candidate_designs(DesignSpace())
        config = EngineConfig(cache_dir=str(tmp_path), memory_cache_entries=8)
        first = evaluate_design_map(
            designs, workload, scenarios, requirements, config=config
        )
        # A fresh call builds a fresh ResultCache: only the disk tier
        # persists, simulating a new process against the same dir.
        second = evaluate_design_map(
            designs, workload, scenarios, requirements, config=config
        )
        assert all(second[name].cached for name in second)
        for name in first:
            for label in first[name].value:
                assert (
                    first[name].value[label].explain()
                    == second[name].value[label].explain()
                )

    def test_unkeyable_tasks_still_run(self):
        @dataclass(frozen=True)
        class Unkeyable:
            name: str

            def resolve(self):
                return self

            def key_payload(self):
                return {"cb": lambda: None}

            def run(self, facts=None):
                return 42

        (outcome,) = map_evaluations(
            [Unkeyable("u")], EngineConfig(memory_cache_entries=8)
        )
        assert outcome.ok and outcome.value == 42 and not outcome.cached

    def test_default_config_disables_caching(self):
        assert not EngineConfig().caching
        assert EngineConfig(memory_cache_entries=1).caching
        assert EngineConfig(cache_dir="/tmp/x").caching


class TestReevaluationHitsCache:
    """Evaluating a design leaves its key unchanged, so the very same
    object evaluated again is answered from the cache."""

    def test_same_design_object_hits_on_second_call(
        self, workload, scenarios, requirements
    ):
        design = casestudy.baseline_design()
        config = EngineConfig(memory_cache_entries=8)
        cache = ResultCache(memory_entries=8)
        outcomes = [
            evaluate_design_map(
                {"baseline": design}, workload, scenarios, requirements,
                config=config, cache=cache,
            )["baseline"]
            for _ in range(2)
        ]
        assert [outcome.cached for outcome in outcomes] == [False, True]


class TestSweepHelpers:
    def test_evaluate_scenarios_cached_matches_direct(
        self, workload, scenarios, requirements
    ):
        from repro.core.evaluate import evaluate_scenarios

        direct = evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )
        via_engine = evaluate_scenarios_cached(
            casestudy.baseline_design(), workload, scenarios, requirements
        )
        assert list(direct) == list(via_engine)
        for label in direct:
            assert direct[label].summary() == via_engine[label].summary()

    def test_evaluate_scenarios_cached_raises_task_errors(
        self, workload, scenarios, requirements
    ):
        def broken():
            raise ReproError("cannot build")

        with pytest.raises(ReproError):
            evaluate_scenarios_cached(
                broken, workload, scenarios, requirements
            )

    def test_whatif_through_engine_matches_history(
        self, workload, scenarios, requirements
    ):
        designs = {
            "baseline": casestudy.baseline_design,
            "weekly": casestudy.weekly_vault_design,
        }
        results = run_whatif(designs, workload, scenarios, requirements)
        assert [r.design_name for r in results] == ["baseline", "weekly"]
        parallel = run_whatif(
            designs, workload, scenarios, requirements,
            config=EngineConfig(workers=2),
        )
        for serial_result, parallel_result in zip(results, parallel):
            assert (
                serial_result.worst_total_cost
                == parallel_result.worst_total_cost
            )


class TestOptimizeParity:
    def test_parallel_ranking_identical_to_serial(
        self, workload, scenarios, requirements
    ):
        candidates = candidate_designs(DesignSpace())
        serial = optimize(candidates, workload, scenarios, requirements)
        parallel = optimize(
            candidates, workload, scenarios, requirements,
            config=EngineConfig(workers=4),
        )
        assert [e.name for e in serial.ranking] == [
            e.name for e in parallel.ranking
        ]
        assert [e.objective for e in serial.ranking] == [
            e.objective for e in parallel.ranking
        ]
        assert serial.best.name == parallel.best.name
