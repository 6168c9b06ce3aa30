"""The observability layer: tracer, metrics, provenance, export."""

import io

import pytest

import repro
from repro import casestudy, obs
from repro.core.evaluate import evaluate, evaluate_scenarios
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.devices.spares import SpareConfig
from repro.obs.export import (
    metric_records,
    read_trace_jsonl,
    span_records,
    write_trace_jsonl,
)
from repro.obs.provenance import EvaluationProvenance, explain_assessment
from repro.scenarios.locations import REMOTE_SITE
from repro.techniques.mirroring import BatchedAsyncMirror
from repro.techniques.primary import PrimaryCopy
from repro.workload.presets import cello

#: Telemetry contexts deliberately left entered (see the reset test).
_LEAKED = []


class FakeClock:
    """A deterministic clock advanced explicitly by tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner-1", "inner-2"]
        assert outer.children[1].children[0].name == "leaf"
        assert [name for (span, _d) in tracer.walk() for name in [span.name]] == [
            "outer", "inner-1", "inner-2", "leaf",
        ]

    def test_timing_uses_the_injected_clock(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)
        assert inner.start == pytest.approx(1.0)
        assert inner.duration_ms == pytest.approx(500.0)

    def test_attributes_and_set(self):
        tracer = obs.Tracer()
        with tracer.span("op", phase="x") as span:
            span.set(items=3)
        assert tracer.roots[0].attributes == {"phase": "x", "items": 3}

    def test_exception_closes_the_span_and_records_the_error(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        span = tracer.roots[0]
        assert span.finished
        assert "ValueError" in span.attributes["error"]
        # The stack unwound: the next span is a root, not a child of "boom".
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["boom", "after"]

    def test_exception_sets_status_type_and_message(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("the message")
        span = tracer.roots[0]
        assert span.failed
        assert span.status == "error"
        assert span.error_type == "ValueError"
        assert span.error_message == "the message"

    def test_clean_exit_status_ok(self):
        tracer = obs.Tracer()
        with tracer.span("fine"):
            pass
        span = tracer.roots[0]
        assert span.status == "ok"
        assert not span.failed
        assert span.error_type is None
        record = span.to_dict()
        assert record["status"] == "ok"
        assert "error_type" not in record


class TestTracerInjection:
    def test_default_is_a_noop(self):
        tracer = obs.get_tracer()
        assert tracer.enabled is False
        handle = tracer.span("anything", key="value")
        with handle as span:
            span.set(more="attrs")
        assert tracer.roots == ()
        # The null tracer hands back one shared handle: zero allocation.
        assert tracer.span("other") is handle

    def test_use_tracer_installs_and_restores(self):
        tracer = obs.Tracer()
        with obs.use(obs.Telemetry(tracer=tracer)) as installed:
            assert installed.tracer is tracer
            assert obs.get_tracer() is tracer
            with obs.get_tracer().span("traced"):
                pass
        assert obs.get_tracer().enabled is False
        assert tracer.roots[0].name == "traced"

    def test_clear_drops_spans(self):
        tracer = obs.Tracer()
        with tracer.span("one"):
            pass
        tracer.clear()
        assert tracer.roots == []


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        # Two instrument kinds; phases are timed by spans, so the
        # registry has no histogram kind and no instrument handles.
        registry = obs.MetricsRegistry()
        registry.inc("calls")
        registry.inc("calls", 2)
        registry.set_gauge("depth", 7.5)
        assert registry.snapshot() == {
            "counters": {"calls": 3}, "gauges": {"depth": 7.5},
        }
        for gone in ("observe", "histogram", "counter", "gauge", "state"):
            assert not hasattr(registry, gone)

    def test_counters_cannot_decrease(self):
        registry = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("x", -1)

    def test_snapshot_and_reset(self):
        registry = obs.MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.set_gauge("g", 1.0)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {"a": 1, "b": 1}, "gauges": {"g": 1.0}}
        assert list(snapshot["counters"]) == ["a", "b"]
        # A snapshot is a copy: later emissions do not reach it.
        registry.inc("a")
        assert snapshot["counters"]["a"] == 1
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}}

    def test_merge_sums_counters_and_overwrites_gauges(self):
        registry = obs.MetricsRegistry()
        registry.inc("calls", 2)
        registry.set_gauge("depth", 1.0)
        registry.merge({"counters": {"calls": 3, "new": 1}, "gauges": {"depth": 4.0}})
        assert registry.snapshot() == {
            "counters": {"calls": 5, "new": 1}, "gauges": {"depth": 4.0},
        }
        # A snapshot from an older writer may carry other keys; merge
        # reads only the two kinds.
        registry.merge({"counters": {}, "histograms": {"x": {"count": 1}}})
        assert registry.snapshot()["counters"] == {"calls": 5, "new": 1}

    def test_null_registry_discards_everything(self):
        registry = obs.get_metrics()
        assert registry.enabled is False
        registry.inc("calls")
        registry.set_gauge("depth", 2.0)
        registry.merge({"counters": {"calls": 1}, "gauges": {"depth": 1.0}})
        assert registry.snapshot() == {"counters": {}, "gauges": {}}

    def test_global_registry_is_reset_between_tests_a(self):
        # Paired with ..._b: whichever runs second sees a fresh registry.
        # The context is entered and never exited, so only the
        # conftest's obs.reset() can clear it; the module-level list
        # keeps the context manager alive so nothing else restores it.
        registry = obs.MetricsRegistry()
        leak = obs.use(obs.Telemetry(metrics=registry))
        _LEAKED.append(leak)
        leak.__enter__()
        registry.inc("leak-check")
        assert obs.get_metrics().snapshot()["counters"]["leak-check"] == 1

    def test_global_registry_is_reset_between_tests_b(self):
        assert obs.get_metrics().enabled is False
        assert obs.get_metrics().snapshot()["counters"] == {}


class TestThreadSafety:
    def test_concurrent_emissions_are_not_lost(self):
        import threading

        registry = obs.MetricsRegistry()
        per_thread, thread_count = 2000, 8

        def hammer():
            for i in range(per_thread):
                registry.inc("calls")
                registry.set_gauge("depth", float(i))

        threads = [threading.Thread(target=hammer) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = per_thread * thread_count
        assert registry.snapshot() == {
            "counters": {"calls": expected},
            "gauges": {"depth": float(per_thread - 1)},
        }

    def test_concurrent_instrument_creation_yields_one_instrument(self):
        import threading

        registry = obs.MetricsRegistry()
        barrier = threading.Barrier(8)

        def create(index):
            barrier.wait()
            registry.inc("shared")

        threads = [
            threading.Thread(target=create, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot()["counters"] == {"shared": 8}


def _unprovisionable_design():
    """Recoverable data, unrecoverable hardware: mirror survives an
    array failure, but the failed primary has no spare and the design
    has no recovery facility, so plan_recovery raises RecoveryError."""
    design = repro.StorageDesign("no-spare")
    design.add_level(
        PrimaryCopy(), store=midrange_disk_array(spare=SpareConfig.none())
    )
    design.add_level(
        BatchedAsyncMirror(),
        store=midrange_disk_array(
            name="mirror-array", location=REMOTE_SITE, spare=SpareConfig.none()
        ),
        transport=oc3_links(1),
    )
    return design


class TestProvenance:
    def evaluate_baseline(self):
        return evaluate(
            casestudy.baseline_design(),
            cello(),
            casestudy.array_failure_scenario(),
            casestudy.case_study_requirements(),
        )

    def test_attached_to_every_assessment(self):
        assessment = self.evaluate_baseline()
        provenance = assessment.provenance
        assert provenance is not None
        assert provenance.design_name == "baseline"
        assert provenance.scenario_scope == "array"
        assert provenance.recovery_source == "backup"
        assert provenance.recovery_source_level == 2
        assert provenance.recovery_failure is None
        assert provenance.dominant_penalty == "loss"
        assert provenance.validation_warnings  # the vaulting hold-window
        assert any("recovery source" in d for d in provenance.decisions)

    def test_scenario_scope_resolution_recorded(self):
        results = evaluate_scenarios(
            casestudy.baseline_design(),
            cello(),
            [casestudy.object_failure_scenario()],
            casestudy.case_study_requirements(),
        )
        provenance = next(iter(results.values())).provenance
        assert provenance.scenario_scope == "object"
        assert provenance.recovery_size is not None

    def test_recovery_failure_recorded_not_swallowed(self):
        registry = obs.MetricsRegistry()
        with obs.use(obs.Telemetry(metrics=registry)):
            assessment = evaluate(
                _unprovisionable_design(),
                cello(),
                repro.FailureScenario.array_failure("primary-array"),
                casestudy.case_study_requirements(),
            )
        assert assessment.recovery is None
        assert assessment.recovery_time == float("inf")
        provenance = assessment.provenance
        assert not provenance.total_loss
        assert "no surviving spare" in provenance.recovery_failure
        assert registry.snapshot()["counters"]["recovery.plan_failed"] == 1
        assert any("planning failed" in d for d in provenance.decisions)

    def test_phase_timings_only_when_tracing(self):
        assert self.evaluate_baseline().provenance.phase_ms == {}
        with obs.use(obs.Telemetry(tracer=obs.Tracer())):
            provenance = self.evaluate_baseline().provenance
        assert set(provenance.phase_ms) == {
            "validate", "demands", "utilization", "dataloss", "recovery", "cost",
        }

    def test_explain_covers_all_four_metrics(self):
        assessment = self.evaluate_baseline()
        text = assessment.explain()
        assert text == explain_assessment(assessment)
        for fragment in ("utilization =", "recovery time =", "data loss =", "cost ="):
            assert fragment in text

    def test_dict_round_trip_ignores_unknown_keys(self):
        provenance = self.evaluate_baseline().provenance
        data = provenance.to_dict()
        assert EvaluationProvenance.from_dict(data) == provenance
        data["from_the_future"] = {"nested": True}
        assert EvaluationProvenance.from_dict(data) == provenance


class TestTracedEvaluation:
    def test_span_tree_shape(self):
        tracer = obs.Tracer()
        with obs.use(obs.Telemetry(tracer=tracer)):
            evaluate(
                casestudy.baseline_design(),
                cello(),
                casestudy.array_failure_scenario(),
                casestudy.case_study_requirements(),
            )
        assert [root.name for root in tracer.roots] == ["evaluate"]
        names = [span.name for span, _d in tracer.walk()]
        for expected in (
            "validate", "demands", "utilization.compute", "assess",
            "recovery.plan", "cost.compute",
        ):
            assert expected in names
        assert all(span.finished for span, _d in tracer.walk())

    def test_metrics_emitted(self):
        registry, tracer = obs.MetricsRegistry(), obs.Tracer()
        with obs.use(obs.Telemetry(tracer=tracer, metrics=registry)):
            evaluate_scenarios(
                casestudy.baseline_design(),
                cello(),
                casestudy.case_study_scenarios(),
                casestudy.case_study_requirements(),
            )
        counters = registry.snapshot()["counters"]
        assert counters["evaluate.calls"] == 1
        assert counters["evaluate.scenarios"] == 3
        assert counters["recovery.plans"] == 3
        # Each planning call is timed once, by its span.
        plans = [span for span, _d in tracer.walk() if span.name == "recovery.plan"]
        assert len(plans) == 3 and all(span.finished for span in plans)


class TestExport:
    def make_tracer(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        with tracer.span("root", design="baseline"):
            clock.advance(0.25)
            with tracer.span("child"):
                clock.advance(0.5)
        return tracer

    def test_span_records_are_depth_first(self):
        records = span_records(self.make_tracer())
        assert [(r["name"], r["depth"], r["parent"]) for r in records] == [
            ("root", 0, None), ("child", 1, "root"),
        ]
        assert records[0]["duration_ms"] == pytest.approx(750.0)
        assert records[1]["start_ms"] == pytest.approx(250.0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self.make_tracer()
        registry = obs.MetricsRegistry()
        registry.inc("evaluate.calls", 2)
        registry.set_gauge("utilization.max_capacity", 0.5)
        path = str(tmp_path / "trace.jsonl")
        count = write_trace_jsonl(path, tracer=tracer, metrics=registry)
        records = read_trace_jsonl(path)
        assert len(records) == count == 4
        spans = [r for r in records if r["kind"] == "span"]
        assert [
            {k: v for k, v in r.items() if k != "kind"} for r in spans
        ] == span_records(tracer)
        by_kind = {(r["kind"], r["name"]): r for r in records}
        assert by_kind[("counter", "evaluate.calls")]["value"] == 2
        assert by_kind[("gauge", "utilization.max_capacity")]["value"] == 0.5

    def test_jsonl_to_file_object(self):
        buffer = io.StringIO()
        write_trace_jsonl(buffer, tracer=self.make_tracer())
        buffer.seek(0)
        assert [r["name"] for r in read_trace_jsonl(buffer)] == ["root", "child"]

    def test_metric_records_empty_registry(self):
        assert metric_records(obs.MetricsRegistry()) == []

    def test_errored_spans_tagged_in_jsonl(self, tmp_path):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("broken spec")
        with tracer.span("succeeds"):
            pass
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(path, tracer=tracer)
        records = {r["name"]: r for r in read_trace_jsonl(path)}
        assert records["fails"]["status"] == "error"
        assert records["fails"]["error_type"] == "ValueError"
        assert records["fails"]["error_message"] == "broken spec"
        assert records["succeeds"]["status"] == "ok"
        assert "error_type" not in records["succeeds"]


class TestObsReportEdgeCases:
    """The human reports under degenerate inputs (empty, single, error)."""

    def test_metrics_report_empty_snapshot(self):
        from repro.reporting.obs_report import metrics_report

        report = metrics_report(obs.MetricsRegistry())
        assert "(none recorded)" in report

    def test_span_tree_single_span(self):
        from repro.reporting.obs_report import span_tree_report

        tracer = obs.Tracer()
        with tracer.span("only"):
            pass
        report = span_tree_report(tracer)
        assert "only" in report
        assert "ms" in report

    def test_span_tree_empty(self):
        from repro.reporting.obs_report import span_tree_report

        assert "(no spans recorded)" in span_tree_report(obs.Tracer())

    def test_span_tree_flags_exception_exiting_span(self):
        from repro.reporting.obs_report import span_tree_report

        tracer = obs.Tracer()
        with pytest.raises(KeyError):
            with tracer.span("lookup"):
                raise KeyError("missing")
        report = span_tree_report(tracer)
        assert "ERROR KeyError" in report
        # The raw repr is not duplicated through the attribute channel.
        assert "[error=" not in report

    def test_profile_report_zero_spans(self):
        from repro.reporting.obs_report import profile_report

        assert "(no spans recorded)" in profile_report(obs.Tracer())
