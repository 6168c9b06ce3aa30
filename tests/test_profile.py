"""Span profiles: aggregation, ranking, and the profile report."""

import pytest

from repro import casestudy, obs
from repro.core.evaluate import evaluate
from repro.obs.profile import build_profile
from repro.reporting.obs_report import profile_report
from repro.workload.presets import cello


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def make_tracer():
    """Two roots; repeated names; nested self-time structure.

    root-a (3.0s total: 1.0 self + step 1.5 + step 0.5)
    root-b (1.0s, all self)
    """
    clock = FakeClock()
    tracer = obs.Tracer(clock=clock)
    with tracer.span("root-a"):
        clock.advance(1.0)
        with tracer.span("step"):
            clock.advance(1.5)
        with tracer.span("step"):
            clock.advance(0.5)
    with tracer.span("root-b"):
        clock.advance(1.0)
    return tracer


class TestBuildProfile:
    def test_per_name_aggregation(self):
        profile = build_profile(make_tracer())
        assert profile.span_count == 4
        assert profile.total_ms == pytest.approx(4000.0)
        step = profile.entry("step")
        assert step.calls == 2
        assert step.cum_ms == pytest.approx(2000.0)
        assert step.self_ms == pytest.approx(2000.0)
        assert step.mean_ms == pytest.approx(1000.0)

    def test_self_time_excludes_children(self):
        profile = build_profile(make_tracer())
        root_a = profile.entry("root-a")
        assert root_a.cum_ms == pytest.approx(3000.0)
        assert root_a.self_ms == pytest.approx(1000.0)

    def test_ranking_is_by_self_time(self):
        profile = build_profile(make_tracer())
        assert [e.name for e in profile.entries] == ["step", "root-a", "root-b"]
        assert [e.name for e in profile.hot(1)] == ["step"]

    def test_merged_call_tree(self):
        profile = build_profile(make_tracer())
        assert [node.name for node in profile.tree] == ["root-a", "root-b"]
        root_a = profile.tree[0]
        # Both "step" spans fold into one path node.
        assert len(root_a.children) == 1
        step = root_a.children[0]
        assert step.calls == 2
        assert step.cum_ms == pytest.approx(2000.0)
        assert [(n.name, d) for n, d in root_a.walk()] == [
            ("root-a", 0), ("step", 1),
        ]

    def test_unknown_entry_raises(self):
        with pytest.raises(KeyError):
            build_profile(make_tracer()).entry("nope")

    def test_errors_counted(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        profile = build_profile(tracer)
        assert profile.entry("boom").errors == 1
        assert profile.tree[0].errors == 1

    def test_empty_tracer(self):
        profile = build_profile(obs.Tracer())
        assert profile.span_count == 0
        assert profile.entries == ()
        assert profile.tree == ()
        assert profile.total_ms == 0.0

    def test_open_spans_contribute_calls_but_no_time(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        span_cm = tracer.span("open-op")
        span_cm.__enter__()
        clock.advance(1.0)
        profile = build_profile(tracer)
        entry = profile.entry("open-op")
        assert entry.calls == 1
        assert entry.cum_ms == 0.0
        assert entry.self_ms == 0.0

    def test_real_evaluation_profile(self):
        tracer = obs.Tracer()
        with obs.use(obs.Telemetry(tracer=tracer)):
            evaluate(
                casestudy.baseline_design(),
                cello(),
                casestudy.array_failure_scenario(),
                casestudy.case_study_requirements(),
            )
        profile = build_profile(tracer)
        names = [entry.name for entry in profile.entries]
        assert "evaluate" in names
        assert "recovery.plan" in names
        evaluate_entry = profile.entry("evaluate")
        assert evaluate_entry.calls == 1
        # Children are nested inside evaluate, so self < cumulative.
        assert evaluate_entry.self_ms < evaluate_entry.cum_ms


class TestProfileReport:
    def test_contains_counts_and_times(self):
        report = profile_report(make_tracer())
        assert "Span profile" in report
        assert "calls" in report and "cum ms" in report and "self ms" in report
        assert "Hot call paths" in report
        # The merged tree indents "step" under "root-a" with x2 calls.
        assert "x2" in report
        # Shares are against the whole run: root-a is 3 of 4 seconds.
        assert "75.0%" in report

    def test_accepts_prebuilt_profile(self):
        tracer = make_tracer()
        assert profile_report(build_profile(tracer)) == profile_report(tracer)

    def test_zero_spans(self):
        report = profile_report(obs.Tracer())
        assert "(no spans recorded)" in report

    def test_null_tracer(self):
        report = profile_report(obs.get_tracer())
        assert "(no spans recorded)" in report

    def test_errors_flagged(self):
        tracer = obs.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("explodes"):
                raise RuntimeError("bad")
        report = profile_report(tracer)
        assert "explodes" in report
        assert "error" in report
