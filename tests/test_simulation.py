"""The DES substrate and the analytic-bound validation story."""

import pytest

from repro import casestudy
from repro.exceptions import SimulationError
from repro.scenarios import FailureScenario
from repro.simulation import (
    DependabilitySimulator,
    Event,
    RPStore,
    RetrievalPoint,
    SimulationEngine,
    adversarial_times,
    random_times,
    substream_rng,
    substream_seed,
    summarize_losses,
    sweep_times,
)
from repro.scenarios.locations import PRIMARY_SITE
from repro.units import DAY, HOUR, MB, WEEK


class TestEngine:
    def test_events_in_time_order(self):
        seen = []
        engine = SimulationEngine()
        engine.on("e", lambda eng, ev: seen.append((eng.now, ev.payload)))
        engine.schedule(5.0, Event("e", "late"))
        engine.schedule(1.0, Event("e", "early"))
        engine.run_to_completion()
        assert seen == [(1.0, "early"), (5.0, "late")]

    def test_simultaneous_events_stable(self):
        seen = []
        engine = SimulationEngine()
        engine.on("e", lambda eng, ev: seen.append(ev.payload))
        engine.schedule(1.0, Event("e", "first"))
        engine.schedule(1.0, Event("e", "second"))
        engine.run_to_completion()
        assert seen == ["first", "second"]

    def test_handlers_can_schedule(self):
        engine = SimulationEngine()

        def tick(eng, ev):
            if eng.now < 3:
                eng.schedule(eng.now + 1, Event("tick"))

        engine.on("tick", tick)
        engine.schedule(0.0, Event("tick"))
        engine.run_to_completion()
        assert engine.processed == 4

    def test_run_until_stops_before_later_events(self):
        seen = []
        engine = SimulationEngine()
        engine.on("e", lambda eng, ev: seen.append(eng.now))
        engine.schedule(1.0, Event("e"))
        engine.schedule(10.0, Event("e"))
        engine.run_until(5.0)
        assert seen == [1.0]
        assert engine.now == 5.0
        assert engine.pending == 1

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.on("e", lambda eng, ev: None)
        engine.schedule(5.0, Event("e"))
        engine.run_until(6.0)
        with pytest.raises(SimulationError):
            engine.schedule(1.0, Event("e"))

    def test_unhandled_event_kind_raises(self):
        engine = SimulationEngine()
        engine.schedule(0.0, Event("mystery"))
        with pytest.raises(SimulationError):
            engine.run_to_completion()


class TestRPStore:
    def make_point(self, snapshot, avail=None, expires=None, **kw):
        return RetrievalPoint(
            snapshot_time=snapshot,
            available_at=snapshot if avail is None else avail,
            expires_at=snapshot + 100 if expires is None else expires,
            **kw,
        )

    def test_usability_window(self):
        store = RPStore("lvl")
        point = self.make_point(10.0, avail=20.0, expires=50.0)
        store.add(point)
        assert not store.usable(point, 15.0)  # not yet available
        assert store.usable(point, 30.0)
        assert not store.usable(point, 50.0)  # expired

    def test_newest_usable_respects_target(self):
        store = RPStore("lvl")
        for t in (0.0, 10.0, 20.0):
            store.add(self.make_point(t))
        best = store.newest_usable_at_or_before(target_time=15.0, at_time=25.0)
        assert best.snapshot_time == 10.0

    def test_incremental_needs_live_base_full(self):
        store = RPStore("lvl")
        store.add(self.make_point(0.0, expires=30.0, is_full=True))
        incr = self.make_point(
            10.0, expires=100.0, is_full=False, base_full_snapshot=0.0
        )
        store.add(incr)
        assert store.usable(incr, 20.0)
        assert not store.usable(incr, 40.0)  # base full expired

    def test_out_of_order_add_rejected(self):
        store = RPStore("lvl")
        store.add(self.make_point(10.0))
        with pytest.raises(SimulationError):
            store.add(self.make_point(5.0))

    def test_invalid_point_rejected(self):
        with pytest.raises(SimulationError):
            RetrievalPoint(snapshot_time=10, available_at=5, expires_at=20)


@pytest.fixture(scope="module")
def baseline_sim():
    sim = DependabilitySimulator(casestudy.baseline_design(), horizon=320 * WEEK)
    sim.build()
    return sim


class TestValidationAgainstAnalyticModel:
    """The headline property: simulated loss <= analytic worst case,
    and adversarial injection makes the bound tight."""

    @pytest.mark.parametrize(
        "scenario_factory,level_index",
        [
            (lambda: FailureScenario.array_failure("primary-array"), 2),
            (lambda: FailureScenario.site_disaster(PRIMARY_SITE), 3),
            (lambda: FailureScenario.object_corruption(1 * MB, "24 hr"), 1),
        ],
    )
    def test_bound_dominates_sweep(self, baseline_sim, scenario_factory, level_index):
        scenario = scenario_factory()
        bound = baseline_sim.analytic_bound(scenario)
        start, end = baseline_sim.steady_state_window()
        stats = summarize_losses(
            baseline_sim.measure_losses(scenario, sweep_times(start, end, 300))
        )
        assert stats.total_loss_count == 0
        assert stats.within_bound(bound)

    def test_bound_dominates_random(self, baseline_sim):
        scenario = FailureScenario.array_failure("primary-array")
        bound = baseline_sim.analytic_bound(scenario)
        start, end = baseline_sim.steady_state_window()
        stats = summarize_losses(
            baseline_sim.measure_losses(
                scenario, random_times(start, end, 300, seed=42)
            )
        )
        assert stats.within_bound(bound)

    def test_adversarial_times_achieve_bound(self, baseline_sim):
        scenario = FailureScenario.array_failure("primary-array")
        bound = baseline_sim.analytic_bound(scenario)
        start, end = baseline_sim.steady_state_window()
        times = adversarial_times(baseline_sim, level_index=2, start=start, end=end)
        stats = summarize_losses(baseline_sim.measure_losses(scenario, times))
        assert stats.within_bound(bound)
        assert stats.tightness(bound) > 0.99

    def test_mean_loss_well_below_worst_case(self, baseline_sim):
        """The worst case is pessimistic on average — the reason the
        paper reports it separately from typical behaviour."""
        scenario = FailureScenario.array_failure("primary-array")
        start, end = baseline_sim.steady_state_window()
        stats = summarize_losses(
            baseline_sim.measure_losses(scenario, sweep_times(start, end, 300))
        )
        assert stats.mean_loss < 0.75 * baseline_sim.analytic_bound(scenario)

    def test_simulated_source_matches_analytic_choice(self, baseline_sim):
        scenario = FailureScenario.array_failure("primary-array")
        start, end = baseline_sim.steady_state_window()
        for sample in baseline_sim.measure_losses(
            scenario, sweep_times(start, end, 50)
        ):
            assert sample.source_level_index == 2  # tape backup


class TestDegradedMode:
    def test_disabled_level_increases_exposure(self):
        healthy = DependabilitySimulator(
            casestudy.baseline_design(), horizon=320 * WEEK
        )
        healthy.build()

        degraded = DependabilitySimulator(
            casestudy.baseline_design(), horizon=320 * WEEK
        )
        start, end = healthy.steady_state_window()
        outage_start = start + 2 * WEEK
        # The tape backup service is down for two weeks.
        degraded.disable_level(2, outage_start, outage_start + 2 * WEEK)
        degraded.build()

        scenario = FailureScenario.array_failure("primary-array")
        probe = outage_start + 2 * WEEK  # failure right at service restoration
        healthy_loss = healthy.measure_loss(scenario, probe).data_loss
        degraded_loss = degraded.measure_loss(scenario, probe).data_loss
        assert degraded_loss > healthy_loss
        assert degraded_loss >= 2 * WEEK  # missed two weeks of backups

    def test_disable_after_build_rejected(self, baseline_sim):
        with pytest.raises(SimulationError):
            baseline_sim.disable_level(2, 0, WEEK)

    def test_disable_primary_rejected(self):
        design = casestudy.baseline_design()
        sim = DependabilitySimulator(design, horizon=320 * WEEK)
        with pytest.raises(SimulationError):
            sim.disable_level(0, 0, WEEK)


class TestSimulatorGuards:
    def test_short_horizon_rejected(self):
        design = casestudy.baseline_design()
        sim = DependabilitySimulator(design, horizon=1 * WEEK)
        with pytest.raises(SimulationError):
            sim.build()

    def test_failure_time_outside_horizon_rejected(self, baseline_sim):
        scenario = FailureScenario.array_failure("primary-array")
        with pytest.raises(SimulationError):
            baseline_sim.measure_loss(scenario, baseline_sim.horizon + 1)

    def test_injection_helpers_validate(self):
        with pytest.raises(SimulationError):
            sweep_times(10, 0, 5)
        with pytest.raises(SimulationError):
            sweep_times(0, 10, 0)
        with pytest.raises(SimulationError):
            random_times(0, 10, 0)

    def test_sweep_single_point(self):
        assert sweep_times(5, 10, 1) == [5]

    def test_summarize_empty_rejected(self):
        with pytest.raises(SimulationError):
            summarize_losses([])


class TestSubstreams:
    """The per-scenario substream contract behind parallel campaigns.

    One root seed plus a stream label must yield a sequence that does
    not depend on when, in what order, or in which worker it is drawn —
    the regression guard for the risk layer's serial == parallel
    byte-identity.
    """

    def test_substream_seed_is_deterministic(self):
        assert substream_seed(7, "risk:arr") == substream_seed(7, "risk:arr")

    def test_substreams_are_distinct(self):
        seeds = {
            substream_seed(7, f"risk:m-{i:03d}") for i in range(100)
        }
        assert len(seeds) == 100
        assert substream_seed(7, "risk:arr") != substream_seed(8, "risk:arr")

    def test_substream_rng_reproduces(self):
        a = substream_rng(7, "risk:arr").random(8)
        b = substream_rng(7, "risk:arr").random(8)
        assert list(a) == list(b)

    def test_random_times_stream_is_draw_order_independent(self):
        # Drawing stream B alone must equal drawing it after A: each
        # stream owns its generator, so sharding members across workers
        # (any order, any partition) reproduces the serial sequence.
        first_a = random_times(0, WEEK, 5, seed=7, stream="a")
        first_b = random_times(0, WEEK, 5, seed=7, stream="b")
        alone_b = random_times(0, WEEK, 5, seed=7, stream="b")
        assert first_b == alone_b
        assert first_a != first_b

    def test_random_times_without_stream_keeps_legacy_seeding(self):
        legacy = random_times(0, WEEK, 5, seed=42)
        import numpy as np

        rng = np.random.default_rng(42)
        assert legacy == sorted(rng.uniform(0, WEEK, 5))

    def test_stream_times_stay_in_window(self):
        times = random_times(3 * DAY, 2 * WEEK, 64, seed=0, stream="w")
        assert all(3 * DAY <= t <= 2 * WEEK for t in times)
