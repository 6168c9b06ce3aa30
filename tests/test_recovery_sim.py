"""Event-level recovery simulation under bandwidth contention."""

import pytest

from repro import casestudy
from repro.core.demands import register_design_demands
from repro.core.recovery import plan_recovery
from repro.exceptions import SimulationError
from repro.scenarios import FailureScenario
from repro.simulation import RecoverySimulator, TransferSpec
from repro.techniques.facts import FactsTable
from repro.units import GB, HOUR, MB
from repro.workload.presets import cello


def make_spec(label="t", ready=0.0, size=100 * MB, rate=10 * MB, devices=("d",)):
    return TransferSpec(
        label=label, ready_at=ready, size=size, nominal_rate=rate,
        devices=devices,
    )


class TestProcessorSharing:
    def test_single_transfer_runs_at_nominal(self):
        sim = RecoverySimulator({"d": 100 * MB})
        result = sim.simulate([make_spec(rate=10 * MB)])[0]
        assert result.finish_time == pytest.approx(10.0)

    def test_device_limit_caps_rate(self):
        sim = RecoverySimulator({"d": 5 * MB})
        result = sim.simulate([make_spec(rate=10 * MB)])[0]
        assert result.finish_time == pytest.approx(20.0)

    def test_two_transfers_share_a_device(self):
        sim = RecoverySimulator({"d": 10 * MB})
        results = sim.simulate(
            [
                make_spec(label="a", rate=100 * MB),
                make_spec(label="b", rate=100 * MB),
            ]
        )
        # Equal shares: both finish at 2x the solo time.
        for result in results:
            assert result.finish_time == pytest.approx(20.0)

    def test_disjoint_devices_run_in_parallel(self):
        sim = RecoverySimulator({"d1": 10 * MB, "d2": 10 * MB})
        results = sim.simulate(
            [
                make_spec(label="a", devices=("d1",), rate=100 * MB),
                make_spec(label="b", devices=("d2",), rate=100 * MB),
            ]
        )
        for result in results:
            assert result.finish_time == pytest.approx(10.0)

    def test_departure_frees_bandwidth(self):
        sim = RecoverySimulator({"d": 10 * MB})
        results = {
            r.plan_label: r
            for r in sim.simulate(
                [
                    make_spec(label="short", size=50 * MB, rate=100 * MB),
                    make_spec(label="long", size=150 * MB, rate=100 * MB),
                ]
            )
        }
        # Shared until "short" finishes at t=10 (50 MB at 5 MB/s each);
        # "long" then has 100 MB left at the full 10 MB/s: t=20.
        assert results["short"].finish_time == pytest.approx(10.0)
        assert results["long"].finish_time == pytest.approx(20.0)

    def test_late_arrival_waits_for_ready(self):
        sim = RecoverySimulator({"d": 10 * MB})
        results = {
            r.plan_label: r
            for r in sim.simulate(
                [make_spec(label="late", ready=100.0, rate=100 * MB)]
            )
        }
        assert results["late"].transfer_records[0][1] == pytest.approx(100.0)

    def test_background_load_slows_recovery(self):
        busy = RecoverySimulator(
            {"d": 10 * MB}, background_demands={"d": 5 * MB},
            background_load=1.0,
        )
        idle = RecoverySimulator(
            {"d": 10 * MB}, background_demands={"d": 5 * MB},
            background_load=0.0,
        )
        spec = make_spec(rate=100 * MB)
        assert (
            busy.simulate([spec])[0].finish_time
            > idle.simulate([spec])[0].finish_time
        )

    def test_starved_transfer_raises(self):
        sim = RecoverySimulator(
            {"d": 5 * MB}, background_demands={"d": 5 * MB},
            background_load=1.0,
        )
        with pytest.raises(SimulationError):
            sim.simulate([make_spec()])

    def test_unknown_device_rejected(self):
        sim = RecoverySimulator({"d": 5 * MB})
        with pytest.raises(SimulationError):
            sim.simulate([make_spec(devices=("ghost",))])

    def test_no_transfers_rejected(self):
        with pytest.raises(SimulationError):
            RecoverySimulator({"d": 1.0}).simulate([])

    def test_bad_background_load_rejected(self):
        with pytest.raises(SimulationError):
            RecoverySimulator({"d": 1.0}, background_load=1.5)


class TestAgainstAnalyticPlan:
    """With background_load=1.0 and one recovery, the simulation must
    reproduce the analytic recovery time exactly."""

    @pytest.fixture
    def baseline_setup(self):
        workload = cello()
        design = casestudy.baseline_design()
        ledger = register_design_demands(design, workload, FactsTable())
        plan = plan_recovery(
            design, ledger, FailureScenario.array_failure("primary-array"), workload
        )
        devices = {d.name: d for d in design.devices()}
        # The tape library is only ever a *source* in this plan, so its
        # recovery read efficiency folds into its effective envelope.
        bandwidths = {
            name: dev.max_bandwidth * dev.recovery_read_efficiency
            for name, dev in devices.items()
            if dev.max_bandwidth != float("inf")
        }
        demands = {
            name: dev.bandwidth_demand(ledger[dev]) * dev.recovery_read_efficiency
            for name, dev in devices.items()
            if dev.max_bandwidth != float("inf")
        }
        return plan, bandwidths, demands

    def test_matches_analytic_recovery_time(self, baseline_setup):
        plan, bandwidths, demands = baseline_setup
        sim = RecoverySimulator(bandwidths, demands, background_load=1.0)
        transfers = RecoverySimulator.transfers_from_plan(
            plan, devices_per_transfer=[("tape-library", "primary-array")]
        )
        result = sim.simulate(transfers)[0]
        assert result.finish_time == pytest.approx(plan.recovery_time, rel=1e-6)

    def test_suspending_backup_speeds_recovery(self, baseline_setup):
        plan, bandwidths, demands = baseline_setup
        transfers = RecoverySimulator.transfers_from_plan(
            plan, devices_per_transfer=[("tape-library", "primary-array")]
        )
        busy = RecoverySimulator(bandwidths, demands, background_load=1.0)
        quiet = RecoverySimulator(bandwidths, demands, background_load=0.0)
        assert (
            quiet.simulate(transfers)[0].finish_time
            < busy.simulate(transfers)[0].finish_time
        )

    def test_concurrent_restores_slow_each_other(self, baseline_setup):
        plan, bandwidths, demands = baseline_setup
        sim = RecoverySimulator(bandwidths, demands, background_load=1.0)
        solo = sim.simulate(
            RecoverySimulator.transfers_from_plan(
                plan, [("tape-library", "primary-array")], label="solo"
            )
        )[0]
        pair = sim.simulate(
            RecoverySimulator.transfers_from_plan(
                plan, [("tape-library", "primary-array")], label="a"
            )
            + RecoverySimulator.transfers_from_plan(
                plan, [("tape-library", "primary-array")], label="b"
            )
        )
        for result in pair:
            assert result.finish_time > solo.finish_time

    def test_transfer_count_mismatch_rejected(self, baseline_setup):
        plan, _bandwidths, _background = baseline_setup
        with pytest.raises(SimulationError):
            RecoverySimulator.transfers_from_plan(plan, [])
