"""Recovery options, workload headroom, and exposure profiles."""

import pytest

import repro
from repro import casestudy
from repro.core import recovery_options, time_optimal_option
from repro.core.demands import register_design_demands
from repro.design import max_supported_capacity, max_supported_scale
from repro.engine.keys import fingerprint
from repro.exceptions import DesignError, SimulationError
from repro.scenarios import FailureScenario
from repro.serialization import canonical_json
from repro.simulation import exposure_profile
from repro.techniques.facts import FactsTable
from repro.units import HOUR, MB, WEEK
from repro.workload.presets import cello


@pytest.fixture(scope="module")
def workload():
    return cello()


@pytest.fixture
def baseline():
    return casestudy.baseline_design()


@pytest.fixture
def demands(baseline, workload):
    return register_design_demands(baseline, workload, FactsTable())


class TestRecoveryOptions:
    def test_object_rollback_has_three_options(self, baseline, demands, workload):
        """A day-old object target can come from the mirror, the tape,
        or the vault — with strictly growing loss down the hierarchy."""
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        options = recovery_options(baseline, demands, scenario, workload)
        names = [o.source_name for o in options]
        assert names == ["split mirror", "backup", "remote vaulting"]
        losses = [o.data_loss for o in options]
        assert losses == sorted(losses)

    def test_first_option_matches_paper_rule(self, baseline, demands, workload):
        """The paper picks the closest level: options[0] must equal the
        evaluator's choice."""
        scenario = FailureScenario.array_failure("primary-array")
        options = recovery_options(baseline, demands, scenario, workload)
        paper_choice = repro.core.compute_data_loss(baseline, scenario)
        assert options[0].source_name == paper_choice.source_name
        assert options[0].data_loss == pytest.approx(paper_choice.data_loss)

    def test_time_optimal_object_restore_is_the_mirror(
        self, baseline, demands, workload
    ):
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        best = time_optimal_option(baseline, demands, scenario, workload)
        assert best.source_name == "split mirror"
        assert best.recovery_time < 1.0

    def test_vault_option_slower_but_available(self, baseline, demands, workload):
        scenario = FailureScenario.array_failure("primary-array")
        options = {
            o.source_name: o
            for o in recovery_options(baseline, demands, scenario, workload)
        }
        assert options["remote vaulting"].recovery_time > (
            options["backup"].recovery_time
        )

    def test_total_loss_gives_empty_options(self, baseline, demands, workload):
        scenario = FailureScenario.object_corruption(1 * MB, "20 yr")
        assert recovery_options(baseline, demands, scenario, workload) == []
        assert time_optimal_option(baseline, demands, scenario, workload) is None


class TestHeadroom:
    def test_baseline_has_large_bandwidth_headroom(self, workload):
        """2.4% array / 3.4% library bandwidth: ~29x rate headroom
        (the tape library's backup stream binds first... actually the
        backup bandwidth is capacity-driven, so the foreground stream
        and resilvering bound the scale)."""
        design = casestudy.baseline_design()
        scale = max_supported_scale(design, workload)
        assert scale > 5.0
        assert scale != float("inf")

    def test_capacity_headroom_is_tight(self, workload):
        """87.3% array capacity leaves under 15% dataset growth."""
        design = casestudy.baseline_design()
        growth = max_supported_capacity(design, workload)
        assert 1.0 < growth < 1.2

    def test_infeasible_start_rejected(self, workload):
        design = casestudy.baseline_design()
        oversized = workload.with_capacity(workload.data_capacity * 3)
        with pytest.raises(DesignError):
            max_supported_capacity(design, oversized)

    def test_search_leaves_design_unchanged(self, workload):
        design = casestudy.baseline_design()
        before = canonical_json(fingerprint(design))
        max_supported_scale(design, workload)
        max_supported_capacity(design, workload)
        assert canonical_json(fingerprint(design)) == before


class TestExposureProfile:
    @pytest.fixture(scope="class")
    def profile(self, workload):
        start = 40 * WEEK
        return exposure_profile(
            casestudy.baseline_design,
            FailureScenario.array_failure("primary-array"),
            level_index=2,          # tape backup out of service
            outage_start=start,
            outage_duration=2 * WEEK,
            horizon=320 * WEEK,
            probes=16,
        )

    def test_exposure_grows_during_outage(self, profile):
        assert profile.peak_extra_exposure >= 1 * WEEK

    def test_healthy_never_exceeds_degraded(self, profile):
        for point in profile.points:
            assert point.degraded_loss >= point.healthy_loss - 1e-6

    def test_exposure_recovers_after_service_restoration(self, profile):
        assert profile.recovery_probe() != float("inf")

    def test_probe_validation(self, workload):
        with pytest.raises(SimulationError):
            exposure_profile(
                casestudy.baseline_design,
                FailureScenario.array_failure("primary-array"),
                level_index=2, outage_start=0, outage_duration=WEEK,
                horizon=320 * WEEK, probes=1,
            )
        with pytest.raises(SimulationError):
            exposure_profile(
                casestudy.baseline_design,
                FailureScenario.array_failure("primary-array"),
                level_index=2, outage_start=0, outage_duration=0,
                horizon=320 * WEEK,
            )
