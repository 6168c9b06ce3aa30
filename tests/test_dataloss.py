"""Recent data loss and recovery-source selection (sections 3.3.2-3.3.3)."""

import importlib

import pytest

from repro import casestudy
from repro.core import StorageDesign, compute_data_loss, find_recovery_source
from repro.core import dataloss
from repro.core.dataloss import level_range
from repro.core.evaluate import evaluate, evaluate_scenarios
from repro.design import DesignSpace, candidate_designs
from repro.devices import SpareConfig
from repro.devices.base import Device
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.engine.keys import result_digest
from repro.exceptions import RecoveryError
from repro.scenarios import FailureScenario
from repro.scenarios.locations import PRIMARY_SITE, REMOTE_SITE
from repro.techniques import ErasureCodedArchive, PrimaryCopy, SyncMirror
from repro.units import DAY, GB, HOUR, MB, WEEK, YEAR
from repro.workload.presets import cello

# The module, not the ``repro.core.evaluate`` function re-exported by
# the package.
evaluate_module = importlib.import_module("repro.core.evaluate")


@pytest.fixture
def baseline():
    return casestudy.baseline_design()


class TestLevelRanges:
    def test_split_mirror_range(self, baseline):
        rng = level_range(baseline, baseline.level(1))
        assert rng.newest_age == pytest.approx(12 * HOUR)
        assert rng.oldest_age == pytest.approx(36 * HOUR)

    def test_backup_range(self, baseline):
        rng = level_range(baseline, baseline.level(2))
        # Newest: accW + holdW + propW = 168 + 1 + 48 = 217 h.
        assert rng.newest_age == pytest.approx(217 * HOUR)
        # Oldest: (retCnt-1) * cyclePer + holdW + propW = 3 wk + 49 h.
        assert rng.oldest_age == pytest.approx(3 * WEEK + 49 * HOUR)

    def test_vault_range(self, baseline):
        rng = level_range(baseline, baseline.level(3))
        # Newest: upstream (49 h) + vault lag (4 wk + 4 wk + 12 h + 24 h).
        assert rng.newest_age == pytest.approx(1429 * HOUR)
        # Oldest reaches back ~3 years.
        assert rng.oldest_age > 2.9 * YEAR

    def test_ranges_nest_with_depth(self, baseline):
        """Slower levels reach further back AND lag further behind."""
        r1 = level_range(baseline, baseline.level(1))
        r2 = level_range(baseline, baseline.level(2))
        r3 = level_range(baseline, baseline.level(3))
        assert r1.newest_age <= r2.newest_age <= r3.newest_age
        assert r1.oldest_age <= r2.oldest_age <= r3.oldest_age


class TestTable6DataLoss:
    def test_object_rollback_from_split_mirror(self, baseline):
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "split mirror"
        assert result.data_loss == pytest.approx(12 * HOUR)

    def test_array_failure_from_backup(self, baseline):
        result = compute_data_loss(
            baseline, FailureScenario.array_failure("primary-array")
        )
        assert result.source_name == "backup"
        assert result.data_loss == pytest.approx(217 * HOUR)

    def test_site_failure_from_vault(self, baseline):
        result = compute_data_loss(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE)
        )
        assert result.source_name == "remote vaulting"
        assert result.data_loss == pytest.approx(1429 * HOUR)


class TestEdgeCases:
    def test_target_beyond_all_retention_is_total_loss(self, baseline):
        # Ask for a version from ten years ago.
        scenario = FailureScenario.object_corruption(1 * MB, 10 * YEAR)
        result = compute_data_loss(baseline, scenario)
        assert result.total_loss
        assert result.data_loss == float("inf")
        with pytest.raises(RecoveryError):
            compute_data_loss(baseline, scenario, allow_total_loss=False)

    def test_old_target_skips_expired_levels(self, baseline):
        # Ten weeks back: the mirrors (2 d) and backups (4 wk) have
        # expired; only the vault still holds it.
        scenario = FailureScenario.object_corruption(1 * MB, 10 * WEEK)
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "remote vaulting"
        # In-range: loss is one vault RP spacing.
        assert result.data_loss == pytest.approx(4 * WEEK)

    def test_mid_range_target_uses_backup_spacing(self, baseline):
        # Two weeks back: mirrors expired, backup range covers it.
        scenario = FailureScenario.object_corruption(1 * MB, 2 * WEEK)
        result = compute_data_loss(baseline, scenario)
        assert result.source_name == "backup"
        assert result.data_loss == pytest.approx(1 * WEEK)

    def test_sync_mirror_zero_loss(self):
        """A surviving synchronous mirror recovers 'now' losslessly."""
        design = StorageDesign("sync", recovery_facility=SpareConfig.shared())
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            SyncMirror(),
            store=midrange_disk_array(name="remote", location=REMOTE_SITE),
            transport=oc3_links(10),
        )
        result = compute_data_loss(
            design, FailureScenario.array_failure("primary-array")
        )
        assert result.data_loss == 0.0

    def test_sync_mirror_cannot_roll_back(self):
        """A mirror holds only 'now': rollback targets are unreachable."""
        design = StorageDesign("sync", recovery_facility=SpareConfig.shared())
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            SyncMirror(),
            store=midrange_disk_array(name="remote", location=REMOTE_SITE),
            transport=oc3_links(10),
        )
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        result = compute_data_loss(design, scenario)
        assert result.total_loss

    def test_ranges_reported_for_survivors(self, baseline):
        result = find_recovery_source(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE)
        )
        assert len(result.ranges) == 1  # only the vault survives
        assert result.ranges[0].technique_name == "remote vaulting"


def _sync_mirror_design():
    design = StorageDesign("sync", recovery_facility=SpareConfig.shared())
    design.add_level(PrimaryCopy(), store=midrange_disk_array())
    design.add_level(
        SyncMirror(),
        store=midrange_disk_array(name="remote", location=REMOTE_SITE),
        transport=oc3_links(10),
    )
    return design


def _erasure_design():
    design = StorageDesign(
        "erasure", recovery_facility=SpareConfig.shared("9 hr", 0.2)
    )
    design.add_level(
        PrimaryCopy(),
        store=midrange_disk_array(spare=SpareConfig.dedicated("60 s", 1.0)),
    )
    design.add_level(
        ErasureCodedArchive(4, 6, "12 hr", "6 hr", retention_count=8),
        store=Device(
            "fragment-store",
            max_capacity=100_000 * GB,
            max_bandwidth=float("inf"),
            location=REMOTE_SITE,
        ),
        transport=oc3_links(2),
    )
    return design


def _branching_design():
    """A mirror branching off the primary beside the tape chain."""
    return candidate_designs(DesignSpace(), include_hybrids=True)[
        "split-mirror + asyncB-1link + weekly-full + 4wk-vault"
    ]()


#: Fresh-design factories covering linear, branching, mirrored, erasure
#: and derived hierarchies.
DESIGNS = {
    "baseline": casestudy.baseline_design,
    "branching": _branching_design,
    "sync mirror": _sync_mirror_design,
    "async mirror": casestudy.async_batch_mirror_design,
    "erasure": _erasure_design,
    "without backup": lambda: casestudy.baseline_design().without_level(2),
}


def _scenarios(design):
    """The case study's scenarios, a total loss, and the failure of each
    device holding a secondary level away from the primary array."""
    primary = design.primary_level.store
    stores = {
        level.store.name: level.store
        for level in design.secondary_levels()
        if level.store is not primary
    }
    return (
        casestudy.case_study_scenarios()
        + [FailureScenario.object_corruption(1 * MB, "10 yr")]
        + [FailureScenario.array_failure(name) for name in stores]
    )


class TestSharedLevelTable:
    """``evaluate_scenarios`` builds each design's level table and
    outlays once and every scenario reads them."""

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_ranges_and_outlays_computed_once_per_call(self, monkeypatch, count):
        calls = {"level_range": 0, "compute_outlays": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            dataloss, "level_range", counted("level_range", dataloss.level_range)
        )
        monkeypatch.setattr(
            evaluate_module,
            "compute_outlays",
            counted("compute_outlays", evaluate_module.compute_outlays),
        )
        design = casestudy.baseline_design()
        results = evaluate_scenarios(
            design,
            cello(),
            _scenarios(design)[:count],
            casestudy.case_study_requirements(),
        )
        assert len(results) == count
        assert calls == {
            "level_range": len(design.secondary_levels()),
            "compute_outlays": 1,
        }

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_shared_table_matches_fresh_evaluate(self, name):
        factory = DESIGNS[name]
        workload = cello()
        requirements = casestudy.case_study_requirements()
        design = factory()
        scenarios = _scenarios(design)
        shared = evaluate_scenarios(design, workload, scenarios, requirements)
        assert any(a.data_loss.total_loss for a in shared.values())
        for scenario in scenarios:
            label = scenario.describe()
            fresh = evaluate(factory(), workload, scenario, requirements)
            assert result_digest({label: shared[label]}) == result_digest(
                {label: fresh}
            )

    def test_table_ranges_only_levels_a_scenario_reaches(self, baseline):
        table = dataloss.LevelTable(baseline)
        site = FailureScenario.site_disaster(PRIMARY_SITE)
        result = find_recovery_source(baseline, site, table)
        assert sorted(table) == [3]  # only the vault survives
        assert table[3].rp_range == result.ranges[0]
        assert table[3].rp_range == level_range(baseline, baseline.level(3))
        array = FailureScenario.array_failure("primary-array")
        assert find_recovery_source(baseline, array, table) == (
            find_recovery_source(baseline, array)
        )
        assert sorted(table) == [2, 3]
