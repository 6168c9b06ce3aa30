"""Cascaded mirroring: sync to a bunker site, async onward to a remote.

A classic metro/geo topology composed purely from existing pieces:
level 1 mirrors synchronously to a bunker array in another building,
and level 2 mirrors batched-asynchronously *from the bunker* to a
distant region.  Exercises mirror-from-mirror composition (the parent
of a mirror level being another mirror) across all three failure
granularities.
"""

import pytest

import repro
from repro.core.demands import register_design_demands
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.scenarios import FailureScenario, Location
from repro.techniques.facts import FactsTable
from repro.units import HOUR, MINUTE
from repro.workload.presets import cello

MAIN = Location(region="r1", site="metro", building="hq")
BUNKER = Location(region="r1", site="metro", building="bunker")
REMOTE = Location(region="r2", site="dr")


@pytest.fixture
def cascaded_design():
    design = repro.StorageDesign(
        "cascaded", recovery_facility=repro.SpareConfig.shared("9 hr", 0.2)
    )
    design.add_level(
        repro.PrimaryCopy(),
        store=midrange_disk_array(
            location=MAIN, spare=repro.SpareConfig.dedicated("60 s", 1.0)
        ),
    )
    design.add_level(
        repro.SyncMirror(name="bunker mirror"),
        store=midrange_disk_array(
            name="bunker-array", location=BUNKER, spare=repro.SpareConfig.none()
        ),
        transport=oc3_links(10, name="metro-links", location=MAIN),
    )
    design.add_level(
        repro.BatchedAsyncMirror("5 min", name="geo mirror"),
        store=midrange_disk_array(
            name="remote-array", location=REMOTE, spare=repro.SpareConfig.none()
        ),
        transport=oc3_links(1, name="geo-link", location=BUNKER),
    )
    return design


@pytest.fixture
def workload():
    return cello()


@pytest.fixture
def requirements():
    return repro.BusinessRequirements.per_hour(50_000, 50_000)


class TestCascadedTopology:
    def test_geo_mirror_feeds_from_bunker(self, cascaded_design):
        assert cascaded_design.level(2).parent_index == 1

    def test_demands_land_on_bunker_and_links(self, cascaded_design, workload):
        demands = register_design_demands(cascaded_design, workload, FactsTable())
        geo_link = cascaded_design.level(2).transport
        # The geo hop carries only the coalesced unique updates.
        assert demands[geo_link][0].bandwidth == pytest.approx(
            workload.unique_bytes(5 * MINUTE) / (5 * MINUTE)
        )
        metro_link = cascaded_design.level(1).transport
        # The sync hop must carry the raw burst peak.
        assert demands[metro_link][0].bandwidth == pytest.approx(
            workload.peak_update_rate
        )

    def test_array_failure_recovers_from_bunker_losslessly(
        self, cascaded_design, workload, requirements
    ):
        result = repro.evaluate(
            cascaded_design, workload,
            FailureScenario.array_failure("primary-array"), requirements,
        )
        assert result.data_loss.source_name == "bunker mirror"
        assert result.recent_data_loss == 0.0

    def test_building_failure_also_uses_bunker(
        self, cascaded_design, workload, requirements
    ):
        result = repro.evaluate(
            cascaded_design, workload,
            FailureScenario.building_disaster(MAIN), requirements,
        )
        assert result.data_loss.source_name == "bunker mirror"
        assert result.recent_data_loss == 0.0

    def test_site_disaster_falls_to_geo_mirror(
        self, cascaded_design, workload, requirements
    ):
        """The metro site (hq + bunker) is gone: the geo mirror serves,
        losing one batch window plus its propagation — minutes, with the
        bunker hop contributing no extra lag (sync adds none)."""
        result = repro.evaluate(
            cascaded_design, workload,
            FailureScenario.site_disaster(MAIN), requirements,
        )
        assert result.data_loss.source_name == "geo mirror"
        assert result.recent_data_loss == pytest.approx(10 * MINUTE)
        # Recovery streams back over the single geo link after the 9 h
        # facility provisioning: tens of hours.
        assert result.recovery_time > 9 * HOUR

    def test_region_disaster_is_survivable(self, cascaded_design, workload, requirements):
        result = repro.evaluate(
            cascaded_design, workload,
            FailureScenario.region_disaster(MAIN), requirements,
        )
        assert result.data_loss.source_name == "geo mirror"

    def test_dependability_ordering_across_scopes(
        self, cascaded_design, workload, requirements
    ):
        """Wider scopes cannot recover faster or lose less."""
        results = repro.evaluate_scenarios(
            cascaded_design, workload,
            [
                FailureScenario.array_failure("primary-array"),
                FailureScenario.building_disaster(MAIN),
                FailureScenario.site_disaster(MAIN),
            ],
            requirements,
        )
        times = [a.recovery_time for a in results.values()]
        losses = [a.recent_data_loss for a in results.values()]
        assert times == sorted(times)
        assert losses == sorted(losses)
