"""The erasure-coded archive technique (extensibility demonstration)."""

import pytest

import repro
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.core.demands import DemandLedger
from repro.devices.base import Device
from repro.exceptions import PolicyError
from repro.scenarios.locations import REMOTE_SITE
from repro.techniques import ErasureCodedArchive
from repro.units import GB, HOUR
from repro.workload.presets import cello


@pytest.fixture
def archive():
    return ErasureCodedArchive(
        data_fragments=4,
        total_fragments=6,
        accumulation_window="12 hr",
        propagation_window="6 hr",
        retention_count=8,
    )


class TestConstruction:
    def test_stretch_factor(self, archive):
        assert archive.stretch_factor == pytest.approx(1.5)
        assert archive.tolerated_fragment_losses == 2

    def test_no_redundancy_rejected(self):
        with pytest.raises(PolicyError):
            ErasureCodedArchive(4, 4, "12 hr", "6 hr")

    def test_zero_data_fragments_rejected(self):
        with pytest.raises(PolicyError):
            ErasureCodedArchive(0, 4, "12 hr", "6 hr")

    def test_implausible_stretch_rejected_by_validate(self):
        archive = ErasureCodedArchive(1, 20, "12 hr", "6 hr")
        with pytest.raises(PolicyError):
            archive.validate(cello())


class TestTimeline:
    def test_worst_lag_follows_standard_cycle(self, archive):
        # accW + holdW + propW = 12 + 0 + 6 h.
        assert archive.worst_lag() == pytest.approx(18 * HOUR)

    def test_retention_span(self, archive):
        assert archive.retention_span() == pytest.approx(7 * 12 * HOUR)


class TestDemands:
    def test_capacity_is_stretched(self, archive):
        workload = cello()
        store = Device("fragment-store", max_capacity=float("inf"),
                       max_bandwidth=float("inf"))
        demand = DemandLedger(archive.demands(workload, store=store))[store][0]
        base = workload.data_capacity + 8 * workload.unique_bytes(12 * HOUR)
        assert demand.capacity == pytest.approx(1.5 * base)

    def test_spread_bandwidth_on_transport(self, archive):
        workload = cello()
        store = Device("fragment-store", max_capacity=float("inf"),
                       max_bandwidth=float("inf"))
        link = oc3_links(2)
        demands = DemandLedger(archive.demands(workload, store=store, transport=link))
        expected = 1.5 * workload.unique_bytes(12 * HOUR) / (6 * HOUR)
        assert demands[link][0].bandwidth == pytest.approx(expected)

    def test_source_reads_unstretched(self, archive):
        workload = cello()
        store = Device("fragment-store", max_capacity=float("inf"),
                       max_bandwidth=float("inf"))
        source = midrange_disk_array()
        demands = DemandLedger(
            archive.demands(workload, store=store, source_store=source)
        )
        assert demands[source][0].bandwidth == pytest.approx(
            workload.unique_bytes(12 * HOUR) / (6 * HOUR)
        )

    def test_recovery_size_is_logical(self, archive):
        workload = cello()
        assert archive.recovery_size(workload, workload.data_capacity) == (
            workload.data_capacity
        )


class TestEndToEnd:
    def test_composes_into_a_design(self):
        """The whole point: a new technique drops into the framework."""
        workload = cello()
        array = midrange_disk_array(spare=repro.SpareConfig.dedicated("60 s", 1.0))
        fragment_store = Device(
            "fragment-store",
            max_capacity=100_000 * GB,
            max_bandwidth=float("inf"),
            location=REMOTE_SITE,
        )
        design = repro.StorageDesign(
            "erasure-protected",
            recovery_facility=repro.SpareConfig.shared("9 hr", 0.2),
        )
        design.add_level(repro.PrimaryCopy(), store=array)
        design.add_level(
            ErasureCodedArchive(4, 6, "12 hr", "6 hr", retention_count=8),
            store=fragment_store,
            transport=oc3_links(2),
        )
        result = repro.evaluate(
            design,
            workload,
            repro.FailureScenario.array_failure("primary-array"),
            repro.BusinessRequirements.per_hour(50_000, 50_000),
        )
        assert result.data_loss.source_name == "erasure archive"
        assert result.recent_data_loss == pytest.approx(18 * HOUR)
        assert result.recovery_time > 0
        assert result.utilization.feasible
