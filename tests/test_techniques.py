"""Data protection technique models: demands, timelines, recovery sizes."""

import pytest

from repro.devices import DiskArray, NetworkLink, Shipment, TapeLibrary, Vault
from repro.devices.catalog import (
    air_shipment,
    enterprise_tape_library,
    midrange_disk_array,
    oc3_links,
    offsite_vault,
)
from repro.core.demands import DemandLedger
from repro.exceptions import PolicyError
from repro.techniques import (
    AsyncMirror,
    Backup,
    BatchedAsyncMirror,
    IncrementalKind,
    IncrementalPolicy,
    PrimaryCopy,
    RemoteVaulting,
    SplitMirror,
    SyncMirror,
    VirtualSnapshot,
)
from repro.techniques.facts import TechniqueFacts
from repro.units import DAY, GB, HOUR, KB, MB, WEEK
from repro.workload.presets import cello


@pytest.fixture
def workload():
    return cello()


@pytest.fixture
def array():
    return midrange_disk_array()


def placed(technique, workload, **devices):
    """The demands ``technique`` places, as a ledger."""
    return DemandLedger(technique.demands(workload, **devices))


class TestPrimaryCopy:
    def test_flags(self):
        primary = PrimaryCopy()
        assert primary.is_primary
        assert primary.worst_lag() == 0.0
        assert primary.retention_span() == 0.0
        assert primary.full_availability_delay() == 0.0

    def test_no_cycle(self):
        with pytest.raises(PolicyError):
            PrimaryCopy().cycle()

    def test_demands_are_the_foreground_workload(self, workload, array):
        demand = placed(PrimaryCopy(), workload, store=array)[array][0]
        assert demand.bandwidth == workload.avg_access_rate
        assert demand.capacity == workload.data_capacity


class TestVirtualSnapshot:
    def test_cow_bandwidth_is_double_update_rate(self, workload, array):
        demands = placed(VirtualSnapshot("12 hr", 4), workload, store=array)
        assert demands[array][0].bandwidth == pytest.approx(
            2 * workload.avg_update_rate
        )

    def test_capacity_is_retained_deltas(self, workload, array):
        demands = placed(VirtualSnapshot("12 hr", 4), workload, store=array)
        expected = 4 * workload.unique_bytes(12 * HOUR)
        assert demands[array][0].capacity == pytest.approx(expected)

    def test_snapshots_far_cheaper_than_split_mirrors(self, workload):
        snap_array = midrange_disk_array()
        mirror_array = midrange_disk_array(name="other")
        snap = placed(VirtualSnapshot("12 hr", 4), workload, store=snap_array)
        mirror = placed(SplitMirror("12 hr", 4), workload, store=mirror_array)
        assert (
            snap_array.capacity_demand_logical(snap[snap_array])
            < 0.05 * mirror_array.capacity_demand_logical(mirror[mirror_array])
        )

    def test_timeline(self):
        snap = VirtualSnapshot("12 hr", 4)
        assert snap.worst_lag() == pytest.approx(12 * HOUR)
        assert snap.retention_span() == pytest.approx(36 * HOUR)
        assert snap.co_located_with_source

    def test_zero_window_rejected(self):
        with pytest.raises(PolicyError):
            VirtualSnapshot(0, 4)


class TestSplitMirror:
    def test_resident_mirrors(self):
        assert SplitMirror("12 hr", 4).resident_mirrors == 5

    def test_resilver_bandwidth_matches_table5(self, workload):
        mirror = SplitMirror("12 hr", 4)
        # 2 * 317 KB/s * 60 h / 12 h = 3170 KB/s ~ 3.1 MB/s (paper: 0.6%).
        assert mirror.resilver_bandwidth(workload) == pytest.approx(
            2 * 317 * KB * 5, rel=0.01
        )

    def test_capacity_is_five_full_copies(self, workload, array):
        demands = placed(SplitMirror("12 hr", 4), workload, store=array)
        assert demands[array][0].capacity == pytest.approx(
            5 * workload.data_capacity
        )

    def test_retention_window(self):
        # 4 mirrors split 12 h apart -> 2 days of retrievable history.
        assert SplitMirror("12 hr", 4).retention_window() == pytest.approx(2 * DAY)

    def test_describe(self):
        assert "12" in SplitMirror("12 hr", 4).describe()


class TestMirrors:
    def test_sync_demands_peak_rate(self, workload):
        remote = midrange_disk_array(name="remote")
        link = oc3_links(10)
        demands = placed(SyncMirror(), workload, store=remote, transport=link)
        assert demands[link][0].bandwidth == pytest.approx(
            workload.peak_update_rate
        )
        assert demands[remote][0].capacity == workload.data_capacity

    def test_sync_has_zero_loss(self):
        sync = SyncMirror()
        assert sync.worst_lag() == 0.0
        assert sync.worst_spacing() == 0.0
        with pytest.raises(PolicyError):
            sync.cycle()

    def test_async_demands_average_rate(self, workload):
        remote = midrange_disk_array(name="remote")
        link = oc3_links(1)
        demands = placed(AsyncMirror("30 s"), workload, store=remote, transport=link)
        assert demands[link][0].bandwidth == pytest.approx(workload.avg_update_rate)

    def test_async_lag_is_write_behind(self):
        assert AsyncMirror("30 s").worst_lag() == 30.0

    def test_batched_demands_unique_rate(self, workload):
        remote = midrange_disk_array(name="remote")
        link = oc3_links(1)
        demands = placed(
            BatchedAsyncMirror("1 min"), workload, store=remote, transport=link
        )
        # Table 2: batchUpdR(1 min) = 727 KB/s.
        assert demands[link][0].bandwidth == pytest.approx(727 * KB)

    def test_batched_lag_is_two_windows(self):
        # accW + propW (propW defaults to accW): ~2 minutes, Table 7's 0.03 h.
        assert BatchedAsyncMirror("1 min").worst_lag() == pytest.approx(120.0)

    def test_mirror_ordering_of_link_demands(self, workload):
        """sync >= async >= batched: the paper's section 2 motivation."""
        sync = SyncMirror().interconnect_demand(workload)
        asynchronous = AsyncMirror().interconnect_demand(workload)
        batched = BatchedAsyncMirror("1 min").interconnect_demand(workload)
        assert sync >= asynchronous >= batched

    def test_batched_prop_exceeding_acc_rejected(self):
        with pytest.raises(PolicyError):
            BatchedAsyncMirror("1 min", propagation_window="2 min")


class TestBackup:
    def test_full_only_bandwidth(self, workload):
        backup = Backup("1 wk", "48 hr", "1 hr", retention_count=4)
        assert backup.required_bandwidth(workload) == pytest.approx(
            workload.data_capacity / (48 * HOUR)
        )

    def test_full_only_capacity(self, workload):
        library = enterprise_tape_library()
        backup = Backup("1 wk", "48 hr", "1 hr", retention_count=4)
        demands = placed(backup, workload, store=library)
        # 4 retained fulls + 1 in-progress = 5 x 1360 GB = 6.6 TB.
        assert demands[library][0].capacity == pytest.approx(
            5 * workload.data_capacity
        )

    def test_source_array_gets_read_demand_but_no_capacity(self, workload, array):
        library = enterprise_tape_library()
        backup = Backup("1 wk", "48 hr", "1 hr", retention_count=4)
        demands = placed(backup, workload, store=library, source_store=array)
        assert demands[array][0].bandwidth > 0
        assert demands[array][0].capacity == 0.0

    def test_cumulative_incremental_sizes_grow(self, workload):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy(
                IncrementalKind.CUMULATIVE, 5, "24 hr", "12 hr", "1 hr"
            ),
        )
        sizes = [backup.incremental_size(workload, k) for k in range(1, 6)]
        assert sizes == sorted(sizes)
        assert backup.largest_incremental_size(workload) == sizes[-1]

    def test_differential_incrementals_uniform(self, workload):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy(
                IncrementalKind.DIFFERENTIAL, 5, "24 hr", "12 hr", "1 hr"
            ),
        )
        sizes = {backup.incremental_size(workload, k) for k in range(1, 6)}
        assert len(sizes) == 1

    def test_cycle_period_with_incrementals(self):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy.daily_cumulative(count=5),
        )
        assert backup.cycle_period == pytest.approx(WEEK)
        assert backup.cycle_count == 5

    def test_fi_worst_lag_is_73_hours(self):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy(
                IncrementalKind.CUMULATIVE, 5, "24 hr", "12 hr", "1 hr"
            ),
        )
        assert backup.worst_lag() == pytest.approx(73 * HOUR)

    def test_recovery_size_cumulative_adds_largest_incremental(self, workload):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy(
                IncrementalKind.CUMULATIVE, 5, "24 hr", "12 hr", "1 hr"
            ),
        )
        size = backup.recovery_size(workload, workload.data_capacity)
        assert size == pytest.approx(
            workload.data_capacity + backup.largest_incremental_size(workload)
        )

    def test_recovery_size_differential_adds_whole_chain(self, workload):
        backup = Backup(
            "48 hr", "48 hr", "1 hr", 4,
            incremental=IncrementalPolicy(
                IncrementalKind.DIFFERENTIAL, 5, "24 hr", "12 hr", "1 hr"
            ),
        )
        size = backup.recovery_size(workload, workload.data_capacity)
        assert size == pytest.approx(
            workload.data_capacity + 5 * backup.incremental_size(workload, 1)
        )

    def test_full_only_recovery_is_just_requested(self, workload):
        backup = Backup("1 wk", "48 hr", "1 hr", 4)
        assert backup.recovery_size(workload, 1 * MB) == 1 * MB

    def test_prop_exceeding_acc_rejected(self):
        with pytest.raises(PolicyError):
            Backup("24 hr", "48 hr", "1 hr", 4)


class TestRemoteVaulting:
    def make(self, hold=4 * WEEK + 12 * HOUR):
        return RemoteVaulting("4 wk", "24 hr", hold, retention_count=39)

    def test_vault_capacity(self, workload):
        vault = offsite_vault()
        demands = placed(self.make(), workload, store=vault)
        assert demands[vault][0].capacity == pytest.approx(
            39 * workload.data_capacity
        )

    def test_shipments_per_year(self):
        assert self.make().shipments_per_year() == pytest.approx(13.036, rel=0.01)

    def test_no_extra_copy_when_hold_covers_retention(self, workload):
        backup = Backup("1 wk", "48 hr", "1 hr", retention_count=4)  # retW = 4 wk
        assert not self.make().requires_extra_copy(TechniqueFacts.of(backup))

    def test_extra_copy_when_shipping_early(self, workload):
        backup = Backup("1 wk", "48 hr", "1 hr", retention_count=4)
        early = self.make(hold=12 * HOUR)
        assert early.requires_extra_copy(TechniqueFacts.of(backup))
        library = enterprise_tape_library()
        vault = offsite_vault()
        demands = placed(
            early,
            workload,
            store=vault,
            source_store=library,
            transport=air_shipment(),
            source_facts=TechniqueFacts.of(backup),
        )
        # The library gets bandwidth + a full copy of shelf space.
        assert demands[library][0].bandwidth > 0
        assert demands[library][0].capacity == workload.data_capacity

    def test_shipment_demand_registered(self, workload):
        courier = air_shipment()
        vault = offsite_vault()
        demands = placed(self.make(), workload, store=vault, transport=courier)
        assert demands[courier][0].shipments_per_year == pytest.approx(13.0, abs=0.1)

    def test_reads_via_source_level(self):
        assert self.make().reads_via_source_level

    def test_three_year_reach(self):
        vaulting = self.make()
        # 39 fulls every 4 weeks: within 10% of 3 years.
        assert vaulting.retention_window() == pytest.approx(3 * 365 * DAY, rel=0.1)
