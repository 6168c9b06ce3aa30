"""Device models: envelopes, demand ledgers, utilization, outlays, spares."""

import pytest

from repro.devices import (
    CostModel,
    Demand,
    Device,
    DiskArray,
    NetworkLink,
    Shipment,
    SpareConfig,
    SpareType,
    TapeLibrary,
    Vault,
)
from repro.core.demands import DemandLedger
from repro.exceptions import DeviceError
from repro.units import GB, HOUR, MB, TB


class TestCostModel:
    def test_from_paper_units(self):
        model = CostModel.from_paper_units(fixed=100, per_gb=2.0, per_mb_per_sec=3.0)
        assert model.fixed == 100
        assert model.capacity_cost(10 * GB) == pytest.approx(20.0)
        assert model.bandwidth_cost(5 * MB) == pytest.approx(15.0)

    def test_shipment_cost(self):
        model = CostModel(per_shipment=50)
        assert model.shipment_cost(13) == 650.0

    def test_total_cost_composition(self):
        model = CostModel.from_paper_units(fixed=10, per_gb=1, per_mb_per_sec=1)
        total = model.total_cost(capacity_bytes=2 * GB, bandwidth_bps=3 * MB)
        assert total == pytest.approx(10 + 2 + 3)

    def test_negative_components_rejected(self):
        with pytest.raises(DeviceError):
            CostModel(fixed=-1)

    def test_negative_usage_clamped(self):
        model = CostModel.from_paper_units(per_gb=1)
        assert model.capacity_cost(-5) == 0.0


class TestSpareConfig:
    def test_dedicated_defaults(self):
        spare = SpareConfig.dedicated()
        assert spare.spare_type is SpareType.DEDICATED
        assert spare.provisioning_time == 60.0
        assert spare.discount == 1.0
        assert spare.exists

    def test_shared_defaults(self):
        spare = SpareConfig.shared()
        assert spare.provisioning_time == 9 * HOUR
        assert spare.discount == 0.2

    def test_none_has_no_cost_or_time(self):
        spare = SpareConfig.none()
        assert not spare.exists
        with pytest.raises(DeviceError):
            SpareConfig(SpareType.NONE, provisioning_time=60)

    def test_negative_discount_rejected(self):
        with pytest.raises(DeviceError):
            SpareConfig(SpareType.DEDICATED, 60, discount=-0.5)


def plain_device(**overrides):
    params = dict(
        name="dev",
        max_capacity=100 * GB,
        max_bandwidth=100 * MB,
        cost_model=CostModel.from_paper_units(fixed=1000, per_gb=1, per_mb_per_sec=2),
    )
    params.update(overrides)
    return Device(**params)


class TestDeviceLedger:
    def test_demand_validation(self):
        with pytest.raises(DeviceError):
            Demand(technique="", bandwidth=1)
        with pytest.raises(DeviceError):
            Demand(technique="t", bandwidth=-1)

    def test_ledger_keeps_placement_order(self):
        dev, other = plain_device(), plain_device(name="other")
        first = Demand("a", bandwidth=10 * MB, capacity=10 * GB)
        second = Demand("b", capacity=20 * GB)
        ledger = DemandLedger([(dev, first), (other, second), (dev, second)])
        assert ledger[dev] == (first, second)
        assert ledger[other] == (second,)
        assert ledger[plain_device()] == ()
        joint = ledger + DemandLedger([(other, first)])
        assert joint[other] == (second, first)
        assert joint[dev] == ledger[dev]

    def test_utilizations(self):
        dev = plain_device()
        demands = (Demand("a", bandwidth=25 * MB, capacity=50 * GB),)
        assert dev.bandwidth_utilization(demands) == pytest.approx(0.25)
        assert dev.capacity_utilization(demands) == pytest.approx(0.50)
        assert dev.available_bandwidth(demands) == pytest.approx(75 * MB)

    def test_infinite_envelopes_report_zero_utilization(self):
        dev = plain_device(max_capacity=float("inf"), max_bandwidth=float("inf"))
        demands = (Demand("a", bandwidth=1e9, capacity=1e15),)
        assert dev.capacity_utilization(demands) == 0.0
        assert dev.bandwidth_utilization(demands) == 0.0
        assert dev.available_bandwidth(demands) == float("inf")

    def test_utilization_report_by_technique(self):
        dev = plain_device()
        report = dev.utilization(
            (
                Demand("a", bandwidth=10 * MB, capacity=10 * GB),
                Demand("b", bandwidth=30 * MB, capacity=40 * GB),
            )
        )
        assert report.bandwidth_demand == pytest.approx(40 * MB)
        assert len(report.by_technique) == 2
        assert report.by_technique[1].capacity_utilization == pytest.approx(0.4)

    def test_describe_has_name(self):
        dev = plain_device()
        assert "dev" in dev.utilization(()).describe()


class TestDeviceOutlays:
    def test_fixed_cost_goes_to_primary_technique(self):
        dev = plain_device()
        outlays = dev.outlays_by_technique(
            (Demand("primary", capacity=10 * GB), Demand("secondary", capacity=10 * GB))
        )
        assert outlays["primary"] == pytest.approx(1000 + 10)
        assert outlays["secondary"] == pytest.approx(10)

    def test_spare_multiplies_outlays(self):
        dev = plain_device(spare=SpareConfig.dedicated("60 s", 1.0))
        demands = (Demand("primary", capacity=10 * GB),)
        assert dev.outlays_by_technique(demands)["primary"] == pytest.approx(2 * 1010)

    def test_shared_spare_fractional(self):
        dev = plain_device(spare=SpareConfig.shared("9 hr", 0.2))
        demands = (Demand("primary", capacity=10 * GB),)
        assert dev.outlays_by_technique(demands)["primary"] == pytest.approx(
            1.2 * 1010
        )

    def test_same_technique_twice_charged_fixed_once(self):
        dev = plain_device()
        demand = Demand("primary", capacity=10 * GB)
        outlays = dev.outlays_by_technique((demand, demand))
        assert outlays == {"primary": pytest.approx(1000 + 20)}


class TestDiskArray:
    def make(self, **overrides):
        params = dict(
            name="array",
            max_capacity_slots=256,
            slot_capacity=73 * GB,
            max_bandwidth_slots=256,
            slot_bandwidth=25 * MB,
            enclosure_bandwidth=512 * MB,
            raid_capacity_factor=2.0,
        )
        params.update(overrides)
        return DiskArray(**params)

    def test_envelopes_use_min_of_enclosure_and_slots(self):
        array = self.make()
        assert array.max_capacity == 256 * 73 * GB
        # 256 * 25 MB/s exceeds the 512 MB/s enclosure -> enclosure binds.
        assert array.max_bandwidth == 512 * MB

    def test_slot_bound_bandwidth(self):
        array = self.make(max_bandwidth_slots=4, enclosure_bandwidth=512 * MB)
        assert array.max_bandwidth == 4 * 25 * MB

    def test_raid_factor_inflates_capacity(self):
        array = self.make()
        demands = (Demand("a", capacity=1360 * GB),)
        assert array.capacity_demand_raw(demands) == pytest.approx(2720 * GB)
        assert array.capacity_utilization(demands) == pytest.approx(
            2720 * GB / (256 * 73 * GB)
        )

    def test_raid_factor_below_one_rejected(self):
        with pytest.raises(DeviceError):
            self.make(raid_capacity_factor=0.5)

    def test_disks_required(self):
        array = self.make()
        # 365 GB logical is 730 GB raw.
        assert array.disks_required((Demand("a", capacity=365 * GB),)) == 10

    def test_zero_slots_rejected(self):
        with pytest.raises(DeviceError):
            self.make(max_capacity_slots=0)


class TestTapeLibrary:
    def make(self):
        return TapeLibrary(
            name="lib",
            max_cartridges=500,
            cartridge_capacity=400 * GB,
            max_drives=16,
            drive_bandwidth=60 * MB,
            enclosure_bandwidth=240 * MB,
        )

    def test_envelopes(self):
        lib = self.make()
        assert lib.max_capacity == 500 * 400 * GB
        assert lib.max_bandwidth == 240 * MB  # enclosure binds vs 960
        assert lib.access_delay == pytest.approx(36.0)

    def test_no_raid_overhead(self):
        lib = self.make()
        assert lib.capacity_demand_raw((Demand("backup", capacity=1 * TB),)) == 1 * TB

    def test_cartridge_and_drive_math(self):
        lib = self.make()
        demands = (Demand("backup", bandwidth=100 * MB, capacity=1000 * GB),)
        assert lib.cartridges_required(demands) == 3
        assert lib.drives_required(demands) == 2
        assert lib.cartridges_for(1360 * GB) == 4


class TestVault:
    def test_capacity_only(self):
        vault = Vault("v", max_cartridges=5000, cartridge_capacity=400 * GB)
        assert vault.max_capacity == 5000 * 400 * GB
        assert vault.max_bandwidth == float("inf")
        demands = (Demand("vaulting", capacity=39 * 1360 * GB),)
        assert vault.bandwidth_utilization(demands) == 0.0
        assert vault.capacity_utilization(demands) == pytest.approx(0.0265, abs=0.001)


class TestInterconnects:
    def test_network_link_aggregation(self):
        link = NetworkLink("wan", link_bandwidth="155 Mbps", link_count=10)
        assert link.max_bandwidth == pytest.approx(10 * 155e6 / 8)
        assert link.is_interconnect

    def test_network_transfer_time_uses_available_bandwidth(self):
        link = NetworkLink("wan", link_bandwidth=10 * MB)
        demands = (Demand("mirror", bandwidth=5 * MB),)
        assert link.transfer_time(50 * MB, demands) == pytest.approx(10.0)

    def test_network_transfer_zero_bytes(self):
        link = NetworkLink("wan", link_bandwidth=10 * MB)
        assert link.transfer_time(0, ()) == 0.0

    def test_saturated_link_transfer_is_infinite(self):
        link = NetworkLink("wan", link_bandwidth=10 * MB)
        demands = (Demand("mirror", bandwidth=10 * MB),)
        assert link.transfer_time(1, demands) == float("inf")

    def test_link_billed_on_provisioned_bandwidth(self):
        link = NetworkLink(
            "wan",
            link_bandwidth=1 * MB,
            link_count=10,
            cost_model=CostModel(per_byte_per_sec=1.0),
        )
        demands = (Demand("mirror", bandwidth=0.1 * MB),)  # nearly idle
        assert link.outlays_by_technique(demands)["mirror"] == pytest.approx(10 * MB)

    def test_unused_link_has_no_outlay(self):
        link = NetworkLink("wan", link_bandwidth=1 * MB,
                           cost_model=CostModel(per_byte_per_sec=1.0))
        assert link.outlays_by_technique(()) == {}

    def test_shipment_constant_delay(self):
        courier = Shipment("air", delay="24 hr")
        assert courier.transfer_time(1, ()) == 24 * HOUR
        assert courier.transfer_time(100 * TB, ()) == 24 * HOUR
        assert courier.transfer_time(0, ()) == 0.0

    def test_shipment_outlay_per_run(self):
        courier = Shipment("air", cost_model=CostModel(per_shipment=50))
        demands = (Demand("vaulting", shipments_per_year=13),)
        assert courier.outlays_by_technique(demands)["vaulting"] == pytest.approx(650)

    def test_zero_links_rejected(self):
        with pytest.raises(DeviceError):
            NetworkLink("wan", link_bandwidth=1 * MB, link_count=0)
