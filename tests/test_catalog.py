"""Device catalog presets against the paper's Table 4."""

import pytest

from repro.devices import (
    Demand,
    air_shipment,
    enterprise_tape_library,
    midrange_disk_array,
    oc3_links,
    offsite_vault,
    san_link,
)
from repro.devices.spares import SpareType
from repro.units import GB, HOUR, MB


class TestDiskArrayPreset:
    def test_envelopes(self):
        array = midrange_disk_array()
        assert array.max_capacity == 256 * 73 * GB
        assert array.max_bandwidth == 512 * MB
        assert array.raid_capacity_factor == 2.0

    def test_cost_coefficients(self):
        array = midrange_disk_array()
        assert array.cost_model.fixed == 123_297.0
        assert array.cost_model.capacity_cost(1 * GB) == pytest.approx(17.2)

    def test_dedicated_hot_spare(self):
        array = midrange_disk_array()
        assert array.spare.spare_type is SpareType.DEDICATED
        assert array.spare.provisioning_time == pytest.approx(0.02 * HOUR)
        assert array.spare.discount == 1.0


class TestTapeLibraryPreset:
    def test_envelopes(self):
        lib = enterprise_tape_library()
        assert lib.max_capacity == 500 * 400 * GB
        assert lib.max_bandwidth == 240 * MB
        assert lib.access_delay == pytest.approx(0.01 * HOUR)

    def test_cost_coefficients(self):
        lib = enterprise_tape_library()
        assert lib.cost_model.fixed == 98_895.0
        assert lib.cost_model.capacity_cost(1 * GB) == pytest.approx(0.4)
        assert lib.cost_model.bandwidth_cost(1 * MB) == pytest.approx(108.6)


class TestVaultPreset:
    def test_envelope_and_costs(self):
        vault = offsite_vault()
        assert vault.max_capacity == 5000 * 400 * GB
        assert vault.cost_model.fixed == 25_000.0
        assert not vault.spare.exists

    def test_remote_location(self):
        vault = offsite_vault()
        array = midrange_disk_array()
        assert not vault.location.same_region(array.location)


class TestInterconnectPresets:
    def test_air_shipment(self):
        courier = air_shipment()
        assert courier.access_delay == 24 * HOUR
        assert courier.cost_model.per_shipment == 50.0

    def test_oc3_bandwidth(self):
        one = oc3_links(1)
        ten = oc3_links(10)
        assert one.max_bandwidth == pytest.approx(155e6 / 8)
        assert ten.max_bandwidth == pytest.approx(10 * 155e6 / 8)

    def test_oc3_cost_scales_with_links(self):
        one = oc3_links(1)
        ten = oc3_links(10)
        demands = (Demand("mirror", bandwidth=1 * MB),)
        assert ten.outlays_by_technique(demands)["mirror"] == pytest.approx(
            10 * one.outlays_by_technique(demands)["mirror"]
        )

    def test_oc3_annual_price_matches_table7(self):
        # Table 7: cost model b * 23535 with b in MB/s; one OC-3 carries
        # 155 Mbit/s = 18.48 binary MB/s -> ~$435k/yr.
        link = oc3_links(1)
        cost = link.outlays_by_technique((Demand("mirror", bandwidth=1),))["mirror"]
        assert cost == pytest.approx(23_535 * (155e6 / 8) / MB, rel=1e-6)

    def test_san_is_fast_and_free(self):
        san = san_link()
        assert san.max_bandwidth >= 1024 * MB
        demands = (Demand("backup", bandwidth=8 * MB),)
        assert san.outlays_by_technique(demands)["backup"] == 0.0
