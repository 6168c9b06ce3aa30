"""Recovery-time planning (section 3.3.4, Figure 4)."""

import pytest

from repro import casestudy
from repro.core import StorageDesign, plan_recovery
from repro.core.demands import register_design_demands
from repro.devices import SpareConfig
from repro.devices.catalog import midrange_disk_array, oc3_links
from repro.exceptions import RecoveryError
from repro.scenarios import FailureScenario
from repro.scenarios.locations import PRIMARY_SITE, REMOTE_SITE
from repro.techniques import BatchedAsyncMirror, PrimaryCopy
from repro.techniques.facts import FactsTable
from repro.units import GB, HOUR, MB
from repro.workload.presets import cello


@pytest.fixture
def workload():
    return cello()


def recovery_plan(design, scenario, workload, **kwargs):
    """The design's recovery plan under its own demand ledger."""
    demands = register_design_demands(design, workload, FactsTable())
    return plan_recovery(design, demands, scenario, workload, **kwargs)


@pytest.fixture
def baseline(workload):
    return casestudy.baseline_design()


@pytest.fixture
def mirror_design(workload):
    return casestudy.async_batch_mirror_design(1)


class TestObjectRecovery:
    def test_intra_array_copy_is_milliseconds(self, baseline, workload):
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        plan = recovery_plan(baseline, scenario, workload)
        # Paper Table 6: 0.004 s (1 MB read + written on the same array
        # at ~500 MB/s available).
        assert plan.recovery_time == pytest.approx(0.004, rel=0.15)
        assert plan.source_name == "split mirror"
        assert plan.recovery_size == 1 * MB

    def test_no_provisioning_steps_when_nothing_failed(self, baseline, workload):
        scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
        plan = recovery_plan(baseline, scenario, workload)
        assert all(step.kind != "provision" for step in plan.steps)


class TestArrayRecovery:
    def test_transfer_dominates(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.array_failure("primary-array"), workload
        )
        assert plan.source_name == "backup"
        # ~1360 GB at 0.7 x min(240 - 8.1, 512 - 12.2) MB/s plus the
        # 60 s hot spare and 36 s tape load: the paper's 2.4 h.
        assert plan.recovery_time == pytest.approx(2.4 * HOUR, rel=0.05)
        transfer = [s for s in plan.steps if s.kind == "transfer"][0]
        assert transfer.duration > 0.9 * plan.recovery_time

    def test_hot_spare_provisioning_present(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.array_failure("primary-array"), workload
        )
        provisions = [s for s in plan.steps if s.kind == "provision"]
        assert len(provisions) == 1
        assert provisions[0].duration == pytest.approx(60.0)

    def test_recovers_full_dataset(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.array_failure("primary-array"), workload
        )
        assert plan.recovery_size == workload.data_capacity


class TestSiteRecovery:
    def test_shipment_dominates(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE), workload
        )
        assert plan.source_name == "remote vaulting"
        # 24 h shipment + ~2.4 h restore, with 9 h facility provisioning
        # fully overlapped: the paper's 26.4 h.
        assert plan.recovery_time == pytest.approx(26.4 * HOUR, rel=0.05)

    def test_provisioning_overlaps_shipment(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE), workload
        )
        ship = [s for s in plan.steps if s.kind == "shipment"][0]
        provisions = [s for s in plan.steps if s.kind == "provision"]
        assert len(provisions) == 2  # library + array stand-ins
        for step in provisions:
            assert step.start == 0.0
            assert step.end <= ship.end  # hidden under the 24 h transit

    def test_media_load_after_arrival(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE), workload
        )
        ship = [s for s in plan.steps if s.kind == "shipment"][0]
        load = [s for s in plan.steps if s.kind == "media-load"][0]
        assert load.start >= ship.end

    def test_timeline_renders(self, baseline, workload):
        plan = recovery_plan(
            baseline, FailureScenario.site_disaster(PRIMARY_SITE), workload
        )
        art = plan.render_timeline()
        assert "ship media" in art and "restore data" in art


class TestMirrorRecovery:
    def test_single_link_transfer_bound(self, mirror_design, workload):
        plan = recovery_plan(
            mirror_design, FailureScenario.array_failure("primary-array"), workload
        )
        # 1360 GB over one OC-3 (19.375 MB/s decimal, minus the 727 KB/s
        # batch traffic): paper reports 21.7 h.
        assert plan.recovery_time == pytest.approx(21.7 * HOUR, rel=0.05)

    def test_ten_links_cut_transfer_tenfold(self, workload):
        ten = casestudy.async_batch_mirror_design(10)
        plan = recovery_plan(
            ten, FailureScenario.array_failure("primary-array"), workload
        )
        assert plan.recovery_time == pytest.approx(2.1 * HOUR, rel=0.1)

    def test_site_recovery_adds_facility_provisioning(self, workload):
        ten = casestudy.async_batch_mirror_design(10)
        array_plan = recovery_plan(
            ten, FailureScenario.array_failure("primary-array"), workload
        )
        site_plan = recovery_plan(
            ten, FailureScenario.site_disaster(PRIMARY_SITE), workload
        )
        # The paper's point: site recovery exceeds array recovery because
        # of the 9 h shared-facility provisioning.
        assert site_plan.recovery_time > array_plan.recovery_time
        assert site_plan.recovery_time == pytest.approx(
            9 * HOUR + array_plan.recovery_time - 60.0, rel=0.05
        )


class TestRecoveryErrors:
    def test_unrecoverable_scenario_raises(self, workload):
        design = StorageDesign("bare")  # no facility
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            BatchedAsyncMirror("1 min"),
            store=midrange_disk_array(name="remote", location=REMOTE_SITE,
                                      spare=SpareConfig.none()),
            transport=oc3_links(1),
        )
        # Site failure with no recovery facility: the mirror survives but
        # there is nowhere to restore the primary to.
        with pytest.raises(RecoveryError):
            recovery_plan(
                design, FailureScenario.site_disaster(PRIMARY_SITE), workload
            )

    def test_total_loss_raises(self, baseline, workload):
        scenario = FailureScenario.object_corruption(1 * MB, "20 yr")
        with pytest.raises(RecoveryError):
            recovery_plan(baseline, scenario, workload)
