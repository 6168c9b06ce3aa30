"""Branching hierarchies: multiple levels feeding from one parent."""

import pytest

import repro
from repro.core.demands import register_design_demands
from repro.core.dataloss import level_range
from repro.devices.catalog import (
    enterprise_tape_library,
    midrange_disk_array,
    oc3_links,
    san_link,
)
from repro.exceptions import DesignError
from repro.scenarios import FailureScenario
from repro.scenarios.locations import PRIMARY_SITE, REMOTE_SITE
from repro.techniques.facts import FactsTable
from repro.units import HOUR, MB
from repro.workload.presets import cello


@pytest.fixture
def branched_design():
    """Snapshot AND mirror both feeding from the primary, plus backup
    off the snapshot: a tree, not a chain."""
    array = midrange_disk_array(spare=repro.SpareConfig.dedicated("60 s", 1.0))
    design = repro.StorageDesign(
        "branched", recovery_facility=repro.SpareConfig.shared("9 hr", 0.2)
    )
    design.add_level(repro.PrimaryCopy(), store=array)
    design.add_level(repro.VirtualSnapshot("12 hr", 4), store=array)
    design.add_level(
        repro.BatchedAsyncMirror("1 min"),
        store=midrange_disk_array(
            name="mirror-array", location=REMOTE_SITE,
            spare=repro.SpareConfig.none(),
        ),
        transport=oc3_links(2),
        feeds_from=0,  # the branch: straight off the primary
    )
    design.add_level(
        repro.Backup("1 wk", "48 hr", "1 hr", 4),
        store=enterprise_tape_library(spare=repro.SpareConfig.dedicated("60 s", 1.0)),
        transport=san_link(),
        feeds_from=1,  # off the snapshot, not the mirror
    )
    return design


@pytest.fixture
def workload():
    return cello()


class TestBranchStructure:
    def test_parents(self, branched_design):
        assert branched_design.level(1).parent_index == 0
        assert branched_design.level(2).parent_index == 0
        assert branched_design.level(3).parent_index == 1
        assert branched_design.parent_of(branched_design.level(3)).index == 1

    def test_validates_despite_fast_mirror(self, branched_design, workload):
        """A 1-minute mirror AFTER a 12 h snapshot violates the linear
        conventions; as a sibling branch it is legal."""
        warnings = repro.validate_design(branched_design, workload)
        assert isinstance(warnings, list)

    def test_linear_equivalent_is_rejected(self, workload):
        array = midrange_disk_array()
        design = repro.StorageDesign("linear-bad")
        design.add_level(repro.PrimaryCopy(), store=array)
        design.add_level(repro.VirtualSnapshot("12 hr", 4), store=array)
        design.add_level(
            repro.BatchedAsyncMirror("1 min"),
            store=midrange_disk_array(name="m", location=REMOTE_SITE),
            transport=oc3_links(2),
            # default feeds_from: the snapshot -> convention violation
        )
        with pytest.raises(DesignError):
            repro.validate_design(design, workload)

    def test_forward_feed_rejected(self):
        array = midrange_disk_array()
        design = repro.StorageDesign("bad")
        design.add_level(repro.PrimaryCopy(), store=array)
        with pytest.raises(DesignError):
            design.add_level(
                repro.VirtualSnapshot("12 hr", 4), store=array, feeds_from=5
            )

    def test_level_zero_cannot_feed(self):
        design = repro.StorageDesign("bad")
        with pytest.raises(DesignError):
            design.add_level(
                repro.PrimaryCopy(), store=midrange_disk_array(), feeds_from=0
            )

    def test_render_marks_branches(self, branched_design):
        art = branched_design.render_hierarchy()
        assert "<- level 0" in art


class TestBranchSemantics:
    def test_upstream_delay_follows_ancestors(self, branched_design):
        # The mirror branches straight off level 0: no upstream delay
        # from the snapshot.
        assert branched_design.upstream_delay(2) == 0.0
        # The backup's ancestors are the snapshot (0 delay) and level 0.
        assert branched_design.upstream_delay(3) == 0.0

    def test_mirror_branch_gives_minute_loss(self, branched_design, workload):
        result = repro.core.compute_data_loss(
            branched_design, FailureScenario.array_failure("primary-array")
        )
        # The mirror survives and is the closest usable level.
        assert result.source_name == "asyncB mirror"
        assert result.data_loss == pytest.approx(120.0)

    def test_backup_reads_from_snapshot_parent(self, branched_design, workload):
        demands = register_design_demands(branched_design, workload, FactsTable())
        array = branched_design.primary_level.store
        backup_reads = [
            d for d in demands[array] if d.technique == "backup"
        ]
        assert backup_reads and backup_reads[0].bandwidth > 0

    def test_evaluates_end_to_end(self, branched_design, workload):
        results = repro.evaluate_scenarios(
            branched_design,
            workload,
            [
                FailureScenario.object_corruption(1 * MB, "24 hr"),
                FailureScenario.array_failure("primary-array"),
                FailureScenario.site_disaster(PRIMARY_SITE),
            ],
            repro.BusinessRequirements.per_hour(50_000, 50_000),
        )
        values = list(results.values())
        # Object rollback: the snapshot branch.
        assert values[0].data_loss.source_name == "virtual snapshot"
        # Array failure: the mirror branch (minutes of loss).
        assert values[1].recent_data_loss == pytest.approx(120.0)
        # Site disaster: the mirror survives off-site.
        assert values[2].data_loss.source_name == "asyncB mirror"

    def test_without_level_reattaches_children(self, branched_design):
        # Remove the snapshot (level 1): the backup (its child) must
        # re-attach to level 0.
        degraded = branched_design.without_level(1)
        backup_level = next(
            lvl for lvl in degraded.levels if lvl.technique.name == "backup"
        )
        assert backup_level.parent_index == 0
        mirror_level = next(
            lvl for lvl in degraded.levels if "mirror" in lvl.technique.name
        )
        assert mirror_level.parent_index == 0
