"""Cross-cutting property-based tests over the whole pipeline.

Hypothesis generates random (but convention-respecting) policies and
checks the invariants the paper's formulas imply:

* data loss equals the closed-form lag for simple hierarchies;
* more frequent RPs never lose more data;
* longer retention never shrinks a level's reach;
* penalties are linear in the penalty rates;
* recovery time is monotone in link provisioning;
* utilization is additive over techniques.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import casestudy
from repro.core.dataloss import level_range
from repro.core.demands import register_design_demands
from repro.devices.catalog import (
    enterprise_tape_library,
    midrange_disk_array,
    san_link,
)
from repro.techniques.facts import FactsTable
from repro.units import HOUR, WEEK
from repro.workload.presets import cello

WORKLOAD = cello()
REQUIREMENTS = casestudy.case_study_requirements()

# Mirror windows in hours; backup cycles in days; retention counts small.
mirror_windows = st.floats(min_value=1.0, max_value=24.0)
backup_windows_days = st.floats(min_value=1.0, max_value=14.0)
retention_counts = st.integers(min_value=1, max_value=8)


def build_design(mirror_hours, backup_days, backup_ret, mirror_ret):
    """A convention-respecting mirror+backup design."""
    backup_acc = backup_days * 24 * HOUR
    mirror_acc = mirror_hours * HOUR
    design = repro.StorageDesign(
        "generated", recovery_facility=repro.SpareConfig.shared("9 hr", 0.2)
    )
    array = midrange_disk_array(spare=repro.SpareConfig.dedicated("60 s", 1.0))
    design.add_level(repro.PrimaryCopy(), store=array)
    design.add_level(repro.SplitMirror(mirror_acc, mirror_ret), store=array)
    design.add_level(
        repro.Backup(
            full_accumulation_window=backup_acc,
            full_propagation_window=min(backup_acc / 2, 48 * HOUR),
            full_hold_window=HOUR,
            retention_count=backup_ret,
        ),
        store=enterprise_tape_library(spare=repro.SpareConfig.dedicated("60 s", 1.0)),
        transport=san_link(),
    )
    return design


@st.composite
def designs(draw):
    mirror_hours = draw(mirror_windows)
    backup_days = draw(backup_windows_days)
    # Conventions: backup cycle >= mirror cycle, retention non-decreasing.
    if backup_days * 24 < mirror_hours:
        backup_days = mirror_hours / 24 + 1
    mirror_ret = draw(retention_counts)
    backup_ret = draw(st.integers(min_value=mirror_ret, max_value=mirror_ret + 8))
    return build_design(mirror_hours, backup_days, backup_ret, mirror_ret)


class TestDataLossProperties:
    @given(design=designs())
    @settings(max_examples=40, deadline=None)
    def test_array_loss_is_backup_lag(self, design):
        """For any valid mirror+backup design, an array failure loses
        exactly the backup level's closed-form lag."""
        result = repro.core.compute_data_loss(
            design, repro.FailureScenario.array_failure("primary-array")
        )
        backup = design.level(2).technique
        expected = (
            backup.full_accumulation_window
            + backup.full_hold_window
            + backup.full_propagation_window
        )
        assert result.data_loss == pytest.approx(expected)

    @given(design=designs())
    @settings(max_examples=40, deadline=None)
    def test_object_loss_bounded_by_mirror_window(self, design):
        """A just-old-enough object rollback served by the mirror loses
        at most one mirror window."""
        mirror = design.level(1).technique
        target_age = mirror.accumulation_window * 1.5  # inside the range
        if mirror.retention_span() < target_age:
            return  # not retained; property vacuous for this sample
        result = repro.core.compute_data_loss(
            design,
            repro.FailureScenario.object_corruption("1 MB", target_age),
        )
        assert result.data_loss <= mirror.accumulation_window + 1e-6

    @given(
        hours_a=st.floats(min_value=1.0, max_value=12.0),
        factor=st.floats(min_value=1.1, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_more_frequent_backups_never_lose_more(self, hours_a, factor):
        fast = build_design(1.0, hours_a, 4, 4)
        slow = build_design(1.0, hours_a * factor, 4, 4)
        fast_loss = repro.core.compute_data_loss(
            fast, repro.FailureScenario.array_failure("primary-array")
        ).data_loss
        slow_loss = repro.core.compute_data_loss(
            slow, repro.FailureScenario.array_failure("primary-array")
        ).data_loss
        assert fast_loss <= slow_loss + 1e-6


class TestRangeProperties:
    @given(
        retention_small=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_longer_retention_extends_reach(self, retention_small, extra):
        short = build_design(2.0, 7.0, retention_small, retention_small)
        deep = build_design(2.0, 7.0, retention_small + extra, retention_small)
        short_range = level_range(short, short.level(2))
        deep_range = level_range(deep, deep.level(2))
        assert deep_range.oldest_age > short_range.oldest_age
        assert deep_range.newest_age == pytest.approx(short_range.newest_age)


class TestCostProperties:
    @given(scale=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_penalties_linear_in_rates(self, scale):
        design = casestudy.baseline_design()
        scenario = repro.FailureScenario.array_failure("primary-array")
        base = repro.evaluate(
            design, WORKLOAD, scenario,
            repro.BusinessRequirements.per_hour(10_000, 10_000),
        )
        scaled = repro.evaluate(
            casestudy.baseline_design(), WORKLOAD, scenario,
            repro.BusinessRequirements.per_hour(10_000 * scale, 10_000 * scale),
        )
        assert scaled.costs.total_penalties == pytest.approx(
            scale * base.costs.total_penalties, rel=1e-9
        )

    @given(links=st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_recovery_time_monotone_in_links(self, links):
        fewer = casestudy.async_batch_mirror_design(links)
        more = casestudy.async_batch_mirror_design(links + 1)
        scenario = repro.FailureScenario.array_failure("primary-array")
        fewer_rt = repro.evaluate(
            fewer, WORKLOAD, scenario, REQUIREMENTS
        ).recovery_time
        more_rt = repro.evaluate(
            more, WORKLOAD, scenario, REQUIREMENTS
        ).recovery_time
        assert more_rt <= fewer_rt


class TestUtilizationProperties:
    @given(design=designs())
    @settings(max_examples=30, deadline=None)
    def test_device_utilization_is_sum_of_techniques(self, design):
        demands = register_design_demands(design, WORKLOAD, FactsTable())
        for report in repro.core.compute_utilization(design, demands).devices:
            assert report.bandwidth_utilization == pytest.approx(
                sum(t.bandwidth_utilization for t in report.by_technique)
            )
            assert report.capacity_utilization == pytest.approx(
                sum(t.capacity_utilization for t in report.by_technique)
            )

    @given(design=designs())
    @settings(max_examples=30, deadline=None)
    def test_registration_is_idempotent(self, design):
        def max_capacity():
            demands = register_design_demands(design, WORKLOAD, FactsTable())
            utilization = repro.core.compute_utilization(design, demands)
            return utilization.max_capacity_utilization

        first = max_capacity()
        second = max_capacity()
        assert first == pytest.approx(second)
