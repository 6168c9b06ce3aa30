"""Outlays and penalties (section 3.3.5, Figure 5)."""

import pytest

from repro import casestudy
from repro.core import compute_costs
from repro.core.cost import RECOVERY_FACILITY, compute_outlays
from repro.core.demands import register_design_demands
from repro.core.dataloss import compute_data_loss
from repro.core.evaluate import evaluate_scenarios
from repro.core.recovery import plan_recovery
from repro.scenarios import BusinessRequirements, FailureScenario
from repro.scenarios.locations import PRIMARY_SITE
from repro.techniques.facts import FactsTable
from repro.units import HOUR, MB
from repro.workload.presets import cello


@pytest.fixture
def workload():
    return cello()


@pytest.fixture
def baseline(workload):
    return casestudy.baseline_design()


def ledger(design):
    return register_design_demands(design, cello(), FactsTable())


def outlays_of(design):
    return compute_outlays(design, ledger(design))


@pytest.fixture
def requirements():
    return casestudy.case_study_requirements()


class TestOutlays:
    def test_every_technique_present(self, baseline):
        outlays = outlays_of(baseline)
        for name in (
            "foreground workload",
            "split mirror",
            "backup",
            "remote vaulting",
            RECOVERY_FACILITY,
        ):
            assert name in outlays, name

    def test_figure5_shape(self, baseline):
        """Foreground, mirroring and backup split the outlays roughly
        evenly; vaulting is negligible (paper Figure 5)."""
        outlays = outlays_of(baseline)
        total = sum(outlays.values())
        for name in ("foreground workload", "split mirror", "backup"):
            share = outlays[name] / total
            assert 0.1 < share < 0.6, (name, share)
        assert outlays["remote vaulting"] / total < 0.08

    def test_total_outlays_near_paper(self, baseline):
        """Paper: $0.97M.  Our catalog lands within ~25%."""
        total = sum(outlays_of(baseline).values())
        assert total == pytest.approx(0.97e6, rel=0.25)

    def test_facility_cost_is_fraction_of_primary_site(self, baseline):
        outlays = outlays_of(baseline)
        # The facility charges 0.2x of primary-site devices only -- it
        # must be much smaller than the techniques it backs.
        assert outlays[RECOVERY_FACILITY] < 0.25 * sum(outlays.values())

    def test_mirror_design_charges_provisioned_links(self, workload):
        one = casestudy.async_batch_mirror_design(1)
        ten = casestudy.async_batch_mirror_design(10)
        one_total = sum(outlays_of(one).values())
        ten_total = sum(outlays_of(ten).values())
        # Table 7: $0.93M vs $5.03M -- links dominate the 10x design.
        assert ten_total > 4 * one_total


class TestPenalties:
    def test_array_failure_penalties(self, baseline, workload, requirements):
        scenario = FailureScenario.array_failure("primary-array")
        loss = compute_data_loss(baseline, scenario)
        plan = plan_recovery(
            baseline, ledger(baseline), scenario, workload, loss_result=loss
        )
        costs = compute_costs(
            baseline, requirements, outlays_of(baseline), loss=loss, plan=plan
        )
        # DL penalty: 217 h * $50k/h = $10.85M dominates.
        assert costs.loss_penalty == pytest.approx(217 * 50_000, rel=0.01)
        assert costs.outage_penalty == pytest.approx(
            plan.recovery_time / HOUR * 50_000, rel=0.01
        )
        assert costs.total_cost == pytest.approx(
            costs.total_outlays + costs.total_penalties
        )

    def test_site_failure_penalties(self, baseline, workload, requirements):
        scenario = FailureScenario.site_disaster(PRIMARY_SITE)
        loss = compute_data_loss(baseline, scenario)
        plan = plan_recovery(
            baseline, ledger(baseline), scenario, workload, loss_result=loss
        )
        costs = compute_costs(
            baseline, requirements, outlays_of(baseline), loss=loss, plan=plan
        )
        assert costs.loss_penalty == pytest.approx(1429 * 50_000, rel=0.01)

    def test_penalties_scale_with_rates(self, baseline, workload):
        scenario = FailureScenario.array_failure("primary-array")
        loss = compute_data_loss(baseline, scenario)
        plan = plan_recovery(
            baseline, ledger(baseline), scenario, workload, loss_result=loss
        )
        outlays = outlays_of(baseline)
        cheap = compute_costs(
            baseline, BusinessRequirements.per_hour(1_000, 1_000), outlays,
            loss=loss, plan=plan,
        )
        pricey = compute_costs(
            baseline, BusinessRequirements.per_hour(100_000, 100_000), outlays,
            loss=loss, plan=plan,
        )
        assert pricey.total_penalties == pytest.approx(
            100 * cheap.total_penalties
        )

    def test_total_loss_penalty_is_infinite(self, baseline, workload, requirements):
        scenario = FailureScenario.object_corruption(1 * MB, "20 yr")
        loss = compute_data_loss(baseline, scenario)
        costs = compute_costs(
            baseline, requirements, outlays_of(baseline), loss=loss, plan=None
        )
        assert costs.loss_penalty == float("inf")
        assert costs.total_cost == float("inf")

    def test_no_results_means_no_penalties(self, baseline, requirements):
        costs = compute_costs(baseline, requirements, outlays_of(baseline))
        assert costs.total_penalties == 0.0
        assert costs.total_cost == costs.total_outlays

    def test_describe(self, baseline, requirements):
        costs = compute_costs(baseline, requirements, outlays_of(baseline))
        assert "outlays" in costs.describe()


class TestSharedOutlays:
    def test_precomputed_outlays_are_copied(self, baseline, requirements):
        outlays = outlays_of(baseline)
        costs = compute_costs(baseline, requirements, outlays)
        assert costs.outlays_by_technique == outlays
        assert costs.outlays_by_technique is not outlays

    def test_sibling_assessments_do_not_share_outlays(self, workload, requirements):
        results = evaluate_scenarios(
            casestudy.baseline_design(),
            workload,
            casestudy.case_study_scenarios(),
            requirements,
        )
        first, *siblings = results.values()
        before = [dict(a.costs.outlays_by_technique) for a in siblings]
        first.costs.outlays_by_technique["split mirror"] = -1.0
        first.costs.outlays_by_technique["added"] = 1.0
        assert [a.costs.outlays_by_technique for a in siblings] == before
