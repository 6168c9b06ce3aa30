"""Multi-object portfolios: shared devices, dependencies, joint costs."""

import pytest

import repro
from repro.devices.catalog import (
    enterprise_tape_library,
    midrange_disk_array,
    san_link,
)
from repro.exceptions import DesignError
from repro.units import GB, HOUR
from repro.workload.presets import oltp_database, web_server


def tape_design(name, array, library, san):
    design = repro.StorageDesign(
        name, recovery_facility=repro.SpareConfig.shared("9 hr", 0.2)
    )
    design.add_level(repro.PrimaryCopy(name=f"{name} foreground"), store=array)
    design.add_level(
        repro.VirtualSnapshot("12 hr", 4, name=f"{name} snapshot"), store=array
    )
    design.add_level(
        repro.Backup("1 wk", "48 hr", "1 hr", 4, name=f"{name} backup"),
        store=library,
        transport=san,
    )
    return design


@pytest.fixture
def shared_hardware():
    return (
        midrange_disk_array(spare=repro.SpareConfig.dedicated("60 s", 1.0)),
        enterprise_tape_library(spare=repro.SpareConfig.dedicated("60 s", 1.0)),
        san_link(),
    )


@pytest.fixture
def portfolio(shared_hardware):
    array, library, san = shared_hardware
    p = repro.Portfolio("db+app")
    p.add_object(
        "database", oltp_database(), tape_design("db", array, library, san)
    )
    p.add_object(
        "application",
        web_server(500 * GB),
        tape_design("app", array, library, san),
        depends_on=["database"],
    )
    return p


@pytest.fixture
def requirements():
    return repro.BusinessRequirements.per_hour(50_000, 50_000)


class TestConstruction:
    def test_duplicate_names_rejected(self, shared_hardware):
        array, library, san = shared_hardware
        p = repro.Portfolio("p")
        p.add_object("x", oltp_database(), tape_design("a", array, library, san))
        with pytest.raises(DesignError):
            p.add_object("x", oltp_database(), tape_design("b", array, library, san))

    def test_unknown_dependency_rejected(self, shared_hardware):
        array, library, san = shared_hardware
        p = repro.Portfolio("p")
        with pytest.raises(DesignError):
            p.add_object(
                "x", oltp_database(), tape_design("a", array, library, san),
                depends_on=["ghost"],
            )

    def test_self_dependency_rejected(self):
        with pytest.raises(DesignError):
            repro.ProtectedObject(
                name="x", workload=oltp_database(),
                design=repro.StorageDesign("d"), depends_on=("x",),
            )

    def test_empty_portfolio_cannot_register(self):
        with pytest.raises(DesignError):
            repro.Portfolio("empty").demands()

    def test_shared_devices_deduplicated(self, portfolio):
        names = [d.name for d in portfolio.devices()]
        assert names.count("primary-array") == 1
        assert names.count("tape-library") == 1


class TestJointUtilization:
    def test_demands_accumulate_across_objects(self, portfolio, shared_hardware):
        array, _library, _san = shared_hardware
        demands = portfolio.demands()
        # Both objects' primary copies live on the array: capacity is the
        # sum of the two datasets (plus snapshot deltas).
        logical = array.capacity_demand_logical(demands[array])
        assert logical > (500 + 500) * GB

    def test_joint_utilization_exceeds_single(self, portfolio, shared_hardware):
        array, library, san = shared_hardware
        joint = portfolio.utilization(portfolio.demands()).device("primary-array")
        solo_design = tape_design(
            "solo",
            midrange_disk_array(),
            enterprise_tape_library(),
            san_link(),
        )
        from repro.core.demands import register_design_demands
        from repro.techniques.facts import FactsTable

        solo_array = solo_design.devices()[0]
        demands = register_design_demands(solo_design, oltp_database(), FactsTable())
        solo = solo_array.utilization(demands[solo_array])
        assert joint.capacity_utilization > solo.capacity_utilization


class TestRecoveryScheduling:
    def test_dependent_object_starts_after_dependency(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        db = assessment.outcomes["database"]
        app = assessment.outcomes["application"]
        assert db.recovery_start == 0.0
        assert app.recovery_start == pytest.approx(db.recovery_finish)
        assert assessment.portfolio_recovery_time == pytest.approx(
            app.recovery_finish
        )

    def test_serialized_recoveries(self, shared_hardware, requirements):
        array, library, san = shared_hardware
        p = repro.Portfolio("independent")
        p.add_object("a", oltp_database(), tape_design("a", array, library, san))
        p.add_object("b", web_server(500 * GB), tape_design("b", array, library, san))
        scenario = repro.FailureScenario.array_failure("primary-array")
        parallel = p.evaluate(scenario, requirements)
        serial = p.evaluate(scenario, requirements, serialize_recoveries=True)
        # Independent objects overlap in the parallel model...
        a, b = parallel.outcomes["a"], parallel.outcomes["b"]
        assert a.recovery_start == b.recovery_start == 0.0
        # ...and queue in the serialized one.
        sa, sb = serial.outcomes["a"], serial.outcomes["b"]
        assert sb.recovery_start == pytest.approx(sa.recovery_finish)
        assert (
            serial.portfolio_recovery_time > parallel.portfolio_recovery_time
        )

    def test_per_object_losses_independent(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        for outcome in assessment.outcomes.values():
            assert outcome.data_loss.data_loss == pytest.approx(217 * HOUR)


class TestPortfolioCosts:
    def test_shared_fixed_costs_charged_once(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        # The array's fixed cost lands on the first-registered primary
        # technique only; the app's foreground pays variable costs only.
        db_fg = assessment.outlays_by_technique["db foreground"]
        app_fg = assessment.outlays_by_technique["app foreground"]
        assert db_fg > app_fg

    def test_penalties_sum_over_objects(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        expected_loss_penalty = sum(
            requirements.loss_penalty(o.data_loss.data_loss)
            for o in assessment.outcomes.values()
        )
        assert assessment.loss_penalty == pytest.approx(expected_loss_penalty)
        # Outage penalties accrue per object until *its* recovery finish.
        expected_outage = sum(
            requirements.outage_penalty(o.recovery_finish)
            for o in assessment.outcomes.values()
        )
        assert assessment.outage_penalty == pytest.approx(expected_outage)

    def test_facility_charged_once(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        assert "recovery facility" in assessment.outlays_by_technique

    def test_summary(self, portfolio, requirements):
        assessment = portfolio.evaluate(
            repro.FailureScenario.array_failure("primary-array"), requirements
        )
        assert "db+app" in assessment.summary()


class TestEvaluateScenarios:
    def test_one_assessment_per_scenario_in_input_order(
        self, portfolio, requirements
    ):
        scenarios = [
            repro.FailureScenario.site_disaster(),
            repro.FailureScenario.array_failure("primary-array"),
        ]
        results = portfolio.evaluate_scenarios(scenarios, requirements)
        assert results == {
            s.describe(): portfolio.evaluate(s, requirements) for s in scenarios
        }
        assert list(results) == [s.describe() for s in scenarios]
