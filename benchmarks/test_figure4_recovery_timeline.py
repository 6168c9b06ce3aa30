"""Figure 4 — recovery time dependencies for a site disaster.

Regenerates the paper's recovery pipeline chart: tape shipment from the
vault, loading at the (re-provisioned) tape library, and data transfer
onto the (re-provisioned) primary array, with resource provisioning
proceeding in parallel with the shipment.  Asserts each dependency the
figure draws.
"""

import pytest

from repro import casestudy
from repro.core.demands import register_design_demands
from repro.core.recovery import plan_recovery
from repro.techniques.facts import FactsTable
from repro.units import HOUR


def _plan(workload):
    design = casestudy.baseline_design()
    demands = register_design_demands(design, workload, FactsTable())
    scenario = casestudy.site_failure_scenario()
    return plan_recovery(design, demands, scenario, workload)


def test_figure4_recovery_timeline(benchmark, workload):
    plan = benchmark(_plan, workload)
    print()
    print(plan.render_timeline())

    steps = {step.kind: [] for step in plan.steps}
    for step in plan.steps:
        steps[step.kind].append(step)

    ship = steps["shipment"][0]
    load = steps["media-load"][0]
    transfer = steps["transfer"][0]
    provisions = steps["provision"]

    # "Tape shipment from the vault must proceed before the tapes can be
    # loaded at the local site's tape library."
    assert ship.start == 0.0
    assert ship.duration == pytest.approx(24 * HOUR)
    assert load.start >= ship.end

    # "Securing access to hosting facility resources can proceed in
    # parallel with the shipment of tapes."
    assert len(provisions) == 2  # library and array stand-ins
    for provision in provisions:
        assert provision.start == 0.0
        assert provision.duration == pytest.approx(9 * HOUR)
        assert provision.end < ship.end

    # "Data transfer to the primary array cannot begin until array
    # resources have been adequately reprovisioned" — and until the
    # tapes are loaded.
    assert transfer.start >= max(load.end, provisions[-1].end)

    # "Recovery completes once the full backup ... is transferred."
    assert plan.recovery_time == pytest.approx(transfer.end)
    assert plan.recovery_time == pytest.approx(26.4 * HOUR, rel=0.05)
    assert plan.source_name == "remote vaulting"
