"""Table 5 — normal-mode bandwidth and capacity utilization.

Regenerates the baseline configuration's per-device, per-technique
utilization and checks every percentage against the paper's row values.
"""

import pytest

from repro import casestudy
from repro.core import compute_utilization
from repro.core.demands import register_design_demands
from repro.reporting import utilization_report
from repro.techniques.facts import FactsTable
from repro.units import GB, MB, TB

#: Paper Table 5 values: (technique, bw fraction, cap fraction).
PAPER_ARRAY_ROWS = {
    "foreground workload": (0.002, 0.146),
    "split mirror": (0.006, 0.728),
    "backup": (0.016, 0.0),
}


def _compute(workload):
    design = casestudy.baseline_design()
    demands = register_design_demands(design, workload, FactsTable())
    return compute_utilization(design, demands, strict=True)


def test_table5_normal_mode_utilization(benchmark, workload):
    utilization = benchmark(_compute, workload)
    print()
    print(utilization_report(utilization, title="Table 5: normal mode utilization"))

    array = utilization.device("primary-array")
    assert array.bandwidth_utilization == pytest.approx(0.024, abs=0.002)
    assert array.capacity_utilization == pytest.approx(0.874, abs=0.005)
    assert array.bandwidth_demand == pytest.approx(12.4 * MB, rel=0.03)
    assert array.capacity_demand_logical == pytest.approx(8.0 * TB, rel=0.01)

    per_technique = {t.technique: t for t in array.by_technique}
    for name, (bw, cap) in PAPER_ARRAY_ROWS.items():
        assert per_technique[name].bandwidth_utilization == pytest.approx(
            bw, abs=0.002
        ), name
        assert per_technique[name].capacity_utilization == pytest.approx(
            cap, abs=0.005
        ), name

    library = utilization.device("tape-library")
    assert library.bandwidth_utilization == pytest.approx(0.034, abs=0.002)
    assert library.capacity_utilization == pytest.approx(0.034, abs=0.002)
    assert library.bandwidth_demand == pytest.approx(8.1 * MB, rel=0.02)
    assert library.capacity_demand_logical == pytest.approx(6.6 * TB, rel=0.02)

    vault = utilization.device("vault")
    assert vault.bandwidth_utilization == 0.0
    assert vault.capacity_utilization == pytest.approx(0.026, abs=0.002)
    assert vault.capacity_demand_logical == pytest.approx(51.8 * TB, rel=0.02)

    assert utilization.max_capacity_device == "primary-array"
    assert utilization.feasible
