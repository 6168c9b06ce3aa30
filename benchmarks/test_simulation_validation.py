"""Simulation validation — the paper's future-work item, realized.

Runs the discrete-event simulator over the baseline design, injects
failures by sweep, at random, and adversarially, and compares the
measured data loss against the analytic worst-case bound: every sample
must respect the bound, the adversarial campaign must achieve it
(tightness ~1.0), and the mean must sit well below it (the worst case
is a worst case).
"""

import pytest

from repro import casestudy
from repro.reporting import Table
from repro.scenarios import FailureScenario
from repro.simulation import (
    DependabilitySimulator,
    adversarial_times,
    random_times,
    summarize_losses,
    sweep_times,
)
from repro.units import HOUR, WEEK


def _campaign():
    simulator = DependabilitySimulator(
        casestudy.baseline_design(), horizon=320 * WEEK
    )
    simulator.build()
    scenario = FailureScenario.array_failure("primary-array")
    start, end = simulator.steady_state_window()
    campaigns = {
        "sweep (300)": simulator.measure_losses(
            scenario, sweep_times(start, end, 300)
        ),
        "random (300)": simulator.measure_losses(
            scenario, random_times(start, end, 300, seed=7)
        ),
        "adversarial": simulator.measure_losses(
            scenario, adversarial_times(simulator, 2, start, end)
        ),
    }
    return simulator, scenario, campaigns


def test_simulated_losses_validate_analytic_bound(benchmark):
    simulator, scenario, campaigns = benchmark(_campaign)
    bound = simulator.analytic_bound(scenario)

    table = Table(
        headers=["campaign", "samples", "max (hr)", "mean (hr)", "p95 (hr)",
                 "bound (hr)", "tightness"],
        title="Simulated vs analytic data loss (array failure, baseline)",
    )
    stats = {}
    for name, samples in campaigns.items():
        stats[name] = summarize_losses(samples)
        s = stats[name]
        table.add_row(
            name, s.count, f"{s.max_loss / HOUR:.1f}", f"{s.mean_loss / HOUR:.1f}",
            f"{s.p95_loss / HOUR:.1f}", f"{bound / HOUR:.1f}",
            f"{s.tightness(bound):.3f}",
        )
    print()
    print(table.render())

    assert bound == pytest.approx(217 * HOUR)
    for name, s in stats.items():
        assert s.total_loss_count == 0, name
        assert s.within_bound(bound), name
    # Adversarial injection realizes the worst case.
    assert stats["adversarial"].tightness(bound) > 0.99
    # Typical losses are far milder than the worst case.
    assert stats["sweep (300)"].mean_loss < 0.75 * bound
