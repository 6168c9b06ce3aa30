#!/usr/bin/env python3
"""Validating the analytic worst cases with discrete-event simulation.

Simulates six years of the baseline design's retrieval-point lifecycle,
injects array failures by sweep and adversarially, and compares the
measured data loss against the analytic worst-case bound.  Then runs a
degraded-mode study: how does two weeks of tape-backup downtime change
the exposure?

Run:  python examples/simulation_validation.py
"""

from repro import casestudy
from repro.reporting import Table
from repro.scenarios import FailureScenario
from repro.simulation import (
    DependabilitySimulator,
    adversarial_times,
    summarize_losses,
    sweep_times,
)
from repro.units import HOUR, WEEK


def main() -> None:
    simulator = DependabilitySimulator(
        casestudy.baseline_design(), horizon=320 * WEEK
    )
    simulator.build()
    print(
        f"simulated {simulator.horizon / WEEK:.0f} weeks, "
        f"{simulator.engine.processed} RP events\n"
    )

    scenario = FailureScenario.array_failure("primary-array")
    bound = simulator.analytic_bound(scenario)
    start, end = simulator.steady_state_window()

    table = Table(
        headers=["campaign", "max (hr)", "mean (hr)", "p95 (hr)",
                 "analytic bound (hr)"],
        title="Measured vs analytic data loss (array failure)",
    )
    for label, times in (
        ("sweep, 500 failures", sweep_times(start, end, 500)),
        ("adversarial", adversarial_times(simulator, 2, start, end)),
    ):
        stats = summarize_losses(simulator.measure_losses(scenario, times))
        table.add_row(
            label,
            f"{stats.max_loss / HOUR:.1f}",
            f"{stats.mean_loss / HOUR:.1f}",
            f"{stats.p95_loss / HOUR:.1f}",
            f"{bound / HOUR:.1f}",
        )
    print(table.render())
    print()

    # Degraded mode: tape backup service down for two weeks.
    degraded = DependabilitySimulator(
        casestudy.baseline_design(), horizon=320 * WEEK
    )
    outage_start = start + 2 * WEEK
    degraded.disable_level(2, outage_start, outage_start + 2 * WEEK)
    degraded.build()

    table = Table(
        headers=["failure instant", "healthy loss (hr)", "degraded loss (hr)"],
        title="Degraded mode: two weeks without tape backup",
    )
    for offset_weeks in (0.5, 1.0, 2.0, 3.0):
        probe = outage_start + offset_weeks * WEEK
        healthy_loss = simulator.measure_loss(scenario, probe).data_loss
        degraded_loss = degraded.measure_loss(scenario, probe).data_loss
        table.add_row(
            f"outage start + {offset_weeks:g} wk",
            f"{healthy_loss / HOUR:.1f}",
            f"{degraded_loss / HOUR:.1f}",
        )
    print(table.render())
    print()
    print(
        "Takeaway: the analytic bound is both safe (never exceeded) and "
        "tight (achieved by adversarial failure times); a backup outage "
        "inflates exposure by roughly its own duration."
    )


if __name__ == "__main__":
    main()
