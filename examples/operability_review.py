#!/usr/bin/env python3
"""An operability review: the questions an SRE asks beyond the paper.

Uses the framework's extension modules on the baseline design:

* **recovery options** — every viable recovery source per failure, with
  its loss/time trade (the paper always picks the loss-optimal source);
* **headroom** — how much workload growth the design absorbs before a
  device over-commits;
* **expected availability** — frequency-weighted downtime and "nines";
* **degraded-mode exposure** — how a two-week tape-backup outage
  inflates the data-loss exposure, and how long recovery takes to
  normalize after service restoration.

Run:  python examples/operability_review.py
"""

from repro import casestudy
from repro.core.demands import register_design_demands
from repro.core.options import recovery_options
from repro.design import (
    FailureFrequencies,
    expected_availability,
    max_supported_capacity,
    max_supported_scale,
)
from repro.reporting import Table
from repro.scenarios import FailureScenario
from repro.simulation import exposure_profile
from repro.techniques.facts import FactsTable
from repro.units import HOUR, MB, WEEK, format_duration
from repro.workload.presets import cello


def main() -> None:
    workload = cello()
    requirements = casestudy.case_study_requirements()

    # 1. Recovery options for a day-old object rollback.
    design = casestudy.baseline_design()
    demands = register_design_demands(design, workload, FactsTable())
    scenario = FailureScenario.object_corruption(1 * MB, "24 hr")
    table = Table(
        headers=["recovery source", "worst-case loss", "recovery time"],
        title="Recovery options: 1 MB object, 24 h rollback",
    )
    for option in recovery_options(design, demands, scenario, workload):
        table.add_row(
            option.source_name,
            format_duration(option.data_loss),
            format_duration(option.recovery_time),
        )
    print(table.render())
    print("(the paper's rule picks the first row: loss-optimal)\n")

    # 2. Headroom.
    scale = max_supported_scale(casestudy.baseline_design(), workload)
    growth = max_supported_capacity(casestudy.baseline_design(), workload)
    print(
        f"headroom: rates can grow {scale:.1f}x before a bandwidth envelope "
        f"binds; the dataset can grow {growth:.2f}x before the array's "
        "capacity binds (it runs at 87% today).\n"
    )

    # 3. Expected availability under assumed failure frequencies.
    frequencies = FailureFrequencies(
        [
            (casestudy.array_failure_scenario(), 0.5),   # one array loss / 2 yr
            (casestudy.site_failure_scenario(), 0.01),   # site disaster / century
        ]
    )
    summary = expected_availability(
        casestudy.baseline_design, workload, frequencies, requirements
    )
    print(
        f"expected availability: {summary.availability:.5%} "
        f"({summary.nines:.1f} nines; "
        f"{summary.expected_annual_downtime / HOUR:.1f} h expected "
        "downtime/yr)\n"
    )

    # 4. Degraded-mode exposure: tape backup down for two weeks.
    profile = exposure_profile(
        casestudy.baseline_design,
        FailureScenario.array_failure("primary-array"),
        level_index=2,
        outage_start=40 * WEEK,
        outage_duration=2 * WEEK,
        horizon=320 * WEEK,
        probes=13,
    )
    table = Table(
        headers=["probe (vs outage start)", "healthy loss", "degraded loss",
                 "extra exposure"],
        title="Exposure profile: tape backup out for 2 weeks",
    )
    for point in profile.points:
        table.add_row(
            format_duration(point.probe_time - profile.outage_start),
            format_duration(point.healthy_loss),
            format_duration(point.degraded_loss),
            format_duration(point.extra_exposure),
        )
    print(table.render())
    print(
        f"peak extra exposure: {format_duration(profile.peak_extra_exposure)}; "
        "exposure normalizes "
        f"{format_duration(profile.recovery_probe() - profile.outage_end)} "
        "after service restoration."
    )


if __name__ == "__main__":
    main()
