"""Human-readable reports for probabilistic risk assessments.

Two views of a :class:`~repro.risk.aggregate.RiskAssessment`:

* :func:`risk_report` — the annualized distributions (mean and
  percentiles per metric), the Monte Carlo cross-check when one ran,
  and the top members by expected annual penalty;
* JSON goes through ``RiskAssessment.to_dict()`` +
  :func:`repro.serialization.canonical_json` in the CLI — this module
  only renders for humans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..units import format_duration, format_money
from .tables import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..risk.aggregate import RiskAssessment
    from ..risk.distributions import RiskDistribution
    from ..risk.montecarlo import BoundCheck


def _duration_cell(seconds: float) -> str:
    if seconds == float("inf"):
        return "unbounded"
    return format_duration(seconds)


def _money_cell(dollars: float) -> str:
    if dollars == float("inf"):
        return "unbounded"
    return format_money(dollars)


def _distribution_rows(
    label: str, distribution: "RiskDistribution", money: bool
) -> "Tuple[str, ...]":
    cell = _money_cell if money else _duration_cell
    return (
        label,
        cell(distribution.mean),
        cell(distribution.p50),
        cell(distribution.p90),
        cell(distribution.p95),
        cell(distribution.p99),
    )


def risk_report(assessment: "RiskAssessment") -> str:
    """The full human-readable risk report."""
    blocks: "List[str]" = []
    header = (
        f"ensemble {assessment.ensemble_name!r} on design "
        f"{assessment.design_name!r}: {len(assessment.members)} members, "
        f"{assessment.unique_scenarios} distinct scenarios, "
        f"{assessment.total_rate_per_year:g} events/yr over "
        f"{assessment.years:g} yr"
    )
    blocks.append(header)

    table = Table(
        headers=["metric", "mean", "p50", "p90", "p95", "p99"],
        title=f"Annualized risk ({assessment.years:g} yr horizon)",
    )
    table.add_row(*_distribution_rows("downtime", assessment.downtime, False))
    table.add_row(*_distribution_rows("data loss", assessment.loss, False))
    table.add_row(*_distribution_rows("penalties", assessment.penalty, True))
    blocks.append(table.render())

    if assessment.monte_carlo is not None:
        mc = assessment.monte_carlo
        table = Table(
            headers=["metric", "mean", "p50", "p90", "p95", "p99"],
            title=(
                f"Monte Carlo cross-check ({mc.samples} samples, "
                f"seed {mc.seed})"
            ),
        )
        table.add_row(*_distribution_rows("downtime", mc.downtime, False))
        table.add_row(*_distribution_rows("data loss", mc.loss, False))
        table.add_row(*_distribution_rows("penalties", mc.penalty, True))
        blocks.append(table.render())

    blocks.append(top_members_report(assessment))
    return "\n\n".join(blocks)


def top_members_report(
    assessment: "RiskAssessment", limit: int = 10
) -> str:
    """The members contributing the most expected annual penalty.

    An assessment's lazy :class:`~repro.risk.aggregate.MemberOutcomes`
    ranks from its columns and builds only the members shown.
    """
    from ..risk.aggregate import MemberOutcomes

    members = assessment.members
    if isinstance(members, MemberOutcomes):
        shown = members.heaviest(limit)
    else:
        shown = sorted(
            members,
            key=lambda m: (-m.expected_penalty_per_year, m.member_id),
        )[:limit]
    table = Table(
        headers=[
            "member", "scenario", "rate/yr", "RT", "DL", "E[penalty]/yr",
        ],
        title=(
            f"Top {len(shown)} of {len(members)} members by expected "
            "annual penalty"
        ),
    )
    for member in shown:
        table.add_row(
            member.member_id + (" (cascade)" if member.from_cascade else ""),
            member.scenario,
            f"{member.rate_per_year:g}",
            _duration_cell(member.recovery_time),
            _duration_cell(member.data_loss),
            _money_cell(member.expected_penalty_per_year),
        )
    return table.render()


def bound_check_report(checks: "List[BoundCheck]") -> str:
    """Simulated losses against the analytic bound, one row per member."""
    table = Table(
        headers=["member", "scenario", "bound", "max simulated", "ok"],
        title="Simulation cross-check: measured loss vs analytic bound",
    )
    for check in checks:
        table.add_row(
            check.member_id,
            check.scenario,
            _duration_cell(check.analytic_bound),
            _duration_cell(check.max_simulated),
            "yes" if check.within_bound else "NO",
        )
    return table.render()
