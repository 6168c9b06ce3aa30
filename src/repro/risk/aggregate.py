"""The analytic risk aggregator: ensemble in, annualized risk out.

:func:`assess_risk` is the subsystem's workhorse.  It evaluates every
distinct scenario an ensemble references through the parallel,
cache-aware engine (:func:`repro.engine.map_evaluations`), then folds
the per-event severities — worst-case recovery time, recent data loss
and outage penalties from each :class:`~repro.core.results.Assessment`
— with the members' occurrence rates into annualized
expected-downtime / expected-loss / expected-penalty distributions
(:mod:`repro.risk.distributions`).

Two properties make large generated ensembles cheap:

* **content-addressed dedup** — members are grouped by the digest of
  their scenario's canonical serialization, so a 1000-member ensemble
  over 64 distinct scenarios costs 64 evaluations, and the engine's
  result cache makes repeat runs nearly free.  Members are keyed
  structurally: each call keeps one :class:`_ScenarioKeys` map from
  scenario *value* to its digest and label, so the digest is computed
  once per distinct scenario.  Members are first collapsed to their
  distinct scenario *objects* by identity, so the value map is hashed
  once per object, not once per member;
* **two-round cascades** — cascade splits need the *evaluator's own*
  recovery time for the primary fault, so primaries are evaluated
  first, every :class:`~repro.risk.ensemble.CascadeSpec` is expanded
  with the measured recovery times, and only then are the escalated
  scenarios (usually already deduplicated away) evaluated;
* **a member table** — a generated grid stays a rule
  (:class:`~repro.risk.ensemble.MemberGrid`).  The few declared,
  correlated and cascade-expanded members are merged into its
  member-id order as columns: a rate per row and an index into a
  short list of scenario slots, whose severities are looked up once.
  The folds and the Monte Carlo read the columns, and
  :class:`MemberOutcomes` builds a :class:`MemberOutcome` only when
  one is read.  Every float is computed, and every sum taken, in the
  same order as a per-member loop would, so the report's bytes do
  not change.

Everything downstream of the evaluations is deterministic arithmetic,
so the JSON report is byte-identical across serial, parallel and
warm-cache runs — the property the CI ``risk`` job diffs for.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.hierarchy import StorageDesign
from ..core.results import Assessment
from ..engine import (
    DesignOrFactory,
    EngineConfig,
    EvaluationTask,
    ResultCache,
    map_evaluations,
)
from ..exceptions import RiskError
from ..obs import get_metrics, get_tracer
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..serialization import canonical_json, scenario_to_dict
from ..units import Seconds, YEAR
from ..workload.spec import Workload
from .distributions import (
    EntryColumns,
    RiskDistribution,
    compound_poisson_distribution,
)
from .ensemble import (
    EnsembleMember,
    LazySequence,
    MemberGrid,
    MemberIds,
    ScenarioEnsemble,
)
from .montecarlo import MonteCarloResult, SeverityTable, cross_check


def scenario_digest(scenario: FailureScenario) -> str:
    """A stable content digest of one scenario's canonical form."""
    payload = canonical_json(scenario_to_dict(scenario))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _ScenarioKeys(Dict[FailureScenario, Tuple[str, str]]):
    """One call's ``scenario -> (digest, label)`` map.

    Keyed by the frozen scenario's value, so equal scenarios share one
    entry whether or not they are the same object; a miss computes the
    digest and :meth:`~FailureScenario.describe` label once.  Local to
    one :func:`assess_risk` call — there is no process-wide memo.
    """

    def __missing__(self, scenario: FailureScenario) -> "Tuple[str, str]":
        key = self[scenario] = (scenario_digest(scenario), scenario.describe())
        return key


@dataclass(frozen=True)
class MemberOutcome:
    """One expanded member: rate x evaluated per-event severities."""

    member_id: str
    scenario: str
    scenario_digest: str
    rate_per_year: float
    #: Per-event severities (worst case, straight from the evaluator).
    recovery_time: Seconds
    data_loss: Seconds
    penalty: float
    #: True for members produced by expanding a cascade spec.
    from_cascade: bool = False

    @property
    def expected_downtime_per_year(self) -> float:
        return _expected(self.rate_per_year, self.recovery_time)

    @property
    def expected_loss_per_year(self) -> float:
        return _expected(self.rate_per_year, self.data_loss)

    @property
    def expected_penalty_per_year(self) -> float:
        return _expected(self.rate_per_year, self.penalty)

    def to_dict(self) -> "Dict[str, object]":
        return {
            "member_id": self.member_id,
            "scenario": self.scenario,
            "scenario_digest": self.scenario_digest,
            "rate_per_year": self.rate_per_year,
            "recovery_time": self.recovery_time,
            "data_loss": self.data_loss,
            "penalty": self.penalty,
            "from_cascade": self.from_cascade,
            "expected_downtime_per_year": self.expected_downtime_per_year,
            "expected_loss_per_year": self.expected_loss_per_year,
            "expected_penalty_per_year": self.expected_penalty_per_year,
        }


class MemberOutcomes(LazySequence[MemberOutcome]):
    """An assessment's members as columns, in member-id order.

    ``rows`` is the severity table the folds and the Monte Carlo read;
    this view adds each row's rate per year and cascade flag and each
    scenario slot's ``(label, digest)``.  ``len()`` is the row count;
    a :class:`MemberOutcome` is built only when one is read.
    """

    __slots__ = ("rows", "rates_per_year", "from_cascade", "scenarios")

    def __init__(
        self,
        rows: SeverityTable,
        rates_per_year: "Sequence[float]",
        from_cascade: "Sequence[bool]",
        scenarios: "Sequence[Tuple[str, str]]",
    ) -> None:
        self.rows = rows
        self.rates_per_year = rates_per_year
        self.from_cascade = from_cascade
        self.scenarios = scenarios

    def __len__(self) -> int:
        return len(self.rows)

    def _outcome(
        self, member_id: str, slot: int, rate_per_year: float, cascaded: bool
    ) -> MemberOutcome:
        label, digest = self.scenarios[slot]
        recovery_time, data_loss, penalty = self.rows.severities[slot]
        return MemberOutcome(
            member_id=member_id,
            scenario=label,
            scenario_digest=digest,
            rate_per_year=rate_per_year,
            recovery_time=recovery_time,
            data_loss=data_loss,
            penalty=penalty,
            from_cascade=cascaded,
        )

    def _item(self, row: int) -> MemberOutcome:
        return self._outcome(
            self.rows.ids[row],
            self.rows.slots[row],
            self.rates_per_year[row],
            self.from_cascade[row],
        )

    def __iter__(self) -> "Iterator[MemberOutcome]":
        return map(
            self._outcome,
            self.rows.ids,
            self.rows.slots,
            self.rates_per_year,
            self.from_cascade,
        )

    def heaviest(self, limit: int) -> "List[MemberOutcome]":
        """The ``limit`` members with the most expected annual penalty.

        The head of sorting every member by ``(-penalty, member_id)``,
        built without them: rows are in id order, so the row index
        breaks ties, and the penalty is worked out once per (slot,
        rate) pair.
        """
        pairs = list(zip(self.rows.slots, self.rates_per_year))
        penalty = {
            pair: _expected(pair[1], self.rows.severities[pair[0]][2])
            for pair in set(pairs)
        }
        column = list(map(penalty.__getitem__, pairs))
        rows = heapq.nsmallest(
            limit, range(len(column)), key=lambda row: (-column[row], row)
        )
        return [self[row] for row in rows]

    def to_dicts(self) -> "List[Dict[str, object]]":
        """Each member's :meth:`MemberOutcome.to_dict`, in order.

        Rows that share a slot, a rate and a cascade flag differ only
        in their id, so each distinct triple is rendered once; a row is
        a copy of its triple's dict with the id set in place, which
        keeps ``member_id`` the first key.
        """
        keys = zip(self.rows.slots, self.rates_per_year, self.from_cascade)
        rendered = list(map(dict.copy, map(_Rendered(self).__getitem__, keys)))
        for row, member_id in zip(rendered, self.rows.ids):
            row["member_id"] = member_id
        return rendered


class _Rendered(Dict[Tuple[int, float, bool], Dict[str, object]]):
    """``(slot, rate per year, cascade flag) -> MemberOutcome.to_dict()``
    of one :class:`MemberOutcomes`, each rendered on its first lookup
    (its ``member_id`` is left for the caller to set)."""

    def __init__(self, outcomes: MemberOutcomes) -> None:
        super().__init__()
        self.outcomes = outcomes

    def __missing__(self, key: "Tuple[int, float, bool]") -> "Dict[str, object]":
        rendered = self[key] = self.outcomes._outcome("", *key).to_dict()
        return rendered


def _expected(rate_per_year: float, severity: float) -> float:
    """Rate x severity with the inf * 0 convention: no events, no risk."""
    if severity == 0 or rate_per_year == 0:
        return 0.0
    return rate_per_year * severity


@dataclass(frozen=True)
class RiskAssessment:
    """Everything one ensemble assessment produced."""

    ensemble_name: str
    design_name: str
    years: float
    total_rate_per_year: float
    unique_scenarios: int
    #: :class:`MemberOutcomes` from :func:`assess_risk`; any sequence
    #: of :class:`MemberOutcome` renders the same way.
    members: "Sequence[MemberOutcome]"
    downtime: RiskDistribution
    loss: RiskDistribution
    penalty: RiskDistribution
    monte_carlo: "Optional[MonteCarloResult]" = None
    grid_bins: int = field(default=2048, compare=False)

    @property
    def expected_downtime_per_year(self) -> float:
        return self.downtime.mean / self.years

    @property
    def expected_loss_per_year(self) -> float:
        return self.loss.mean / self.years

    @property
    def expected_penalty_per_year(self) -> float:
        return self.penalty.mean / self.years

    def to_dict(self) -> "Dict[str, object]":
        """A stable, cache-independent JSON form.

        Deliberately excludes anything that varies across equivalent
        runs (cache hits, timings, worker counts) so serial, parallel
        and warm-cache invocations serialize byte-identically.
        """
        data: "Dict[str, object]" = {
            "schema": 1,
            "kind": "risk_assessment",
            "ensemble": self.ensemble_name,
            "design": self.design_name,
            "years": self.years,
            "total_rate_per_year": self.total_rate_per_year,
            "members": len(self.members),
            "unique_scenarios": self.unique_scenarios,
            "downtime": self.downtime.to_dict(),
            "loss": self.loss.to_dict(),
            "penalty": self.penalty.to_dict(),
            "per_member": (
                self.members.to_dicts()
                if isinstance(self.members, MemberOutcomes)
                else [m.to_dict() for m in self.members]
            ),
        }
        if self.monte_carlo is not None:
            data["monte_carlo"] = self.monte_carlo.to_dict()
        return data


def assess_risk(
    design: DesignOrFactory,
    workload: Workload,
    ensemble: ScenarioEnsemble,
    requirements: BusinessRequirements,
    *,
    years: float = 1.0,
    samples: int = 0,
    seed: int = 0,
    grid_bins: int = 2048,
    config: "Optional[EngineConfig]" = None,
    cache: "Optional[ResultCache]" = None,
) -> RiskAssessment:
    """Assess a design's annualized risk under a scenario ensemble.

    ``design`` is a built :class:`StorageDesign` or a zero-argument
    factory (the design-space convention).  ``samples > 0`` adds the
    seeded Monte Carlo cross-check.  ``config`` / ``cache`` ride the
    existing engine fabric — workers, result cache, telemetry — and
    never change the numbers.
    """
    if not years > 0:
        raise RiskError(f"assessment horizon must be positive, got {years!r}")
    if not isinstance(design, StorageDesign) and not callable(design):
        raise RiskError(
            f"design must be a StorageDesign or a factory, got {design!r}"
        )
    metrics = get_metrics()
    tracer = get_tracer()
    with tracer.span(
        "risk.assess", ensemble=ensemble.name, members=len(ensemble)
    ):
        horizon = years * YEAR
        keys = _ScenarioKeys()
        assessments: "Dict[str, Assessment]" = {}
        evaluate = _make_evaluator(
            design, workload, requirements, config, cache, keys, assessments
        )

        members = ensemble.members
        grid = members.grid
        # Round 1: declared members, the grid's scenario cycle and every
        # cascade's primary (whose recovery time sets the cascade
        # probability).
        first_round = [m.scenario for m in members.declared]
        if grid is not None:
            first_round.extend(grid.scenarios)
        first_round.extend(c.primary for c in ensemble.cascades)
        evaluate(first_round)

        explicit: "List[Tuple[EnsembleMember, bool]]" = [
            (m, False) for m in members.declared
        ]
        for cascade in ensemble.cascades:
            primary = assessments[keys[cascade.primary][0]]
            explicit.extend(
                (m, True) for m in cascade.split(primary.recovery_time)
            )

        # Round 2: escalated scenarios the splits introduced (already
        # in ``assessments`` if any declared member shares them).
        evaluate(m.scenario for m, _ in explicit)

        outcomes = _member_table(grid, explicit, keys, assessments)
        rows = outcomes.rows
        with tracer.span("risk.fold", entries=len(rows)):
            downtime = compound_poisson_distribution(
                EntryColumns(rows.rates, rows.column(0)), horizon, grid_bins
            )
            loss = compound_poisson_distribution(
                EntryColumns(rows.rates, rows.column(1)), horizon, grid_bins
            )
            penalty = compound_poisson_distribution(
                EntryColumns(rows.rates, rows.column(2)), horizon, grid_bins
            )

        monte_carlo = None
        if samples > 0:
            monte_carlo = cross_check(rows, horizon, samples, seed)

        metrics.inc("risk.assessments")
        metrics.inc("risk.members", len(outcomes))
        metrics.set_gauge("risk.unique_scenarios", len(assessments))
        design_name = next(iter(assessments.values())).design_name
        return RiskAssessment(
            ensemble_name=ensemble.name,
            design_name=design_name,
            years=years,
            total_rate_per_year=ensemble.total_rate * YEAR,
            unique_scenarios=len(assessments),
            members=outcomes,
            downtime=downtime,
            loss=loss,
            penalty=penalty,
            monte_carlo=monte_carlo,
            grid_bins=grid_bins,
        )


def _member_table(
    grid: "Optional[MemberGrid]",
    explicit: "List[Tuple[EnsembleMember, bool]]",
    keys: _ScenarioKeys,
    assessments: "Dict[str, Assessment]",
) -> "MemberOutcomes":
    """The expanded members as columns, in member-id order.

    ``explicit`` (declared, correlated and cascade-expanded members,
    with their cascade flags) is merged into the grid's rows by id.
    Scenario slots are the grid's cycle, then each distinct explicit
    scenario object; digest, label and severities are looked up once
    per slot.  Each row's rate is ``rate_per_year / YEAR`` from its
    own member, exactly as a per-member loop computes it.
    """
    explicit.sort(key=lambda pair: pair[0].member_id)
    ids = MemberIds(grid, [member.member_id for member, _ in explicit])
    scenarios: "List[FailureScenario]" = []
    slots: "List[int]" = []
    rates_per_year: "List[float]" = []
    rates: "List[float]" = []
    if grid is not None:
        scenarios.extend(grid.scenarios)
        slots = grid.scenario_column(ids.order)
        # As ``EnsembleMember.rate_per_year`` computes it.
        rate_per_year = grid.occurrence_rate * YEAR
        rates_per_year = [rate_per_year] * grid.count
        rates = [rate_per_year / YEAR] * grid.count
    from_cascade = [False] * len(slots)
    slot_of: "Dict[int, int]" = {}
    for position, (member, cascaded) in zip(ids.positions, explicit):
        slot = slot_of.setdefault(id(member.scenario), len(scenarios))
        if slot == len(scenarios):
            scenarios.append(member.scenario)
        rate_per_year = member.rate_per_year
        slots.insert(position, slot)
        rates_per_year.insert(position, rate_per_year)
        rates.insert(position, rate_per_year / YEAR)
        from_cascade.insert(position, cascaded)
    labels = []
    severities = []
    for scenario in scenarios:
        digest, label = keys[scenario]
        assessment = assessments[digest]
        labels.append((label, digest))
        severities.append(
            (
                assessment.recovery_time,
                assessment.recent_data_loss,
                assessment.costs.total_penalties,
            )
        )
    rows = SeverityTable(ids, rates, slots, severities)
    return MemberOutcomes(rows, rates_per_year, from_cascade, labels)


def _by_identity(
    scenarios: "Iterable[FailureScenario]",
) -> "Dict[int, FailureScenario]":
    """``id(scenario) -> scenario`` per distinct object, in first-seen order.

    Members share scenario objects, so looking each object up once in
    :class:`_ScenarioKeys` hashes per object rather than per member.
    The dict holds the objects, so their ids stay unique while it lives.
    """
    return {id(scenario): scenario for scenario in scenarios}


def _make_evaluator(
    design: DesignOrFactory,
    workload: Workload,
    requirements: BusinessRequirements,
    config: "Optional[EngineConfig]",
    cache: "Optional[ResultCache]",
    keys: _ScenarioKeys,
    assessments: "Dict[str, Assessment]",
) -> "Callable[[Iterable[FailureScenario]], None]":
    """An incremental evaluator that fills ``assessments`` by digest.

    Each call evaluates only scenarios whose digest (read from
    ``keys``) is still unknown — one engine task per *unique*
    scenario, named ``risk:{digest}`` so run ledgers and traces
    attribute work to content, not member ids.
    """

    def evaluate(scenarios: "Iterable[FailureScenario]") -> None:
        fresh: "Dict[str, FailureScenario]" = {}
        for scenario in _by_identity(scenarios).values():
            digest = keys[scenario][0]
            if digest not in assessments and digest not in fresh:
                fresh[digest] = scenario
        if not fresh:
            return
        tasks = [
            EvaluationTask(
                name=f"risk:{digest}",
                workload=workload,
                scenarios=(scenario,),
                requirements=requirements,
                design=design,
            )
            for digest, scenario in fresh.items()
        ]
        outcomes = map_evaluations(tasks, config, cache, label="risk")
        for (digest, scenario), outcome in zip(fresh.items(), outcomes):
            if not outcome.ok:
                error = outcome.error
                assert error is not None
                raise error
            assessments[digest] = outcome.value[keys[scenario][1]]

    return evaluate


def degenerate_assessment(
    assessment: Assessment, member_id: str = "only"
) -> MemberOutcome:
    """The MemberOutcome a one-member, 1/yr ensemble must reproduce.

    A convenience for tests and docs: wraps a deterministic
    :func:`repro.core.evaluate.evaluate` result in the outcome shape
    so equality against :func:`assess_risk` output is a one-liner.
    """
    return MemberOutcome(
        member_id=member_id,
        scenario=assessment.scenario.describe(),
        scenario_digest=scenario_digest(assessment.scenario),
        rate_per_year=1.0,
        recovery_time=assessment.recovery_time,
        data_loss=assessment.recent_data_loss,
        penalty=assessment.costs.total_penalties,
    )
