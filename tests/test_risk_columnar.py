"""The columnar risk path against a per-member oracle.

``assess_risk`` reads a generated grid as columns and builds member
objects only when something reads them.  The oracle below is the
per-member implementation it replaced, kept verbatim in spirit: one
``EnsembleMember`` per grid member, one ``MemberOutcome`` per expanded
member, entry tuples for the folds and rows for the Monte Carlo.

Seeded generated ensembles mix declared, k-of-n and correlated
members, cascades with p = 1 and fractional p, infinite severities,
a grid past 10,000 members (five-digit ids sort out of index order)
and declared ids that sort between generated ones.  Every case must
give the same ``repr(to_dict())`` and the same human report.
"""

import random
from typing import Dict, Tuple

import pytest

from repro import casestudy
from repro.engine import EvaluationTask, ResultCache, map_evaluations
from repro.reporting.risk_report import risk_report
from repro.risk import (
    CascadeSpec,
    EnsembleMember,
    EnsembleMembers,
    KofNModel,
    MemberOutcome,
    RiskAssessment,
    ScenarioEnsemble,
    assess_risk,
    compound_poisson_distribution,
    correlated_pair,
    cross_check,
    object_corruption_grid,
    scenario_digest,
)
from repro.scenarios import FailureScenario
from repro.units import HOUR, MB, YEAR, parse_duration
from repro.workload.presets import cello

CASES = 10

#: Declared ids that sort before, between and after generated ones.
ID_POOL = (
    "array", "obj-", "obj-0005a", "obj-00050", "obj-0001.x",
    "obj-9999z", "obj-10000", "obj-1000", "zz-last",
)


# --------------------------------------------------------------------------
# The oracle: per-member objects throughout.
# --------------------------------------------------------------------------


def _oracle_grid(count, total_rate_per_year, distinct_ages, max_age):
    age_span = parse_duration(max_age)
    share = total_rate_per_year / count
    scenarios = [
        FailureScenario.object_corruption(
            object_size=1 * MB,
            recovery_target_age=age_span * (step + 1) / distinct_ages,
        )
        for step in range(distinct_ages)
    ]
    return tuple(
        EnsembleMember.per_year(
            f"obj-{index:04d}", scenarios[index % distinct_ages], share
        )
        for index in range(count)
    )


class _Keys(Dict[FailureScenario, Tuple[str, str]]):
    def __missing__(self, scenario):
        key = self[scenario] = (scenario_digest(scenario), scenario.describe())
        return key


def _by_identity(scenarios):
    return {id(scenario): scenario for scenario in scenarios}


def _oracle_assess(design, workload, ensemble, requirements, *, samples,
                   seed, cache, years=1.0, grid_bins=2048):
    horizon = years * YEAR
    keys = _Keys()
    assessments = {}

    def evaluate(scenarios):
        fresh = {}
        for scenario in _by_identity(scenarios).values():
            digest = keys[scenario][0]
            if digest not in assessments and digest not in fresh:
                fresh[digest] = scenario
        tasks = [
            EvaluationTask(
                name=f"risk:{digest}", workload=workload,
                scenarios=(scenario,), requirements=requirements,
                design=design,
            )
            for digest, scenario in fresh.items()
        ]
        outcomes = map_evaluations(tasks, None, cache, label="risk")
        for (digest, scenario), outcome in zip(fresh.items(), outcomes):
            assert outcome.ok, outcome.error
            assessments[digest] = outcome.value[keys[scenario][1]]

    first_round = [m.scenario for m in ensemble.members]
    first_round.extend(c.primary for c in ensemble.cascades)
    evaluate(first_round)
    expanded = [(m, False) for m in ensemble.members]
    for cascade in ensemble.cascades:
        primary = assessments[keys[cascade.primary][0]]
        expanded.extend((m, True) for m in cascade.split(primary.recovery_time))
    evaluate(m.scenario for m, _ in expanded)

    expanded.sort(key=lambda pair: pair[0].member_id)
    outcomes, rows = [], []
    downtime_entries, loss_entries, penalty_entries = [], [], []
    for member, from_cascade in expanded:
        digest, label = keys[member.scenario]
        assessment = assessments[digest]
        recovery_time = assessment.recovery_time
        data_loss = assessment.recent_data_loss
        penalty_cost = assessment.costs.total_penalties
        rate_per_year = member.rate_per_year
        rate = rate_per_year / YEAR
        outcomes.append(MemberOutcome(
            member_id=member.member_id, scenario=label,
            scenario_digest=digest, rate_per_year=rate_per_year,
            recovery_time=recovery_time, data_loss=data_loss,
            penalty=penalty_cost, from_cascade=from_cascade,
        ))
        rows.append(
            (member.member_id, rate, recovery_time, data_loss, penalty_cost)
        )
        downtime_entries.append((rate, recovery_time))
        loss_entries.append((rate, data_loss))
        penalty_entries.append((rate, penalty_cost))

    declared = sum(m.occurrence_rate for m in ensemble.members)
    total_rate = declared + sum(c.occurrence_rate for c in ensemble.cascades)
    return RiskAssessment(
        ensemble_name=ensemble.name,
        design_name=next(iter(assessments.values())).design_name,
        years=years,
        total_rate_per_year=total_rate * YEAR,
        unique_scenarios=len(assessments),
        members=tuple(outcomes),
        downtime=compound_poisson_distribution(
            downtime_entries, horizon, grid_bins
        ),
        loss=compound_poisson_distribution(loss_entries, horizon, grid_bins),
        penalty=compound_poisson_distribution(
            penalty_entries, horizon, grid_bins
        ),
        monte_carlo=(
            cross_check(rows, horizon, samples, seed) if samples > 0 else None
        ),
        grid_bins=grid_bins,
    )


# --------------------------------------------------------------------------
# Generated cases.
# --------------------------------------------------------------------------


def _scenario(rng):
    return rng.choice((
        FailureScenario.array_failure(),
        FailureScenario.building_disaster(),
        FailureScenario.site_disaster(),
        FailureScenario.object_corruption(1 * MB, rng.choice((6, 30)) * HOUR),
        # No retained copy is this old: infinite severities.
        FailureScenario.object_corruption(1 * MB, 20 * YEAR),
    ))


def _case(seed):
    """``(columnar ensemble, per-member ensemble, samples, features)``."""
    rng = random.Random(seed)
    count = 10_050 if seed == 0 else rng.choice((1, 3, 40, 250, 1200))
    ages = rng.randint(1, min(count, 6))
    # Ages past 20 years outlive every retained copy: infinite severity.
    max_age = rng.choice(("1 wk", "1 wk", "90 yr"))
    total = round(rng.uniform(0.5, 30.0), 3)
    generated = {f"obj-{index:04d}" for index in range(count)}
    pool = [i for i in ID_POOL if i not in generated]
    ids = rng.sample(pool, rng.randint(0 if seed else 3, 4))
    declared = [
        EnsembleMember.per_year(i, _scenario(rng), rng.uniform(0.01, 2.0))
        for i in ids
    ]
    if rng.random() < 0.6:
        model = KofNModel(rng.choice((2, 6)), 1, 2.0 / YEAR, 8 * HOUR)
        declared.append(model.member("raid", FailureScenario.array_failure()))
    if rng.random() < 0.6:
        declared.extend(correlated_pair(
            "arr-bk", FailureScenario.array_failure(),
            FailureScenario.building_disaster(), 0.5 / YEAR,
            rng.choice((0.25, 1.0)),
        ))
    cascades = []
    for index, kind in enumerate(rng.sample(("p1", "p", "rate"), rng.randint(0, 3))):
        cascades.append(CascadeSpec(
            ("casc", "obj-0002x", "site-x")[index],
            FailureScenario.array_failure(),
            rng.uniform(0.001, 0.05) / YEAR,
            _scenario(rng),
            secondary_rate=0.5 / YEAR if kind == "rate" else None,
            probability={"p1": 1.0, "p": 0.3, "rate": None}[kind],
        ))
    grid = object_corruption_grid(
        count, total, distinct_ages=ages, max_age=max_age
    ).members.grid
    name = f"case-{seed}"
    columnar = ScenarioEnsemble(
        name, EnsembleMembers(declared, grid), tuple(cascades)
    )
    oracle = ScenarioEnsemble(
        name,
        tuple(declared) + _oracle_grid(count, total, ages, max_age),
        tuple(cascades),
    )
    samples = rng.choice((0, 300)) if seed else 300
    features = {
        "big grid": count > 10_000,
        "between ids": bool({"obj-0005a", "obj-", "obj-00050"} & set(ids)),
        "kofn": any(m.member_id == "raid" for m in declared),
        "correlated": any(m.member_id == "arr-bk.corr" for m in declared),
        "p = 1": any(c.probability == 1.0 for c in cascades),
        "fractional p": any(
            c.probability != 1.0 for c in cascades
        ),
        "infinite": max_age == "90 yr" or any(
            m.scenario.recovery_target_age == 20 * YEAR for m in declared
        ),
        "samples": samples > 0,
    }
    return columnar, oracle, samples, features


def test_cases_cover_every_feature():
    covered = set()
    for seed in range(CASES):
        features = _case(seed)[3]
        covered.update(name for name, present in features.items() if present)
    assert covered == set(_case(0)[3])


def _same_text(got, expected):
    """Equal strings; a mismatch shows only where they first part."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        pytest.fail(
            f"first difference at {at}: got {got[at - 80:at + 80]!r}, "
            f"expected {expected[at - 80:at + 80]!r}"
        )


@pytest.fixture(scope="module")
def cache():
    return ResultCache(memory_entries=256)


@pytest.mark.parametrize("seed", range(CASES))
def test_columnar_matches_per_member_oracle(seed, cache):
    columnar, oracle, samples, _ = _case(seed)
    design = casestudy.baseline_design()
    workload = cello()
    requirements = casestudy.case_study_requirements()
    expected = _oracle_assess(
        design, workload, oracle, requirements,
        samples=samples, seed=seed, cache=cache,
    )
    for ensemble in (columnar, oracle):
        got = assess_risk(
            design, workload, ensemble, requirements,
            samples=samples, seed=seed, cache=cache,
        )
        assert len(got.members) == len(expected.members)
        _same_text(repr(got.to_dict()), repr(expected.to_dict()))
        _same_text(risk_report(got), risk_report(expected))
        assert got == expected
    assert len(columnar.members) == len(oracle.members)
    assert columnar.total_rate == oracle.total_rate
