"""The probabilistic risk subsystem: ensembles, k-of-n, folding, MC.

The load-bearing contracts:

* a one-member, 1-per-year ensemble reproduces the deterministic
  ``evaluate`` result exactly (the degenerate anchor);
* cascade and correlation splits conserve total rate;
* the analytic compound-Poisson fold matches the seeded Monte Carlo
  cross-check within grid resolution;
* the cross-check draws one substream per severity group and, when
  every group is one member, matches the per-member sampler bit for
  bit;
* the JSON report is byte-identical across serial, parallel, factory
  and warm-cache runs.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro import casestudy
from repro.core.evaluate import evaluate
from repro.engine import EngineConfig, EvaluationTask, ResultCache, task_key
from repro.exceptions import DesignError, ReproError, RiskError
from repro.obs import MetricsRegistry, Telemetry, Tracer, use
from repro.risk import (
    CascadeSpec,
    EnsembleMember,
    KofNModel,
    ScenarioEnsemble,
    array_failure_during_backup_window,
    assess_risk,
    compound_poisson_distribution,
    correlated_pair,
    cross_check,
    degenerate_assessment,
    empirical_distribution,
    object_corruption_grid,
    scenario_digest,
    simulated_loss_check,
)
from repro.risk import aggregate, distributions, montecarlo
from repro.risk.distributions import (
    NORMAL_APPROX_INTENSITY,
    PERCENTILES,
    _probit,
)
from repro.risk.montecarlo import MonteCarloResult
from repro.scenarios import FailureScenario
from repro.serialization import (
    canonical_json,
    design_from_spec,
    ensemble_from_spec,
    ensemble_to_dict,
    requirements_from_spec,
    scenario_from_dict,
    scenario_to_dict,
    workload_from_spec,
)
from repro.simulation.failure_injection import substream_rng
from repro.units import DAY, HOUR, MB, MINUTE, WEEK, YEAR
from repro.workload.presets import cello

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def baseline():
    return casestudy.baseline_design()


@pytest.fixture(scope="module")
def workload():
    return cello()


@pytest.fixture(scope="module")
def requirements():
    return casestudy.case_study_requirements()


def array():
    return FailureScenario.array_failure()


def site():
    return casestudy.site_failure_scenario()


class TestRiskError:
    def test_is_model_error_and_value_error(self):
        assert issubclass(RiskError, ReproError)
        assert issubclass(RiskError, ValueError)


class TestEnsembleMember:
    def test_per_year_round_trips(self):
        member = EnsembleMember.per_year("m", array(), 2.0)
        assert member.rate_per_year == pytest.approx(2.0, rel=1e-12)
        assert member.occurrence_rate == pytest.approx(2.0 / YEAR)

    def test_empty_id_rejected(self):
        with pytest.raises(RiskError, match="non-empty"):
            EnsembleMember("", array(), 1.0 / YEAR)

    def test_non_positive_rate_rejected(self):
        for rate in (0.0, -1.0, float("nan")):
            with pytest.raises(RiskError, match="non-positive"):
                EnsembleMember("m", array(), rate)


class TestEnsemble:
    def test_duplicate_ids_rejected_across_groups(self):
        cascade = CascadeSpec(
            "twin", array(), 0.1 / YEAR, site(), probability=0.5
        )
        with pytest.raises(RiskError, match="duplicate member id"):
            ScenarioEnsemble(
                "e",
                (EnsembleMember.per_year("twin", array(), 1.0),),
                (cascade,),
            )

    def test_escalated_cascade_id_is_reserved(self):
        # Cascade "c" expands into "c" and "c.cascade"; a declared
        # "c.cascade" would share that id and its Monte Carlo substream.
        cascade = CascadeSpec(
            "c", array(), 0.1 / YEAR, site(), probability=0.5
        )
        declared = (EnsembleMember.per_year("c.cascade", array(), 1.0),)
        with pytest.raises(RiskError, match=r"'c\.cascade'.*'c'"):
            ScenarioEnsemble("e", declared, (cascade,))
        nested = CascadeSpec(
            "c.cascade", array(), 0.1 / YEAR, site(), probability=0.5
        )
        with pytest.raises(RiskError, match=r"'c\.cascade'.*'c'"):
            ScenarioEnsemble("e", (), (cascade, nested))
        # Ids that only look alike are fine.
        ScenarioEnsemble(
            "e",
            (EnsembleMember.per_year("c.cascade2", array(), 1.0),),
            (cascade,),
        )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(RiskError, match="no members"):
            ScenarioEnsemble("empty", ())

    def test_total_rate_includes_cascades(self):
        cascade = CascadeSpec(
            "c", array(), 0.25 / YEAR, site(), probability=0.5
        )
        ensemble = ScenarioEnsemble(
            "e",
            (EnsembleMember.per_year("m", array(), 1.0),),
            (cascade,),
        )
        assert len(ensemble) == 2
        assert ensemble.total_rate * YEAR == pytest.approx(1.25, rel=1e-12)


class TestObjectCorruptionGrid:
    def test_members_share_one_object_per_distinct_age(self):
        count, ages = 50, 7
        ensemble = object_corruption_grid(count, 6.0, distinct_ages=ages)
        assert len({id(m.scenario) for m in ensemble.members}) == ages
        span = 1 * WEEK
        expected = [
            (
                f"obj-{index:04d}",
                FailureScenario.object_corruption(
                    object_size=1 * MB,
                    recovery_target_age=span * ((index % ages) + 1) / ages,
                ),
                6.0 / count / YEAR,
            )
            for index in range(count)
        ]
        assert [
            (m.member_id, m.scenario, m.occurrence_rate)
            for m in ensemble.members
        ] == expected


class TestCorrelatedPair:
    def test_split_conserves_rate(self):
        members = correlated_pair(
            "arr", array(), site(), 0.5 / YEAR, 0.25
        )
        assert [m.member_id for m in members] == ["arr.corr", "arr"]
        total = sum(m.occurrence_rate for m in members)
        assert total == pytest.approx(0.5 / YEAR, rel=1e-12)
        assert members[0].occurrence_rate == pytest.approx(0.125 / YEAR)

    def test_full_correlation_yields_single_member(self):
        members = correlated_pair("arr", array(), site(), 0.5 / YEAR, 1.0)
        assert [m.member_id for m in members] == ["arr.corr"]

    def test_fraction_outside_unit_interval_rejected(self):
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(RiskError, match="outside"):
                correlated_pair("arr", array(), site(), 0.5 / YEAR, fraction)

    def test_backup_window_helper_defaults_to_building(self):
        members = array_failure_during_backup_window(
            "arr", 0.5 / YEAR, 0.25
        )
        assert members[0].scenario == FailureScenario.building_disaster()
        assert members[1].scenario == FailureScenario.array_failure()


class TestCascadeSpec:
    def test_needs_exactly_one_mechanism(self):
        with pytest.raises(RiskError, match="exactly one"):
            CascadeSpec("c", array(), 0.1 / YEAR, site())
        with pytest.raises(RiskError, match="exactly one"):
            CascadeSpec(
                "c", array(), 0.1 / YEAR, site(),
                secondary_rate=0.5 / YEAR, probability=0.5,
            )

    def test_probability_outside_unit_interval_rejected(self):
        for probability in (0.0, -0.1, 1.0001):
            with pytest.raises(RiskError, match="outside"):
                CascadeSpec(
                    "c", array(), 0.1 / YEAR, site(),
                    probability=probability,
                )

    def test_rate_derived_probability(self):
        cascade = CascadeSpec(
            "c", array(), 0.1 / YEAR, site(), secondary_rate=0.5 / YEAR
        )
        window = 26.4 * HOUR
        expected = 1.0 - math.exp(-(0.5 / YEAR) * window)
        assert cascade.cascade_probability(window) == pytest.approx(expected)
        # A design that cannot recover has no finite exposure window.
        assert cascade.cascade_probability(float("inf")) == 1.0
        with pytest.raises(RiskError, match="recovery time"):
            cascade.cascade_probability(float("nan"))

    def test_split_conserves_rate(self):
        cascade = CascadeSpec(
            "c", array(), 0.1 / YEAR, site(), probability=0.25
        )
        members = cascade.split(0.0)
        assert [m.member_id for m in members] == ["c.cascade", "c"]
        assert members[0].scenario == site()
        assert members[1].scenario == array()
        total = sum(m.occurrence_rate for m in members)
        assert total == pytest.approx(0.1 / YEAR, rel=1e-12)

    def test_certain_cascade_yields_single_escalated_member(self):
        cascade = CascadeSpec(
            "c", array(), 0.1 / YEAR, site(), probability=1.0
        )
        members = cascade.split(0.0)
        assert [m.member_id for m in members] == ["c.cascade"]
        assert members[0].occurrence_rate == pytest.approx(0.1 / YEAR)


class TestKofN:
    def test_mirrored_pair_matches_classic_formula(self):
        lam, tau = 2.0 / YEAR, 8 * HOUR
        for repair in ("parallel", "serial"):
            model = KofNModel(2, 1, lam, tau, repair)
            assert model.effective_failure_rate() == pytest.approx(
                2 * lam * lam * tau, rel=1e-12
            )

    def test_serial_repair_stretches_by_m_factorial(self):
        lam, tau = 2.0 / YEAR, 8 * HOUR
        parallel = KofNModel(8, 6, lam, tau, "parallel")
        serial = KofNModel(8, 6, lam, tau, "serial")
        assert serial.tolerated_failures == 2
        assert serial.effective_failure_rate() == pytest.approx(
            2 * parallel.effective_failure_rate(), rel=1e-12
        )

    def test_no_redundancy_degenerates_to_sum_of_unit_rates(self):
        lam = 2.0 / YEAR
        model = KofNModel(4, 4, lam, 8 * HOUR)
        assert model.effective_failure_rate() == pytest.approx(4 * lam)

    def test_mttf_is_reciprocal(self):
        model = KofNModel(2, 1, 2.0 / YEAR, 8 * HOUR)
        assert model.mttf() == pytest.approx(
            1.0 / model.effective_failure_rate()
        )

    def test_member_carries_effective_rate(self):
        model = KofNModel(2, 1, 2.0 / YEAR, 8 * HOUR)
        member = model.member("raid", array())
        assert member.occurrence_rate == pytest.approx(
            model.effective_failure_rate()
        )

    def test_invalid_shapes_rejected(self):
        with pytest.raises(RiskError, match="k <= n"):
            KofNModel(2, 3, 2.0 / YEAR, 8 * HOUR)
        with pytest.raises(RiskError, match="repair must be"):
            KofNModel(2, 1, 2.0 / YEAR, 8 * HOUR, "magic")
        with pytest.raises(RiskError, match="positive"):
            KofNModel(2, 1, 0.0, 8 * HOUR)

    def test_approximation_validity_enforced(self):
        # unit_rate * repair_time = 0.1: the first-order approximation
        # is no longer trustworthy and construction must refuse.
        with pytest.raises(RiskError, match="too large"):
            KofNModel(2, 1, 0.1 / HOUR, 1 * HOUR)


class TestCompoundPoisson:
    def test_mean_is_exact(self):
        rate, severity = 3.0 / YEAR, 4 * HOUR
        dist = compound_poisson_distribution([(rate, severity)], YEAR)
        assert dist.mean == pytest.approx(rate * YEAR * severity, rel=1e-12)

    def test_quantiles_are_event_count_multiples(self):
        # Intensity 1/yr: P(0)=.368, P(<=1)=.736, P(<=2)=.920, P(<=3)=.981.
        severity = 4 * HOUR
        dist = compound_poisson_distribution([(1.0 / YEAR, severity)], YEAR)
        step = severity / 100  # far below one grid step's worth of slack
        assert abs(dist.p50 - severity) < severity * 0.01 + step
        assert abs(dist.p90 - 2 * severity) < 2 * severity * 0.01 + step
        assert abs(dist.p99 - 4 * severity) < 4 * severity * 0.01 + step

    def test_rare_event_quantiles_are_zero(self):
        dist = compound_poisson_distribution([(0.001 / YEAR, HOUR)], YEAR)
        assert dist.p50 == 0.0
        assert dist.p99 == 0.0
        assert dist.mean == pytest.approx(0.001 * HOUR)

    def test_infinite_severity_is_an_atom_at_infinity(self):
        # lam_inf = ln 2 over the horizon: P(finite) = 0.5 exactly, so
        # p50 sits on the atom and everything above it is infinite.
        rate = math.log(2.0) / YEAR
        dist = compound_poisson_distribution([(rate, float("inf"))], YEAR)
        assert dist.mean == float("inf")
        assert dist.p50 == float("inf")
        assert dist.p99 == float("inf")

    def test_mixed_finite_and_infinite_severities(self):
        # P(no infinite event) = exp(-0.02) = .980: p50/p90/p95 are the
        # finite part's conditional quantiles, p99 crosses the atom.
        entries = [(1.0 / YEAR, 4 * HOUR), (0.02 / YEAR, float("inf"))]
        dist = compound_poisson_distribution(entries, YEAR)
        assert dist.mean == float("inf")
        assert math.isfinite(dist.p50)
        assert math.isfinite(dist.p95)
        assert dist.p99 == float("inf")

    def test_normal_approximation_branch(self):
        # Intensity 1000 is past the Panjer underflow threshold; the
        # matched normal must hold the CLT relations.
        rate, severity = 1000.0 / YEAR, 1 * MINUTE
        dist = compound_poisson_distribution([(rate, severity)], YEAR)
        mean, sigma = 1000.0 * severity, math.sqrt(1000.0) * severity
        assert dist.mean == pytest.approx(mean, rel=1e-12)
        assert dist.p50 == pytest.approx(mean, rel=1e-3)
        assert dist.p90 == pytest.approx(mean + 1.2816 * sigma, rel=1e-3)
        assert dist.p99 == pytest.approx(mean + 2.3263 * sigma, rel=1e-3)

    def test_zero_severity_entries_are_absorbed(self):
        dist = compound_poisson_distribution([(5.0 / YEAR, 0.0)], YEAR)
        assert dist.mean == 0.0
        assert dist.p99 == 0.0

    def test_validation(self):
        with pytest.raises(RiskError, match="horizon"):
            compound_poisson_distribution([(1.0 / YEAR, 1.0)], 0.0)
        with pytest.raises(RiskError, match="bins"):
            compound_poisson_distribution([(1.0 / YEAR, 1.0)], YEAR, bins=1)
        with pytest.raises(RiskError, match="non-positive rate"):
            compound_poisson_distribution([(0.0, 1.0)], YEAR)
        with pytest.raises(RiskError, match="not >= 0"):
            compound_poisson_distribution([(1.0 / YEAR, -1.0)], YEAR)
        with pytest.raises(RiskError, match="not >= 0"):
            compound_poisson_distribution([(1.0 / YEAR, float("nan"))], YEAR)

    def test_quantile_accessor(self):
        dist = compound_poisson_distribution([(1.0 / YEAR, HOUR)], YEAR)
        assert dist.quantile("p90") == dist.p90
        with pytest.raises(RiskError, match="unknown quantile"):
            dist.quantile("p17")


def _dense_fold(entries, horizon, bins):
    """The full-grid fold: every Panjer step, full cumsum, searchsorted.

    A plain reference for :func:`compound_poisson_distribution`, which
    must agree with it bit for bit.
    """
    finite = [(r, s) for r, s in entries if math.isfinite(s)]
    lam_inf = sum(r for r, s in entries if not math.isfinite(s)) * horizon
    p_finite = math.exp(-lam_inf)
    lam = sum(r for r, _ in finite) * horizon
    mean_total = horizon * sum(r * s for r, s in finite)
    values = {"mean": float("inf") if lam_inf > 0 else mean_total}

    positive = [(r, s) for r, s in finite if s > 0]
    second_moment = horizon * sum(r * s * s for r, s in finite)
    if lam == 0 or not positive:
        quantile = lambda prob: 0.0  # noqa: E731
    elif lam > NORMAL_APPROX_INTENSITY:
        sigma = math.sqrt(second_moment)
        quantile = lambda prob: max(  # noqa: E731
            0.0, mean_total + _probit(prob) * sigma
        )
    else:
        max_sev = max(s for _, s in finite)
        grid_max = (
            mean_total + 10.0 * math.sqrt(second_moment) + 4.0 * max_sev
        )
        step = grid_max / (bins - 1)
        severity_mass = np.zeros(bins)
        total_rate = sum(r for r, _ in finite)
        for rate, severity in finite:
            index = min(bins - 1, int(round(severity / step)))
            severity_mass[index] += rate / total_rate
        total = np.zeros(bins)
        total[0] = math.exp(-lam * (1.0 - severity_mass[0]))
        weighted = severity_mass * np.arange(bins)
        for j in range(1, bins):
            total[j] = (lam / j) * float(
                np.dot(weighted[1 : j + 1], total[j - 1 :: -1])
            )
        cdf = np.cumsum(total)
        grid = np.arange(bins) * step

        def quantile(prob):
            index = int(np.searchsorted(cdf, prob, side="left"))
            return float(grid[min(index, bins - 1)])

    for label, prob in PERCENTILES:
        if prob > p_finite or (prob == p_finite and lam_inf > 0):
            values[label] = float("inf")
        else:
            values[label] = quantile(min(1.0, prob / p_finite))
    return values


def _generated_entries(rng, intensity, horizon):
    """1-200 seeded entries over a few shared severities."""
    pool = [0.0, float("inf")] + [
        rng.choice((rng.uniform(1.0, 1e5), rng.expovariate(1e-3)))
        for _ in range(rng.randint(1, 6))
    ]
    count = rng.randint(1, 200)
    return [
        (rng.uniform(0.1, 2.0) * intensity / count / horizon, rng.choice(pool))
        for _ in range(count)
    ]


class TestFoldOracle:
    """The early-stopping fold against the full-grid reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_fold_exactly(self, seed):
        rng = random.Random(seed)
        intensities = (0.01, 0.5, 3.0, 40.0, 590.0, 610.0, 2000.0)
        for _ in range(40):
            horizon = YEAR * rng.choice((1.0, 2.5))
            bins = rng.choice((2, 3, 7, 64, 300, 1024, 2048))
            entries = _generated_entries(
                rng, rng.choice(intensities), horizon
            )
            if rng.random() < 0.5:
                # Half the cases have no infinite severity at all.
                entries = [
                    (r, s if math.isfinite(s) else rng.uniform(1.0, 1e4))
                    for r, s in entries
                ]
            got = compound_poisson_distribution(entries, horizon, bins)
            # repr tells -0.0 from 0.0 and an int from a float.
            assert repr(got.to_dict()) == repr(
                _dense_fold(entries, horizon, bins)
            )

    def test_all_infinite_quantiles_run_no_recursion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            distributions, "_panjer", lambda *a: calls.append(a) or [1.0]
        )
        entries = [(3.0 / YEAR, float("inf")), (1.0 / YEAR, HOUR)]
        got = compound_poisson_distribution(entries, YEAR)
        assert got.to_dict() == _dense_fold(entries, YEAR, 2048)
        assert got.p50 == float("inf") and calls == []

    def test_stops_at_the_p99_index(self, monkeypatch):
        lengths = []
        real = distributions._panjer

        def traced(lam, severity_mass, target):
            cdf = real(lam, severity_mass, target)
            lengths.append(len(cdf))
            return cdf

        monkeypatch.setattr(distributions, "_panjer", traced)
        entries = [(4.0 / YEAR, HOUR), (1.0 / YEAR, 6 * HOUR)]
        bins = 2048
        got = compound_poisson_distribution(entries, YEAR, bins)
        assert got.to_dict() == _dense_fold(entries, YEAR, bins)
        step = _grid_step_of(entries, YEAR, bins)
        p99_index = round(got.p99 / step)
        assert lengths == [p99_index + 1]
        assert p99_index + 1 < bins // 2

    def test_target_above_grid_mass_runs_the_full_grid(self, monkeypatch):
        # On 366 bins the one severity rounds up to a whole grid step
        # (~2x its size), so 500 events a year overrun the grid: no
        # target is reached, the recursion runs to the end and every
        # quantile falls back to the grid edge.
        lengths = []
        real = distributions._panjer

        def traced(lam, severity_mass, target):
            cdf = real(lam, severity_mass, target)
            lengths.append((len(cdf), cdf[-1] < target))
            return cdf

        monkeypatch.setattr(distributions, "_panjer", traced)
        entries, bins = [(500.0 / YEAR, HOUR)], 366
        got = compound_poisson_distribution(entries, YEAR, bins)
        assert got.to_dict() == _dense_fold(entries, YEAR, bins)
        assert lengths == [(bins, True)]
        edge = (bins - 1) * _grid_step_of(entries, YEAR, bins)
        assert got.p50 == got.p99 == edge


class TestEmpiricalDistribution:
    def test_inverted_cdf_quantiles(self):
        samples = np.arange(10, dtype=float)
        dist = empirical_distribution(samples)
        assert dist.mean == pytest.approx(4.5)
        assert dist.p50 == 4.0
        assert dist.p90 == 8.0
        assert dist.p99 == 9.0

    def test_infinite_samples_do_not_bleed_into_finite_quantiles(self):
        samples = np.array([1.0, 2.0, 3.0, float("inf")])
        dist = empirical_distribution(samples)
        assert dist.mean == float("inf")
        assert dist.p50 == 2.0
        assert dist.p99 == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(RiskError, match="empty"):
            empirical_distribution(np.array([]))


class TestMonteCarlo:
    ROWS = [
        ("a", 2.0 / YEAR, 4.0 * HOUR, 600.0, 100.0),
        ("b", 0.5 / YEAR, 26.4 * HOUR, 0.0, 2500.0),
        ("c", 12.0 / YEAR, 0.0, 30.0, 5.0),
    ]

    def test_row_order_never_matters(self):
        forward = cross_check(self.ROWS, YEAR, 500, seed=7)
        backward = cross_check(list(reversed(self.ROWS)), YEAR, 500, seed=7)
        assert forward == backward

    def test_seed_changes_the_samples(self):
        assert cross_check(self.ROWS, YEAR, 500, seed=7) != cross_check(
            self.ROWS, YEAR, 500, seed=8
        )

    def test_matches_analytic_mean(self):
        result = cross_check(self.ROWS, YEAR, 20000, seed=3)
        expected = sum(r * YEAR * d for _, r, d, _, _ in self.ROWS)
        assert result.downtime.mean == pytest.approx(expected, rel=0.05)

    def test_infinite_severity_rows(self):
        rows = [("doom", 100.0 / YEAR, float("inf"), 0.0, 0.0)]
        result = cross_check(rows, YEAR, 200, seed=0)
        assert result.downtime.p50 == float("inf")
        assert result.loss.p99 == 0.0

    def test_validation(self):
        with pytest.raises(RiskError, match="sample"):
            cross_check(self.ROWS, YEAR, 0)
        with pytest.raises(RiskError, match="horizon"):
            cross_check(self.ROWS, 0.0, 10)

    def test_negative_rate_rejected(self):
        rows = [("a", -1.0 / YEAR, 4.0 * HOUR, 0.0, 0.0)]
        with pytest.raises(RiskError, match="non-positive rate"):
            cross_check(rows, YEAR, 10)

    def test_nan_severity_rejected(self):
        rows = [("a", 1.0 / YEAR, float("nan"), 0.0, 0.0)]
        with pytest.raises(RiskError, match="nan"):
            cross_check(rows, YEAR, 10)

    def test_negative_severity_rejected(self):
        rows = [("a", 1.0 / YEAR, 0.0, 0.0, -5.0)]
        with pytest.raises(RiskError, match="-5.0"):
            cross_check(rows, YEAR, 10)

    def test_rejects_what_the_fold_rejects(self):
        # One rule for both: the fold and the sampler refuse the same
        # entries with the same message.
        for rate, severity in ((0.0, 1.0), (1.0, -1.0), (1.0, float("-inf"))):
            with pytest.raises(RiskError) as fold:
                compound_poisson_distribution([(rate, severity)], YEAR)
            with pytest.raises(RiskError) as sampler:
                cross_check([("a", rate, 0.0, severity, 0.0)], YEAR, 10)
            assert str(fold.value) == str(sampler.value)


def _per_member_cross_check(rows, horizon, samples, seed=0):
    """The per-member sampler ``cross_check`` replaced, kept verbatim.

    One substream per member: the oracle the grouped sampler must match
    bit for bit whenever no two members share a severity triple.
    """
    if samples < 1:
        raise RiskError(f"Monte Carlo needs >= 1 sample, got {samples}")
    if not horizon > 0:
        raise RiskError(f"risk horizon must be positive, got {horizon!r}")
    downtime = np.zeros(samples)
    loss = np.zeros(samples)
    penalty = np.zeros(samples)
    for member_id, rate, event_downtime, event_loss, event_penalty in sorted(
        rows
    ):
        rng = substream_rng(seed, f"risk:{member_id}")
        counts = rng.poisson(rate * horizon, size=samples).astype(float)
        downtime += _oracle_scaled(counts, event_downtime)
        loss += _oracle_scaled(counts, event_loss)
        penalty += _oracle_scaled(counts, event_penalty)
    return MonteCarloResult(
        samples=samples,
        seed=seed,
        downtime=empirical_distribution(downtime),
        loss=empirical_distribution(loss),
        penalty=empirical_distribution(penalty),
    )


def _oracle_scaled(counts, severity):
    """Total severity per sample; 0 events x infinite severity is 0."""
    if math.isfinite(severity):
        return counts * severity
    return np.where(counts > 0, float("inf"), 0.0)


def _distinct_rows(seed, count=40):
    """Seeded rows whose severity triples are pairwise distinct."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        severity = [rng.uniform(0.0, 30 * HOUR) for _ in range(3)]
        if index % 7 == 3:
            severity[index % 3] = float("inf")
        rate = rng.uniform(0.01, 5.0) / YEAR
        rows.append((f"m{rng.randrange(10**6):06d}-{index}", rate, *severity))
    assert len({row[2:] for row in rows}) == len(rows)
    return rows


class TestMonteCarloGroups:
    """``cross_check`` draws one substream per severity triple."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_distinct_rows_match_the_per_member_oracle(self, seed):
        rows = TestMonteCarlo.ROWS
        assert cross_check(rows, YEAR, 500, seed) == _per_member_cross_check(
            rows, YEAR, 500, seed
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_distinct_rows_match_the_oracle_bitwise(self, seed):
        rows = _distinct_rows(seed)
        assert any(math.isinf(value) for row in rows for value in row[2:])
        expected = _per_member_cross_check(rows, 3 * YEAR, 1000, seed)
        assert cross_check(rows, 3 * YEAR, 1000, seed) == expected

    def test_shared_severity_equals_one_member_with_summed_rate(self):
        shared = (4.0 * HOUR, 600.0, 100.0)
        lone = ("b", 0.5 / YEAR, 26.4 * HOUR, 0.0, 2500.0)
        sharing = [
            ("m3", 3.0 / YEAR, *shared),
            ("m1", 2.0 / YEAR, *shared),
            ("m2", 0.25 / YEAR, *shared),
        ]
        # Member-id order, builtin sum: the grouped sampler's own rule.
        rate = sum(r for _, r, *_ in sorted(sharing))
        collapsed = [lone, ("m1", rate, *shared)]
        grouped = cross_check(sharing + [lone], YEAR, 2000, seed=5)
        assert grouped == cross_check(collapsed, YEAR, 2000, seed=5)
        assert grouped == _per_member_cross_check(
            collapsed, YEAR, 2000, seed=5
        )

    def test_generated_grid_agrees_with_the_analytic_fold(
        self, baseline, workload, requirements
    ):
        # The grid's members fall into two severity groups, so each
        # total sits on a lattice of event counts.  Where a reported
        # probability lies within sampling error of a lattice step,
        # the empirical quantile lands one event off under any
        # sampler (at 12/yr, downtime's p90 is just above
        # P(N <= 13) = 0.8979).  At 40/yr one event is at most 3.2% of
        # any reported quantile, so such a flip stays inside the 5%
        # tolerance below.
        ensemble = object_corruption_grid(1000, 40.0, distinct_ages=64)
        assessment = assess_risk(
            baseline, workload, ensemble, requirements,
            samples=20000, seed=13,
        )
        mc = assessment.monte_carlo
        assert mc is not None
        # The tolerance test_monte_carlo_agrees_with_analytic_fold
        # documents: 5% on means and percentiles, plus one grid step.
        for metric in ("downtime", "loss", "penalty"):
            analytic = getattr(assessment, metric)
            sampled = getattr(mc, metric)
            assert sampled.mean == pytest.approx(analytic.mean, rel=0.05)
            step = _grid_step(assessment, metric)
            for label in ("p50", "p90", "p95", "p99"):
                a, s = analytic.quantile(label), sampled.quantile(label)
                assert abs(a - s) <= 0.05 * max(abs(a), abs(s)) + step, (
                    metric, label, a, s, step,
                )

    def test_example_spec_draws_four_substreams(
        self, monkeypatch
    ):
        # The count gate: the example's 1,005 members share 4 severity
        # triples, so the cross-check seeds 4 generators, not 1,005.
        spec_path = EXAMPLES / "specs" / "risk_ensemble.json"
        spec = json.loads(spec_path.read_text())
        drawn = []

        def counted(seed, stream_id):
            drawn.append(stream_id)
            return substream_rng(seed, stream_id)

        monkeypatch.setattr(montecarlo, "substream_rng", counted)
        tracer = Tracer()
        with use(Telemetry(tracer=tracer)):
            assessment = assess_risk(
                design_from_spec(spec["design"]),
                workload_from_spec(spec["workload"]),
                ensemble_from_spec(spec["ensemble"]),
                requirements_from_spec(spec["requirements"]),
                samples=2000,
                seed=7,
            )
        assert len(assessment.members) == 1005
        assert len(drawn) == 4
        (span,) = [s for s, _ in tracer.walk() if s.name == "risk.monte_carlo"]
        assert span.attributes == {
            "samples": 2000, "members": 1005, "substreams": 4,
        }


class TestAssessRisk:
    def test_degenerate_ensemble_reproduces_evaluate(
        self, baseline, workload, requirements
    ):
        scenario = array()
        ensemble = ScenarioEnsemble(
            "degenerate",
            (EnsembleMember.per_year("only", scenario, 1.0),),
        )
        assessment = assess_risk(baseline, workload, ensemble, requirements)
        expected = degenerate_assessment(
            evaluate(baseline, workload, scenario, requirements)
        )
        assert len(assessment.members) == 1
        outcome = assessment.members[0]
        # rate_per_year round-trips through per-second with ~1 ulp slack.
        assert outcome.rate_per_year == pytest.approx(1.0, rel=1e-12)
        assert _same_outcome(outcome, expected)
        assert assessment.unique_scenarios == 1
        # Mean annual downtime of a 1/yr event over 1 yr is one event.
        assert assessment.downtime.mean == pytest.approx(
            expected.recovery_time, rel=1e-9
        )
        assert assessment.loss.mean == pytest.approx(
            expected.data_loss, rel=1e-9
        )
        assert assessment.penalty.mean == pytest.approx(
            expected.penalty, rel=1e-9
        )

    def test_generated_grid_dedupes_to_distinct_scenarios(
        self, baseline, workload, requirements
    ):
        ensemble = object_corruption_grid(50, 6.0, distinct_ages=5)
        assessment = assess_risk(baseline, workload, ensemble, requirements)
        assert len(assessment.members) == 50
        assert assessment.unique_scenarios == 5
        assert assessment.total_rate_per_year == pytest.approx(
            6.0, rel=1e-12
        )

    def test_cascade_expansion_conserves_rate(
        self, baseline, workload, requirements
    ):
        cascade = CascadeSpec(
            "site-during-recovery",
            array(),
            0.2 / YEAR,
            site(),
            secondary_rate=0.5 / YEAR,
        )
        ensemble = ScenarioEnsemble(
            "cascading",
            (EnsembleMember.per_year("arr", array(), 1.0),),
            (cascade,),
        )
        assessment = assess_risk(baseline, workload, ensemble, requirements)
        ids = [m.member_id for m in assessment.members]
        assert ids == ["arr", "site-during-recovery",
                       "site-during-recovery.cascade"]
        cascaded = {m.member_id: m.from_cascade for m in assessment.members}
        assert cascaded == {
            "arr": False,
            "site-during-recovery": True,
            "site-during-recovery.cascade": True,
        }
        total = sum(m.rate_per_year for m in assessment.members)
        assert total == pytest.approx(
            assessment.total_rate_per_year, rel=1e-12
        )
        assert total == pytest.approx(1.2, rel=1e-12)

    def test_serial_parallel_factory_and_cache_byte_identical(
        self, baseline, workload, requirements, tmp_path
    ):
        ensemble = object_corruption_grid(24, 6.0, distinct_ages=4)

        def run(design, config=None, cache=None):
            assessment = assess_risk(
                design, workload, ensemble, requirements,
                samples=200, seed=7, config=config, cache=cache,
            )
            return canonical_json(assessment.to_dict())

        serial = run(baseline)
        parallel = run(baseline, config=EngineConfig(workers=2))
        factory = run(casestudy.baseline_design)
        cache = ResultCache(cache_dir=tmp_path / "risk-cache")
        cold = run(baseline, cache=cache)
        warm = run(baseline, cache=cache)
        assert serial == parallel == factory == cold == warm

    def test_monte_carlo_agrees_with_analytic_fold(
        self, baseline, workload, requirements
    ):
        ensemble = ScenarioEnsemble(
            "mc-fixture",
            (
                EnsembleMember.per_year("arr", array(), 2.0),
                EnsembleMember.per_year(
                    "obj",
                    FailureScenario.object_corruption(
                        object_size=1 * MB, recovery_target_age=1 * DAY
                    ),
                    6.0,
                ),
            ),
        )
        assessment = assess_risk(
            baseline, workload, ensemble, requirements,
            samples=20000, seed=11,
        )
        mc = assessment.monte_carlo
        assert mc is not None and mc.samples == 20000 and mc.seed == 11
        # Documented tolerance: means within 5% (sampling error), each
        # percentile within 5% plus one severity-grid step of slack
        # (the analytic quantiles are exact only on the grid).
        for metric in ("downtime", "loss", "penalty"):
            analytic = getattr(assessment, metric)
            sampled = getattr(mc, metric)
            assert sampled.mean == pytest.approx(analytic.mean, rel=0.05)
            step = _grid_step(assessment, metric)
            for label in ("p50", "p90", "p95", "p99"):
                a, s = analytic.quantile(label), sampled.quantile(label)
                assert abs(a - s) <= 0.05 * max(abs(a), abs(s)) + step, (
                    metric, label, a, s, step,
                )

    def test_longer_horizon_scales_the_mean(
        self, baseline, workload, requirements
    ):
        ensemble = ScenarioEnsemble(
            "h", (EnsembleMember.per_year("arr", array(), 1.0),)
        )
        one = assess_risk(baseline, workload, ensemble, requirements)
        three = assess_risk(
            baseline, workload, ensemble, requirements, years=3.0
        )
        assert three.downtime.mean == pytest.approx(
            3 * one.downtime.mean, rel=1e-9
        )
        assert three.expected_downtime_per_year == pytest.approx(
            one.expected_downtime_per_year, rel=1e-9
        )

    def test_validation(self, baseline, workload, requirements):
        ensemble = ScenarioEnsemble(
            "v", (EnsembleMember.per_year("arr", array(), 1.0),)
        )
        with pytest.raises(RiskError, match="horizon"):
            assess_risk(
                baseline, workload, ensemble, requirements, years=0.0
            )
        with pytest.raises(RiskError, match="StorageDesign or a factory"):
            assess_risk(
                "not-a-design", workload, ensemble, requirements
            )

    def test_digest_computed_once_per_distinct_scenario(
        self, baseline, workload, requirements, monkeypatch
    ):
        calls = []
        real = aggregate.scenario_digest

        def counted(scenario):
            calls.append(scenario)
            return real(scenario)

        monkeypatch.setattr(aggregate, "scenario_digest", counted)
        ensemble = _mixed_ensemble(
            object_corruption_grid(40, 6.0, distinct_ages=5)
        )
        cache = ResultCache(memory_entries=64)
        for _ in ("cold", "warm"):
            calls.clear()
            assessment = assess_risk(
                baseline, workload, ensemble, requirements, cache=cache
            )
            # 5 grid ages + array + site (cascade primary and escalation).
            assert assessment.unique_scenarios == 7
            assert len(calls) == assessment.unique_scenarios
            assert len(assessment.members) == 43

    def test_rerun_is_fully_warm_after_one_cold_run(
        self, workload, requirements
    ):
        # Each run builds its own design, as separate CLI processes do;
        # the cascade's escalated scenario is keyed only after its
        # primary has run, so its key must not depend on that run.
        ensemble = _mixed_ensemble(object_corruption_grid(12, 6.0, distinct_ages=3))
        cache = ResultCache(memory_entries=64)
        assess_risk(
            casestudy.baseline_design(), workload, ensemble, requirements,
            cache=cache,
        )
        registry = MetricsRegistry()
        with use(Telemetry(metrics=registry)):
            assess_risk(
                casestudy.baseline_design(), workload, ensemble, requirements,
                cache=cache,
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.cache.hits", 0) > 0
        assert counters.get("engine.cache.misses", 0) == 0

    def test_scenario_hashes_do_not_grow_with_members(
        self, baseline, workload, requirements, monkeypatch
    ):
        ensembles = [
            object_corruption_grid(count, 6.0, distinct_ages=16)
            for count in (500, 4000)
        ]
        calls = []
        real = FailureScenario.__hash__

        def counted(scenario):
            calls.append(1)
            return real(scenario)

        monkeypatch.setattr(FailureScenario, "__hash__", counted)
        counts = []
        for ensemble in ensembles:
            calls.clear()
            assessment = assess_risk(
                baseline, workload, ensemble, requirements
            )
            assert assessment.unique_scenarios == 16
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_shared_and_fresh_scenario_objects_byte_identical(
        self, baseline, workload, requirements
    ):
        shared = _mixed_ensemble(
            object_corruption_grid(40, 6.0, distinct_ages=5)
        )
        fresh = ScenarioEnsemble(
            shared.name,
            tuple(
                EnsembleMember(
                    m.member_id, _copy(m.scenario), m.occurrence_rate
                )
                for m in shared.members
            ),
            tuple(
                CascadeSpec(
                    c.member_id,
                    _copy(c.primary),
                    c.occurrence_rate,
                    _copy(c.escalated),
                    secondary_rate=c.secondary_rate,
                )
                for c in shared.cascades
            ),
        )
        assert len({id(m.scenario) for m in fresh.members}) == len(
            fresh.members
        )

        def run(ensemble):
            assessment = assess_risk(
                baseline, workload, ensemble, requirements,
                samples=200, seed=5,
            )
            return canonical_json(assessment.to_dict())

        assert run(shared) == run(fresh)

    def test_signed_zero_age_is_one_scenario(
        self, baseline, workload, requirements
    ):
        size = 1 * MB
        ensemble = ScenarioEnsemble(
            "signed-zero",
            (
                EnsembleMember.per_year(
                    "neg", FailureScenario.object_corruption(size, -0.0), 1.0
                ),
                EnsembleMember.per_year(
                    "pos", FailureScenario.object_corruption(size, 0.0), 1.0
                ),
            ),
        )
        assessment = assess_risk(baseline, workload, ensemble, requirements)
        assert assessment.unique_scenarios == 1
        first, second = assessment.members
        assert first.scenario_digest == second.scenario_digest
        assert first.scenario_digest == scenario_digest(
            FailureScenario.object_corruption(size, 0.0)
        )

    def test_to_dict_shape(self, baseline, workload, requirements):
        ensemble = ScenarioEnsemble(
            "shape", (EnsembleMember.per_year("arr", array(), 1.0),)
        )
        assessment = assess_risk(baseline, workload, ensemble, requirements)
        data = assessment.to_dict()
        assert data["schema"] == 1
        assert data["kind"] == "risk_assessment"
        assert data["members"] == 1
        assert "monte_carlo" not in data
        assert data["per_member"][0]["member_id"] == "arr"
        # Round-trips through the canonical encoder (inf allowed).
        assert canonical_json(data)


def _mixed_ensemble(grid):
    """``grid`` plus a k-of-n member and a cascade over array/site."""
    raid = KofNModel(2, 1, 2.0 / YEAR, 8 * HOUR).member("raid", array())
    cascade = CascadeSpec(
        "site-during-recovery", array(), 0.2 / YEAR, site(),
        secondary_rate=0.5 / YEAR,
    )
    return ScenarioEnsemble(
        "mixed", grid.members + (raid,), (cascade,)
    )


def _copy(scenario):
    """An equal scenario that is a different object."""
    return scenario_from_dict(scenario_to_dict(scenario))


def _same_outcome(outcome, expected):
    return (
        outcome.member_id == expected.member_id
        and outcome.scenario == expected.scenario
        and outcome.scenario_digest == expected.scenario_digest
        and outcome.recovery_time == expected.recovery_time
        and outcome.data_loss == expected.data_loss
        and outcome.penalty == expected.penalty
    )


def _grid_step(assessment, metric):
    """One severity-grid step of the analytic fold for ``metric``."""
    index = {"downtime": 0, "loss": 1, "penalty": 2}[metric]
    severities = []
    for member in assessment.members:
        value = (member.recovery_time, member.data_loss, member.penalty)[
            index
        ]
        if math.isfinite(value):
            severities.append((member.rate_per_year / YEAR, value))
    if not any(s > 0 for _, s in severities):
        return 0.0
    return _grid_step_of(
        severities, assessment.years * YEAR, assessment.grid_bins
    )


def _grid_step_of(entries, horizon, bins):
    """The severity-grid step the fold uses for finite ``entries``."""
    mean = horizon * sum(r * s for r, s in entries)
    second = horizon * sum(r * s * s for r, s in entries)
    grid_max = mean + 10.0 * math.sqrt(second) + 4.0 * max(
        s for _, s in entries
    )
    return grid_max / (bins - 1)


class TestScenarioDigest:
    def test_digest_is_content_addressed(self):
        assert scenario_digest(array()) == scenario_digest(
            FailureScenario.array_failure()
        )
        assert scenario_digest(array()) != scenario_digest(site())
        assert len(scenario_digest(array())) == 16

    @pytest.mark.parametrize("negative", [-0.0, "-0 hr"])
    def test_equal_scenarios_share_digest_and_task_key(
        self, baseline, workload, requirements, negative
    ):
        zero = FailureScenario.object_corruption(1 * MB, 0.0)
        signed = FailureScenario.object_corruption(1 * MB, negative)
        assert signed == zero and hash(signed) == hash(zero)
        assert math.copysign(1.0, signed.recovery_target_age) == 1.0
        assert scenario_digest(signed) == scenario_digest(zero)

        def key(scenario):
            task = EvaluationTask(
                "t", workload, (scenario,), requirements, design=baseline
            )
            return task_key(task.key_payload())

        assert key(signed) == key(zero)


class TestSimulatedLossCheck:
    def test_bounds_hold_on_the_baseline(self, baseline):
        members = [
            ("arr", array()),
            ("obj", FailureScenario.object_corruption(
                object_size=1 * MB, recovery_target_age=1 * DAY
            )),
        ]
        checks = simulated_loss_check(
            casestudy.baseline_design, members, seed=5, times_per_member=8
        )
        assert [c.member_id for c in checks] == ["arr", "obj"]
        assert all(c.within_bound for c in checks)
        assert all(c.samples == 8 for c in checks)
        # Deterministic replay: same seed, same checks.
        again = simulated_loss_check(
            baseline, members, seed=5, times_per_member=8
        )
        assert checks == again


class TestEnsembleSpec:
    SPEC = {
        "name": "from-spec",
        "members": [
            {"id": "arr", "scenario": "array", "rate": "0.5/yr"},
            {
                "id": "raid",
                "scenario": "array",
                "kofn": {
                    "n": 2, "k": 1,
                    "unit_rate": "2/yr", "repair_time": "8 hr",
                },
            },
        ],
        "correlated": [
            {
                "id": "arr-bk", "rate": "0.4/yr", "fraction": 0.25,
                "base": "array", "correlated": "building",
            }
        ],
        "cascades": [
            {
                "id": "c", "rate": "0.01/yr", "primary": "array",
                "escalated": "site", "secondary_rate": "0.5/yr",
            }
        ],
    }

    def test_builds_all_groups(self):
        ensemble = ensemble_from_spec(self.SPEC)
        assert ensemble.name == "from-spec"
        ids = [m.member_id for m in ensemble.members]
        assert ids == ["arr", "raid", "arr-bk.corr", "arr-bk"]
        assert [c.member_id for c in ensemble.cascades] == ["c"]
        expected_raid = KofNModel(
            2, 1, 2.0 / YEAR, 8 * HOUR
        ).effective_failure_rate()
        assert ensemble.members[1].occurrence_rate == pytest.approx(
            expected_raid
        )

    def test_rate_and_kofn_are_exclusive(self):
        bad = {
            "name": "x",
            "members": [{
                "id": "m", "scenario": "array", "rate": "1/yr",
                "kofn": {"n": 2, "k": 1, "unit_rate": "2/yr",
                         "repair_time": "8 hr"},
            }],
        }
        with pytest.raises(DesignError, match="exactly one"):
            ensemble_from_spec(bad)

    def test_unknown_keys_rejected(self):
        with pytest.raises(DesignError):
            ensemble_from_spec({"name": "x", "membres": []})

    def test_bad_rate_string_reports_context(self):
        bad = {
            "name": "x",
            "members": [
                {"id": "m", "scenario": "array", "rate": "fast"}
            ],
        }
        with pytest.raises(DesignError, match="ensemble member 0"):
            ensemble_from_spec(bad)

    def test_generate_object_grid(self):
        ensemble = ensemble_from_spec({
            "name": "g",
            "generate": {
                "object_grid": {
                    "count": 10, "total_rate": "5/yr",
                    "distinct_ages": 2,
                }
            },
        })
        assert len(ensemble.members) == 10
        assert ensemble.total_rate * YEAR == pytest.approx(5.0, rel=1e-12)

    def test_output_record_round_trip(self):
        ensemble = ensemble_from_spec(self.SPEC)
        record = ensemble_to_dict(ensemble)
        assert record["name"] == "from-spec"
        assert json.loads(canonical_json(record))["name"] == "from-spec"

    def test_example_spec_builds(self):
        with open("examples/specs/risk_ensemble.json") as handle:
            spec = json.load(handle)
        ensemble = ensemble_from_spec(spec["ensemble"])
        assert len(ensemble.members) == 1003
        assert len(ensemble.cascades) == 1
