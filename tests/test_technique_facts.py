"""The technique-facts table: equivalence, keying and sharing across a sweep."""

import pytest

from repro import casestudy
from repro.core.evaluate import evaluate_scenarios
from repro.design import DesignSpace, candidate_designs, optimize
from repro.design.space import BackupChoice, PitChoice, VaultChoice
from repro.engine import EngineConfig, shutdown_pool
from repro.engine.keys import result_digest
from repro.exceptions import NoCycleError
from repro.techniques import (
    AsyncMirror,
    Backup,
    BatchedAsyncMirror,
    ErasureCodedArchive,
    IncrementalKind,
    IncrementalPolicy,
    PrimaryCopy,
    RemoteVaulting,
    SplitMirror,
    SyncMirror,
    VirtualSnapshot,
)
from repro.techniques.facts import FactsTable, technique_key
from repro.techniques.timeline import CycleModel
from repro.workload.presets import cello


def _incremental(kind, count=5):
    return IncrementalPolicy(kind, count, "24 hr", "12 hr", "1 hr")


#: (id, class, constructor kwargs, one changed value per kwarg).
TECHNIQUES = [
    ("primary", PrimaryCopy, {"name": "fg"}, {"name": "fg2"}),
    (
        "snapshot",
        VirtualSnapshot,
        {"accumulation_window": "12 hr", "retention_count": 4, "name": "s"},
        {"accumulation_window": "6 hr", "retention_count": 3, "name": "s2"},
    ),
    (
        "split-mirror",
        SplitMirror,
        {"accumulation_window": "12 hr", "retention_count": 4, "name": "m"},
        {"accumulation_window": "8 hr", "retention_count": 2, "name": "m2"},
    ),
    ("sync-mirror", SyncMirror, {"name": "sync"}, {"name": "sync2"}),
    (
        "async-mirror",
        AsyncMirror,
        {"write_behind_lag": "30 s", "name": "async"},
        {"write_behind_lag": "45 s", "name": "async2"},
    ),
    (
        "batched-async-mirror",
        BatchedAsyncMirror,
        {
            "accumulation_window": "1 min",
            "propagation_window": "1 min",
            "hold_window": "10 s",
            "retention_count": 1,
            "name": "asyncB",
        },
        {
            "accumulation_window": "2 min",
            "propagation_window": "30 s",
            "hold_window": "20 s",
            "retention_count": 2,
            "name": "asyncB2",
        },
    ),
    (
        "backup-full-only",
        Backup,
        {
            "full_accumulation_window": "1 wk",
            "full_propagation_window": "48 hr",
            "full_hold_window": "1 hr",
            "retention_count": 4,
            "incremental": None,
            "name": "b",
        },
        {
            "full_accumulation_window": "2 wk",
            "full_propagation_window": "24 hr",
            "full_hold_window": "2 hr",
            "retention_count": 5,
            "incremental": _incremental(IncrementalKind.CUMULATIVE),
            "name": "b2",
        },
    ),
    (
        "backup-cumulative",
        Backup,
        {
            "full_accumulation_window": "48 hr",
            "full_propagation_window": "48 hr",
            "full_hold_window": "1 hr",
            "retention_count": 4,
            "incremental": _incremental(IncrementalKind.CUMULATIVE),
            "name": "b",
        },
        {
            "full_accumulation_window": "72 hr",
            "full_propagation_window": "24 hr",
            "full_hold_window": "3 hr",
            "retention_count": 2,
            "incremental": _incremental(IncrementalKind.CUMULATIVE, count=4),
            "name": "b2",
        },
    ),
    (
        "backup-differential",
        Backup,
        {
            "full_accumulation_window": "48 hr",
            "full_propagation_window": "48 hr",
            "full_hold_window": "1 hr",
            "retention_count": 4,
            "incremental": _incremental(IncrementalKind.DIFFERENTIAL),
            "name": "b",
        },
        {
            "full_accumulation_window": "72 hr",
            "full_propagation_window": "12 hr",
            "full_hold_window": "4 hr",
            "retention_count": 6,
            "incremental": _incremental(IncrementalKind.CUMULATIVE),
            "name": "b2",
        },
    ),
    (
        "vault",
        RemoteVaulting,
        {
            "accumulation_window": "4 wk",
            "propagation_window": "24 hr",
            "hold_window": "676 hr",
            "retention_count": 39,
            "name": "v",
        },
        {
            "accumulation_window": "1 wk",
            "propagation_window": "12 hr",
            "hold_window": "12 hr",
            "retention_count": 156,
            "name": "v2",
        },
    ),
    (
        "erasure",
        ErasureCodedArchive,
        {
            "data_fragments": 4,
            "total_fragments": 6,
            "accumulation_window": "12 hr",
            "propagation_window": "6 hr",
            "hold_window": "1 hr",
            "retention_count": 7,
            "name": "ec",
        },
        {
            "data_fragments": 3,
            "total_fragments": 8,
            "accumulation_window": "24 hr",
            "propagation_window": "12 hr",
            "hold_window": "2 hr",
            "retention_count": 8,
            "name": "ec2",
        },
    ),
]

IDS = [entry[0] for entry in TECHNIQUES]


def _hold_of(technique):
    """The full RP's hold as each class stores it, None when continuous."""
    try:
        technique.cycle()
    except NoCycleError:
        return None
    return getattr(
        technique, "full_hold_window", getattr(technique, "hold_window", 0.0)
    )


class TestFactsEquivalence:
    @pytest.mark.parametrize("_id, cls, kwargs, _changes", TECHNIQUES, ids=IDS)
    def test_facts_equal_the_techniques_own(self, _id, cls, kwargs, _changes):
        technique = cls(**kwargs)
        facts = FactsTable().of(technique)
        assert facts.worst_lag == technique.worst_lag()
        assert facts.worst_spacing == technique.worst_spacing()
        assert facts.retention_span == technique.retention_span()
        assert facts.retention_window == technique.retention_window()
        assert facts.full_availability_delay == technique.full_availability_delay()
        assert facts.full_hold == _hold_of(technique)
        try:
            cycle = technique.cycle()
        except NoCycleError:
            assert facts.period is None and facts.retention_count is None
        else:
            assert facts.period == cycle.period
            assert facts.retention_count == cycle.retention_count

    @pytest.mark.parametrize("_id, cls, kwargs, changes", TECHNIQUES, ids=IDS)
    def test_every_constructor_argument_changes_the_key(
        self, _id, cls, kwargs, changes
    ):
        assert set(changes) == set(kwargs)
        key = technique_key(cls(**kwargs))
        for argument, value in changes.items():
            changed = cls(**dict(kwargs, **{argument: value}))
            assert technique_key(changed) != key, argument

    @pytest.mark.parametrize("_id, cls, kwargs, _changes", TECHNIQUES, ids=IDS)
    def test_equal_techniques_share_one_entry(self, _id, cls, kwargs, _changes):
        table = FactsTable()
        first = table.of(cls(**kwargs))
        assert table.of(cls(**kwargs)) is first
        assert len(table) == 1

    def test_failures_are_not_cached(self):
        calls = []
        technique = SplitMirror("12 hr", 4)

        def broken_cycle():
            calls.append(1)
            raise RuntimeError("bug in cycle()")

        technique.cycle = broken_cycle
        table = FactsTable()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                table.of(technique)
        assert len(calls) == 2 and not table

    def test_unhashable_state_is_computed_uncached(self):
        technique = SplitMirror("12 hr", 4)
        technique.notes = ["unhashable"]
        table = FactsTable()
        assert table.of(technique).period == technique.cycle().period
        assert not table


#: Small enough to run twice; holds split mirrors and snapshots, full and
#: incremental backups, two vault cadences and a batched mirror.
SPACE = DesignSpace(
    pit_choices=(PitChoice("split-mirror", "12 hr", 4), PitChoice("snapshot", "8 hr", 3)),
    backup_choices=(
        BackupChoice("weekly-full", "1 wk", "48 hr"),
        BackupChoice(
            "weekly-fi",
            "48 hr",
            "48 hr",
            incremental=_incremental(IncrementalKind.CUMULATIVE),
        ),
        None,
    ),
    vault_choices=(
        VaultChoice("4wk-vault", "4 wk", "676 hr", 39),
        VaultChoice("weekly-vault", "1 wk", "12 hr", 156),
        None,
    ),
    mirror_link_counts=(None, 1),
)


class TestSweepSharesFacts:
    @pytest.fixture(autouse=True)
    def _pool(self):
        yield
        shutdown_pool()

    def test_optimize_builds_one_timeline_cycle_per_distinct_technique(
        self, monkeypatch
    ):
        candidates = candidate_designs(SPACE, include_hybrids=True)
        distinct = set()
        for factory in candidates.values():
            for level in factory().levels:
                try:
                    level.technique.cycle()
                except NoCycleError:
                    continue
                distinct.add(technique_key(level.technique))

        built = []
        real_init = CycleModel.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(CycleModel, "__init__", counted_init)
        workload = cello()
        scenarios = casestudy.case_study_scenarios()
        requirements = casestudy.case_study_requirements()
        serial = optimize(candidates, workload, scenarios, requirements)
        monkeypatch.setattr(CycleModel, "__init__", real_init)

        assert not serial.skipped and len(serial.ranking) == len(candidates)
        # Timeline facts and the vaults' extra-copy checks read one
        # shared table: each distinct technique's cycle is built once.
        assert len(built) <= len(distinct)

        digests = {
            entry.name: result_digest(entry.result.assessments)
            for entry in serial.ranking
        }
        for name, factory in candidates.items():
            fresh = evaluate_scenarios(factory(), workload, scenarios, requirements)
            assert digests[name] == result_digest(fresh), name

        pooled = optimize(
            candidates,
            workload,
            scenarios,
            requirements,
            config=EngineConfig(workers=2),
        )
        assert [
            (entry.name, entry.objective, result_digest(entry.result.assessments))
            for entry in pooled.ranking
        ] == [
            (entry.name, entry.objective, digests[entry.name])
            for entry in serial.ranking
        ]
