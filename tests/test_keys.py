"""Task keys: the planned walk against an oracle, and the digest memos.

``_OracleFingerprinter`` is a verbatim copy of the walk the keys used
before it dispatched on per-type plans.  Every payload shape the engine
keys must encode to the same text under both, so cache entries written
before the change are still found after it.  The pinned case-study
digests keep that promise checkable once the oracle is gone.
"""

import collections
import enum
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

import repro
from repro import casestudy
from repro.core.hierarchy import StorageDesign
from repro.design import DesignSpace, candidate_designs
from repro.design.space import PitChoice
from repro.devices.catalog import (
    air_shipment,
    enterprise_tape_library,
    midrange_disk_array,
    offsite_vault,
    san_link,
)
from repro.engine import EngineConfig, ResultCache
from repro.engine import keys
from repro.engine.keys import ValueMemo, fingerprint, part_digest, task_key
from repro.engine.sweep import evaluate_design_map
from repro.exceptions import CacheKeyError
from repro.scenarios.failures import FailureScenario
from repro.serialization import canonical_json
from repro.techniques import Backup, PrimaryCopy, RemoteVaulting
from repro.workload.presets import cello, oltp_database, web_server


class _OracleFingerprinter:
    """One fingerprint traversal: assigns stable reference numbers.

    Reference numbers are assigned in first-visit order, which is
    itself deterministic because every container is walked in sorted
    (or declared) order — so two structurally equal graphs always
    produce identical fingerprints, shared substructure included.
    """

    def __init__(self) -> None:
        self._refs: "Dict[int, int]" = {}
        self._next_ref = 0

    def walk(self, obj: Any) -> Any:
        """The JSON-able canonical form of ``obj``."""
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, enum.Enum):
            return {"$enum": type(obj).__qualname__, "value": obj.value}
        if isinstance(obj, (list, tuple)):
            return [self.walk(item) for item in obj]
        if isinstance(obj, dict):
            return self._walk_mapping(obj)
        if isinstance(obj, (set, frozenset)):
            walked = [self.walk(item) for item in obj]
            return {"$set": sorted(walked, key=canonical_json)}
        if is_dataclass(obj) and not isinstance(obj, type):
            return self._walk_object(
                obj,
                {f.name: getattr(obj, f.name) for f in fields(obj) if f.compare},
            )
        module = getattr(type(obj), "__module__", "")
        if module == "repro" or module.startswith("repro."):
            return self._walk_object(obj, vars(obj))
        raise CacheKeyError(
            f"cannot fingerprint {type(obj).__qualname__!r} (module "
            f"{module or '?'}): no deterministic serialization"
        )

    def _walk_mapping(self, mapping: "Dict[Any, Any]") -> Any:
        if all(isinstance(key, str) for key in mapping):
            return {key: self.walk(value) for key, value in sorted(mapping.items())}
        entries = [[self.walk(key), self.walk(value)] for key, value in mapping.items()]
        entries.sort(key=lambda entry: canonical_json(entry[0]))
        return {"$dict": entries}

    def _walk_object(self, obj: Any, state: "Dict[str, Any]") -> Any:
        marker = id(obj)
        if marker in self._refs:
            return {"$ref": self._refs[marker]}
        # Number the object *before* walking its state so reference
        # cycles terminate.
        ref = self._refs[marker] = self._next_ref
        self._next_ref += 1
        return {
            "$type": type(obj).__qualname__,
            "$id": ref,
            "state": {key: self.walk(value) for key, value in sorted(state.items())},
        }


def _text(tree: Any) -> str:
    return json.dumps(tree, separators=(",", ":"), ensure_ascii=True)


def _assert_same_as_oracle(obj: Any) -> None:
    assert _text(fingerprint(obj)) == _text(_OracleFingerprinter().walk(obj))


def _object_scenario(hours: int) -> FailureScenario:
    return FailureScenario.object_corruption(
        object_size="1 MB", recovery_target_age=f"{hours} hr"
    )


def _scenario_sets():
    pool = (
        [_object_scenario(hours) for hours in (1, 2, 24, 168)]
        + [
            FailureScenario.array_failure("primary-array"),
            FailureScenario.building_disaster(),
            casestudy.site_failure_scenario(),
        ]
    )
    return [tuple(casestudy.case_study_scenarios()), tuple(pool), (pool[1], pool[4])]


def _sweep_grid_designs():
    """Every 7th candidate of a sweep-style grid: two PiT windows, two
    retentions, every backup and vault choice, four link counts."""
    designs = []
    for window in ("6 hr", "24 hr"):
        for retention in (2, 4):
            space = DesignSpace(
                pit_choices=(
                    PitChoice("split-mirror", window, retention),
                    PitChoice("snapshot", window, retention),
                ),
                mirror_link_counts=(None, 1, 3, 10),
            )
            factories = candidate_designs(space, include_hybrids=True)
            designs.extend(factory() for factory in list(factories.values())[::7])
    return designs


class TestOracle:
    def test_design_space_candidates(self):
        candidates = candidate_designs(DesignSpace(), include_hybrids=True)
        assert candidates
        for factory in candidates.values():
            _assert_same_as_oracle(factory())

    def test_table7_designs(self):
        _assert_same_as_oracle(casestudy.baseline_design())
        for design in casestudy.all_table7_designs().values():
            _assert_same_as_oracle(design)

    def test_sweep_grid_sample(self):
        designs = _sweep_grid_designs()
        assert len(designs) > 20
        for design in designs:
            _assert_same_as_oracle(design)

    def test_workloads_scenarios_and_requirements(self):
        for workload in (cello(), oltp_database(), web_server()):
            _assert_same_as_oracle(workload)
        for scenarios in _scenario_sets():
            _assert_same_as_oracle(scenarios)
        _assert_same_as_oracle(casestudy.case_study_requirements())

    def test_whole_task_payloads(self):
        design = casestudy.baseline_design()
        for scenarios in _scenario_sets():
            _assert_same_as_oracle(
                {
                    "kind": "evaluation",
                    "design": design,
                    "workload": cello(),
                    "scenarios": scenarios,
                    "requirements": casestudy.case_study_requirements(),
                    "strict_utilization": True,
                }
            )

    def test_edge_shapes(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2

        class Mode(str, enum.Enum):
            FAST = "fast"

        class Scope(enum.Enum):
            SITE = "site"

        Pair = collections.namedtuple("Pair", "left right")

        @dataclass(frozen=True)
        class Leaf:
            value: float
            note: str = field(default="", compare=False)

        @dataclass
        class Node:
            name: str
            next: "Optional[Node]" = None

        shared = Leaf(1.5)
        cycle = Node("a", Node("b"))
        cycle.next.next = cycle
        self_loop = Node("self")
        self_loop.next = self_loop
        for obj in (
            Level.HIGH,
            [Level.LOW, Mode.FAST, Scope.SITE],
            {"mode": Mode.FAST, "level": Level.LOW},
            [math.nan, math.inf, -math.inf, -0.0, 0.0],
            [shared, shared, (shared,)],
            cycle,
            self_loop,
            Pair(1, Leaf(2.0, note="ignored")),
            {1: "one", 2.5: "two and a half", None: "none", True: [1, 2]},
            {"b": {3: 4}, "a": []},
            frozenset({3, 1, 2}),
            {"x", "y", "z"},
            frozenset({"a", 1, 2.5, None}),
            frozenset({Scope.SITE}),
        ):
            _assert_same_as_oracle(obj)

    def test_unfingerprintable_objects_raise(self):
        class Foreign:
            pass

        for obj in (lambda: None, Foreign(), {"nested": [object()]}):
            with pytest.raises(CacheKeyError):
                fingerprint(obj)
            with pytest.raises(CacheKeyError):
                _OracleFingerprinter().walk(obj)

    def test_case_study_part_digests_are_pinned(self):
        assert part_digest(casestudy.baseline_design()) == (
            "95b5bd9f95d72dd7fb9616943075e017d8a3fa65083280897368d7aace2a85fd"
        )
        assert part_digest(cello()) == (
            "2b695639e82c069b2ca882e684f96bf3b28ef58f56bf00ec6bbe4653625317d7"
        )
        assert part_digest(tuple(casestudy.case_study_scenarios())) == (
            "5c64190f89762c77232a1564dcdb2fa5cd18a94c024651ee3c25164253a88aaa"
        )
        assert part_digest(casestudy.case_study_requirements()) == (
            "ab12a5823fe216341a22c5681bfa97912861f7a86719ae3d9df9ad14320382ee"
        )


_SET_DIGEST_SCRIPT = """
from repro.engine.keys import part_digest
from repro.scenarios.failures import FailureScenario
scenarios = frozenset({
    FailureScenario.array_failure("primary-array"),
    FailureScenario.building_disaster(),
    FailureScenario.object_corruption(object_size="1 MB", recovery_target_age="2 hr"),
})
print(part_digest(scenarios))
print(part_digest({scenario: scenario.describe() for scenario in scenarios}))
"""


class TestUnorderedContainers:
    def test_object_set_digest_does_not_follow_the_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _SET_DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_object_keyed_dict_does_not_follow_insertion_order(self):
        array = FailureScenario.array_failure("primary-array")
        building = FailureScenario.building_disaster()
        forward = {array: [1.0], building: [2.0]}
        backward = {building: [2.0], array: [1.0]}
        assert fingerprint(forward) == fingerprint(backward)

    def test_members_are_walked_in_standalone_order(self):
        array = FailureScenario.array_failure("primary-array")
        building = FailureScenario.building_disaster()
        walked = fingerprint(frozenset({array, building}))["$set"]
        standalone = sorted(canonical_json(fingerprint(s)) for s in (array, building))
        assert [item["$id"] for item in walked] == [0, 1]
        assert [json.loads(text)["state"] for text in standalone] == [
            item["state"] for item in walked
        ]


def _two_level_design() -> StorageDesign:
    design = StorageDesign("growing", recovery_facility=casestudy.recovery_facility())
    design.add_level(
        PrimaryCopy(), store=midrange_disk_array(spare=casestudy.hot_spare())
    )
    design.add_level(
        Backup("1 wk", "48 hr", "1 hr", 4),
        store=enterprise_tape_library(spare=casestudy.hot_spare()),
        transport=san_link(),
    )
    return design


class TestValueMemo:
    def test_mutated_design_gets_a_fresh_key_through_one_cache(self):
        design = _two_level_design()
        scenarios = (casestudy.site_failure_scenario(),)
        config = EngineConfig(memory_cache_entries=8)
        cache = ResultCache(memory_entries=8)

        def run():
            return evaluate_design_map(
                {"design": design},
                cello(),
                scenarios,
                casestudy.case_study_requirements(),
                config=config,
                cache=cache,
            )["design"]

        first = run()
        design.add_level(
            RemoteVaulting("4 wk", "24 hr", "4 wk", 39),
            store=offsite_vault(),
            transport=air_shipment(),
        )
        second = run()
        assert first.ok and second.ok
        assert not second.cached
        assert len(cache.memory) == 2
        assert first.value != second.value

    def test_reused_parts_are_walked_once_per_cache(self, monkeypatch):
        walked = collections.Counter()
        real = keys.fingerprint

        def counted(obj):
            walked[id(obj)] += 1
            return real(obj)

        monkeypatch.setattr(keys, "fingerprint", counted)
        workload = cello()
        requirements = casestudy.case_study_requirements()
        scenarios = tuple(casestudy.case_study_scenarios())
        config = EngineConfig(memory_cache_entries=8)
        cache = ResultCache(memory_entries=8)
        for factory in (casestudy.baseline_design, casestudy.weekly_vault_design):
            evaluate_design_map(
                {"design": factory},
                workload,
                scenarios,
                requirements,
                config=config,
                cache=cache,
            )
        assert walked[id(workload)] == 1
        assert walked[id(requirements)] == 1
        assert walked[id(scenarios)] == 1
        # A second cache starts its own memo.
        evaluate_design_map(
            {"design": casestudy.baseline_design},
            workload,
            scenarios,
            requirements,
            config=config,
            cache=ResultCache(memory_entries=8),
        )
        assert walked[id(workload)] == 2

    def test_mutable_parts_are_never_memoized(self):
        @dataclass
        class Box:
            value: float

        @dataclass(frozen=True)
        class Holder:
            items: Any

        values = ValueMemo()
        memo: "Dict[int, Any]" = {}
        mutable_parts = [
            (1.0, [2.0]),
            (cello(), Box(1.0)),
            Holder([1, 2]),
            Holder((1, {"a": 2})),
            (frozenset({1, 2}), Box(3.0)),
            casestudy.baseline_design(),
            [cello()],
            {"workload": cello()},
            {1, 2},
        ]
        for part in mutable_parts:
            assert not keys._is_value(part)
            part_digest(part, memo, values)
        assert len(values) == 0
        assert len(memo) == len(mutable_parts)
        for part in (cello(), (1, "a", None), frozenset({2.5}), Holder((1, 2))):
            assert keys._is_value(part)

    def test_memo_stays_within_its_bound(self):
        values = ValueMemo()
        bound = ValueMemo.MAX_ENTRIES
        parts = [(index, "part") for index in range(bound + 10)]
        for part in parts:
            part_digest(part, None, values)
            assert len(values) <= bound
        assert len(values) == bound
        # The newest entries survive and still answer correctly.
        assert values.get(parts[-1]) == part_digest(parts[-1])
        assert values.get(parts[9]) is None

    def test_a_part_every_request_shares_survives_fresh_parts(self):
        values = ValueMemo()
        shared = cello()
        part_digest(shared, None, values)
        for index in range(ValueMemo.MAX_ENTRIES + 10):
            part_digest((index, "fresh"), None, values)
            assert values.get(shared) is not None
        assert values.get(shared) == part_digest(shared)
        assert len(values) == ValueMemo.MAX_ENTRIES

    def test_memos_never_change_a_key(self):
        payload = {
            "design": casestudy.baseline_design(),
            "workload": cello(),
            "scenarios": tuple(casestudy.case_study_scenarios()),
        }
        values = ValueMemo()
        expected = task_key(payload)
        assert task_key(payload, {}, values) == expected
        assert task_key(payload, {}, values) == expected
        assert len(values) == 2
