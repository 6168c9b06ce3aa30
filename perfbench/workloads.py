"""The benchmark's four workloads.

Each workload builds its inputs from a seed, serves one request at a
time to a single closed-loop client, and checks every output.  Every
workload exists to stress a different set of layers:

* ``sweep`` — design selection: ``core`` does nearly all the work; the
  engine's keys and cache are bypassed (no cache, so no keys);
* ``risk-warm`` — ``repro risk``-style requests against a warm memory
  tier: ``risk.aggregate`` and ``risk.distributions`` do the work while
  ``core`` is nearly idle;
* ``session`` — interactive what-ifs against a disk-backed cache: the
  only workload that stresses ``engine.keys`` and both cache tiers;
* ``lint`` — ``repro lint all`` over a pinned source tree with planted
  bugs, one package group per request.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import shutil
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import casestudy, serialization
from repro.core.evaluate import evaluate_scenarios
from repro.design import DesignSpace, candidate_designs, optimize
from repro.design.space import BackupChoice, PitChoice, VaultChoice
from repro.engine import EngineConfig, ResultCache
from repro.engine.keys import result_digest
from repro.engine.sweep import evaluate_scenarios_cached
from repro.lint import allcheck
from repro.risk import aggregate
from repro.scenarios.failures import FailureScenario
from repro.serialization import canonical_json
from repro.units import HOUR
from repro.workload.presets import cello

HERE = Path(__file__).resolve().parent

#: The lint corpus: ``src/repro`` and ``examples/specs`` as of commit
#: 8f1bceb, so later source edits never change what the workload lints.
CORPUS = HERE / "corpus.tar.gz"

LOOP = "closed, 1 client"

#: Recovery-target ages (hours) object-corruption scenarios draw from.
AGES_HR = (1, 2, 4, 8, 12, 24, 48, 96, 168, 336)


def _object_scenario(hours: int) -> FailureScenario:
    return FailureScenario.object_corruption(
        object_size="1 MB", recovery_target_age=f"{hours} hr"
    )


def _hardware_scenarios() -> "Tuple[FailureScenario, ...]":
    return (
        FailureScenario.array_failure("primary-array"),
        FailureScenario.building_disaster(),
        casestudy.site_failure_scenario(),
    )


class Workload:
    """One seeded workload: set-up, requests, output checks.

    ``setup`` may run several times (the benchmark reports the median
    set-up time); each call rebuilds everything from the seed.
    """

    name = ""
    why = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: The tail percentile ``request_tail_ms`` reports.
    tail = 0.90
    flush = "none: no result cache"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Build the reference outputs the checks compare against."""

    def header(self) -> "List[str]":
        return []

    def begin_pass(self) -> None:
        """Put mutable program state (caches) back to the set-up state."""

    def prepare(self, index: int) -> None:
        """Untimed work before request ``index``."""

    def request(self, index: int) -> "Tuple[int, Any]":
        """Serve request ``index``; returns ``(work units, result)``."""
        raise NotImplementedError

    def check(self, index: int, result: Any) -> bool:
        raise NotImplementedError

    def final_checks(self) -> "List[Tuple[str, bool]]":
        return []

    def cycle_length(self) -> int:
        """The request list repeats every this many requests.  Timed runs
        measure whole cycles; a traced pass serves exactly one, so its
        counts repeat exactly."""
        raise NotImplementedError

    def caches(self) -> "List[ResultCache]":
        return []

    def factory_maps(self) -> "List[Dict[str, Callable[[], Any]]]":
        return []

    def disk_paths(self) -> "List[Path]":
        return []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Baseline Table 6 anchors: scenario fragment -> (source, RT bounds, DL hours).
TABLE6 = {
    "object": ("split mirror", (0.002, 0.02), 12),
    "array": ("backup", (1 * HOUR, 3 * HOUR), 217),
    "site": ("remote vaulting", (24 * HOUR, 28 * HOUR), 1429),
}


class Sweep(Workload):
    name = "sweep"
    why = (
        "the paper's design-selection use: optimize a DesignSpace grid "
        "serially with no cache, so core does the work and engine keys/cache "
        "are bypassed"
    )
    work_unit = "assessments"

    # The seed picks PiT windows, link counts, scenario ages and the
    # slicing; the grid's shape (and so its cost) is the same for every
    # seed, so seeds differ in inputs, not in how much work they are.
    WINDOWS = ("4 hr", "6 hr", "8 hr", "12 hr", "24 hr")
    RETENTIONS = (2, 3, 4)
    BACKUPS = (
        BackupChoice("weekly-full", "1 wk", "48 hr"),
        BackupChoice("daily-full", "24 hr", "12 hr"),
        BackupChoice("2day-full", "48 hr", "24 hr"),
        BackupChoice("daily-full-r12", "24 hr", "12 hr", retention_count=12),
    )
    VAULTS = (
        VaultChoice("4wk-vault", "4 wk", "676 hr", 39),
        VaultChoice("weekly-vault", "1 wk", "12 hr", 156),
        VaultChoice("2wk-vault", "2 wk", "12 hr", 78),
    )
    LINKS = (1, 2, 3, 4, 6, 8, 10, 16)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        tiny = self.tiny
        windows = rng.sample(self.WINDOWS, 1 if tiny else 2)
        retentions = self.RETENTIONS[:1] if tiny else self.RETENTIONS
        backups = (self.BACKUPS[:1] if tiny else self.BACKUPS) + (None,)
        vaults = (self.VAULTS[:1] if tiny else self.VAULTS) + (None,)
        links = (None,) + tuple(sorted(rng.sample(self.LINKS, 1 if tiny else 4)))
        self.grid = (windows, retentions, backups, vaults, links)
        self.candidates: "Dict[str, Callable[[], Any]]" = {}
        for window in windows:
            for retention in retentions:
                space = DesignSpace(
                    pit_choices=(
                        PitChoice("split-mirror", window, retention),
                        PitChoice("snapshot", window, retention),
                    ),
                    backup_choices=backups,
                    vault_choices=vaults,
                    mirror_link_counts=links,
                )
                for name, factory in candidate_designs(
                    space, include_hybrids=True
                ).items():
                    # Names only carry the PiT kind; mirror-only designs
                    # have no PiT level and are the same in every space.
                    if not name.startswith("asyncB-"):
                        name = f"{window}/r{retention} {name}"
                    self.candidates[name] = factory
        ages = sorted(rng.sample(AGES_HR, 1 if tiny else 4))
        self.scenarios = tuple(_object_scenario(h) for h in ages) + _hardware_scenarios()
        names = sorted(self.candidates)
        rng.shuffle(names)
        size = 8 if tiny else 32
        self.slices = [names[i : i + size] for i in range(0, len(names), size)]
        self.workload = cello()
        self.requirements = casestudy.case_study_requirements()

    def header(self) -> "List[str]":
        windows, retentions, backups, vaults, links = self.grid
        return [
            f"grid: {len(self.candidates)} candidates (include_hybrids) from PiT "
            f"windows {list(windows)} x retentions {list(retentions)}, "
            f"{len(backups)} backup, {len(vaults)} vault and {len(links)} mirror "
            "choices (None counted)",
            f"scenarios: {len(self.scenarios)} "
            f"({', '.join(s.describe() for s in self.scenarios)})",
            f"requests: optimize() over {len(self.slices)} slices of up to "
            f"{len(self.slices[0])} candidates, cycled; no engine cache, so no "
            "task keys",
        ]

    def request(self, index: int) -> "Tuple[int, Any]":
        names = self.slices[index % len(self.slices)]
        outcome = optimize(
            {name: self.candidates[name] for name in names},
            self.workload,
            self.scenarios,
            self.requirements,
        )
        return len(names) * len(self.scenarios), (names, outcome)

    def check(self, index: int, result: Any) -> bool:
        """Ranking is complete, and one seeded candidate's assessments
        equal a fresh serial ``evaluate_scenarios``."""
        names, outcome = result
        if outcome.skipped or outcome.best is None:
            return False
        ranked = {entry.name: entry for entry in outcome.ranking}
        if sorted(ranked) != sorted(names):
            return False
        pick = random.Random(f"{self.seed}:{index}").choice(names)
        fresh = evaluate_scenarios(
            self.candidates[pick](), self.workload, self.scenarios, self.requirements
        )
        return result_digest(ranked[pick].result.assessments) == result_digest(fresh)

    def final_checks(self) -> "List[Tuple[str, bool]]":
        results = evaluate_scenarios(
            casestudy.baseline_design(),
            self.workload,
            casestudy.case_study_scenarios(),
            self.requirements,
        )
        checks = []
        for fragment, (source, (rt_lo, rt_hi), loss_hours) in TABLE6.items():
            assessment = next(a for k, a in results.items() if fragment in k)
            checks.append(
                (
                    f"Table 6 {fragment} anchor",
                    assessment.data_loss.source_name == source
                    and rt_lo <= assessment.recovery_time <= rt_hi
                    and math.isclose(
                        assessment.recent_data_loss, loss_hours * HOUR, rel_tol=1e-9
                    ),
                )
            )
        return checks

    def cycle_length(self) -> int:
        return len(self.slices)

    def factory_maps(self) -> "List[Dict[str, Callable[[], Any]]]":
        return [self.candidates]


# ---------------------------------------------------------------------------
# risk-warm
# ---------------------------------------------------------------------------


class RiskWarm(Workload):
    name = "risk-warm"
    why = (
        "repro risk requests against a warm memory tier: with core nearly "
        "idle, time goes to member digests, dedup and the Panjer fold"
    )
    work_unit = "members"
    flush = "none: memory tier only"
    MEMORY_ENTRIES = 256
    MC_SAMPLES = 2000

    def _spec(self, rng: random.Random, index: int, count: int) -> "Dict[str, Any]":
        n = rng.choice((6, 8, 10, 12))
        return {
            "workload": "cello",
            "design": "baseline",
            "ensemble": {
                "name": f"request-{index}",
                "members": [
                    {
                        "id": "raid-group",
                        "scenario": "array",
                        "kofn": {
                            "n": n,
                            "k": n - 2,
                            "unit_rate": f"{rng.choice((1, 2, 3))}/yr",
                            "repair_time": rng.choice(("4 hr", "8 hr", "12 hr")),
                            "repair": rng.choice(("parallel", "serial")),
                        },
                    }
                ],
                "correlated": [
                    {
                        "id": "array-backup-window",
                        "rate": f"{rng.uniform(0.2, 1.0):.3f}/yr",
                        "fraction": round(rng.uniform(0.1, 0.4), 3),
                        "base": "array",
                        "correlated": "building",
                    }
                ],
                "cascades": [
                    {
                        "id": "site-during-recovery",
                        "rate": f"{rng.uniform(0.005, 0.05):.4f}/yr",
                        "primary": "array",
                        "escalated": "site",
                        "secondary_rate": f"{rng.uniform(0.1, 1.0):.3f}/yr",
                    }
                ],
                "generate": {
                    "object_grid": {
                        "count": count,
                        "total_rate": f"{rng.uniform(4.0, 24.0):.2f}/yr",
                        "distinct_ages": self.distinct_ages,
                        "max_age": "1 wk",
                        "object_size": "1 MB",
                    }
                },
            },
            "requirements": {
                "unavailability_per_hour": 50000,
                "loss_per_hour": 50000,
                "rto": "4 hr",
                "rpo": "24 hr",
            },
        }

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.distinct_ages = 16 if self.tiny else 128
        # Every seed gets the same ladder of member counts (so the same
        # amount of work), in its own order and with its own rates.
        ladder = [100, 200, 300] if self.tiny else list(range(1000, 6000, 500))
        rng.shuffle(ladder)
        self.specs = [
            json.dumps(self._spec(rng, k, count)) for k, count in enumerate(ladder)
        ]
        self.order = list(range(len(self.specs)))
        rng.shuffle(self.order)
        # One request in len(specs) (ten at full size) adds the seeded
        # Monte Carlo cross-check: the largest spec.
        self.mc_spec = ladder.index(max(ladder))
        self.config = EngineConfig(memory_cache_entries=self.MEMORY_ENTRIES)
        self.cache = ResultCache(memory_entries=self.MEMORY_ENTRIES)
        # Two warm-up passes: the first evaluates every pooled scenario;
        # a cascade's escalated scenario is keyed after its primary has
        # been evaluated (demand state on the design), so the second
        # stores it under the key a warm request computes.
        for _ in range(2):
            self._assess(self.order[0], self.cache)

    def _assess(self, spec_index: int, cache: "Optional[ResultCache]") -> Any:
        spec = json.loads(self.specs[spec_index])
        workload = serialization.workload_from_spec(spec["workload"])
        design = serialization.design_from_spec(spec["design"])
        ensemble = serialization.ensemble_from_spec(spec["ensemble"])
        requirements = serialization.requirements_from_spec(spec["requirements"])
        return aggregate.assess_risk(
            design,
            workload,
            ensemble,
            requirements,
            samples=self.MC_SAMPLES if spec_index == self.mc_spec else 0,
            seed=self.seed,
            config=self.config if cache is not None else None,
            cache=cache,
        )

    def prepare_checks(self) -> None:
        self.reference = [
            canonical_json(self._assess(k, None).to_dict())
            for k in range(len(self.specs))
        ]

    def header(self) -> "List[str]":
        counts = [
            json.loads(s)["ensemble"]["generate"]["object_grid"]["count"]
            for s in self.specs
        ]
        pool = self.distinct_ages + 3
        return [
            f"requests: {len(self.specs)} seeded risk specs (object grid of "
            f"{min(counts)}-{max(counts)} members + k-of-n, correlated, cascade), "
            f"cycled; 1 in {len(self.specs)} adds a {self.MC_SAMPLES}-sample "
            "Monte Carlo cross-check",
            f"cache: scenario pool {pool} distinct scenarios vs "
            f"memory_cache_entries {self.MEMORY_ENTRIES} (working set fits; "
            "warmed during set-up)",
        ]

    def request(self, index: int) -> "Tuple[int, Any]":
        spec_index = self.order[index % len(self.order)]
        result = self._assess(spec_index, self.cache)
        return len(result.members), (spec_index, result)

    def check(self, index: int, result: Any) -> bool:
        """Byte-identical to the same request assessed uncached."""
        spec_index, assessment = result
        return canonical_json(assessment.to_dict()) == self.reference[spec_index]

    def cycle_length(self) -> int:
        return len(self.order)

    def caches(self) -> "List[ResultCache]":
        return [self.cache]


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------


def _zipf_weights(n: int, exponent: float = 1.1) -> "List[float]":
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


class Session(Workload):
    name = "session"
    why = (
        "interactive what-ifs on a disk-backed cache: the only workload that "
        "stresses engine.keys and both cache tiers, with writes beside reads"
    )
    work_unit = "requests"
    tail = 0.99
    flush = (
        "DiskCache: one O_APPEND write per record, no fsync; reads come from "
        "the OS page cache, so latencies are the host's, not a device's"
    )

    def setup(self) -> None:
        rng = random.Random(self.seed)
        catalog: "Dict[str, Callable[[], Any]]" = dict(
            candidate_designs(DesignSpace(), include_hybrids=True)
        )
        catalog.update(
            {
                "table7 baseline": casestudy.baseline_design,
                "table7 weekly vault": casestudy.weekly_vault_design,
                "table7 weekly vault + incrementals": casestudy.weekly_vault_incrementals_design,
                "table7 weekly vault + daily fulls": casestudy.weekly_vault_daily_fulls_design,
                "table7 weekly vault + daily fulls + snapshot": (
                    casestudy.weekly_vault_daily_fulls_snapshot_design
                ),
                "table7 asyncB 1 link": functools.partial(
                    casestudy.async_batch_mirror_design, 1
                ),
                "table7 asyncB 10 links": functools.partial(
                    casestudy.async_batch_mirror_design, 10
                ),
            }
        )
        names = sorted(catalog)
        rng.shuffle(names)
        if self.tiny:
            names = names[:6]
        self.catalog = {name: catalog[name] for name in names}
        pool = [_object_scenario(h) for h in AGES_HR] + list(_hardware_scenarios())
        # Equal numbers of 2-, 3- and 4-scenario sets for every seed.
        per_size = 2 if self.tiny else 8
        ordered_sets: "List[Tuple[int, ...]]" = []
        for size in (2, 3, 4):
            chosen: "Set[Tuple[int, ...]]" = set()
            while len(chosen) < per_size:
                chosen.add(tuple(sorted(rng.sample(range(len(pool)), size))))
            ordered_sets.extend(sorted(chosen))
        rng.shuffle(ordered_sets)
        self.sets = [tuple(pool[j] for j in idx) for idx in ordered_sets]
        self.memory_entries = 4 if self.tiny else 64
        length = 40 if self.tiny else 1500
        design_picks = rng.choices(names, weights=_zipf_weights(len(names)), k=length)
        set_picks = rng.choices(
            range(len(self.sets)), weights=_zipf_weights(len(self.sets)), k=length
        )
        self.stream = list(zip(design_picks, set_picks))
        self.distinct = sorted(set(self.stream))
        prefill = sorted(rng.sample(self.distinct, len(self.distinct) // 2))

        self.workload = cello()
        self.requirements = casestudy.case_study_requirements()
        self.prefill_dir = self.workdir / "session-prefill"
        shutil.rmtree(self.prefill_dir, ignore_errors=True)
        config = EngineConfig(cache_dir=str(self.prefill_dir))
        cache = ResultCache(cache_dir=self.prefill_dir)
        self.prefilled: "Dict[Tuple[str, int], Any]" = {}
        for key in prefill:
            self.prefilled[key] = evaluate_scenarios_cached(
                self.catalog[key[0]],
                self.workload,
                self.sets[key[1]],
                self.requirements,
                config=config,
                cache=cache,
            )
        self.pass_dir: "Optional[Path]" = None
        self.cache: "Optional[ResultCache]" = None

    def prepare_checks(self) -> None:
        self.first_digest = {
            key: result_digest(value) for key, value in self.prefilled.items()
        }

    def header(self) -> "List[str]":
        prefill_bytes = (self.prefill_dir / "results.jsonl").stat().st_size
        return [
            f"catalog: {len(self.catalog)} designs (DesignSpace() with hybrids + "
            f"Table 7) x {len(self.sets)} scenario sets, Zipf(1.1) popularity",
            f"session: {len(self.stream)} requests replayed from the set-up "
            "state; set-up state restored (untimed) between replays",
            f"cache: {len(self.distinct)} distinct keys vs memory tier "
            f"{self.memory_entries} entries; disk tier prefilled with "
            f"{len(self.prefilled)} keys, {prefill_bytes} bytes",
        ]

    def begin_pass(self) -> None:
        if self.pass_dir is not None:
            shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir = Path(tempfile.mkdtemp(prefix="session-", dir=self.workdir))
        shutil.copyfile(
            self.prefill_dir / "results.jsonl", self.pass_dir / "results.jsonl"
        )
        self.config = EngineConfig(
            memory_cache_entries=self.memory_entries, cache_dir=str(self.pass_dir)
        )
        self.cache = ResultCache(
            memory_entries=self.memory_entries, cache_dir=self.pass_dir
        )

    def prepare(self, index: int) -> None:
        if index and index % len(self.stream) == 0:
            self.begin_pass()

    def request(self, index: int) -> "Tuple[int, Any]":
        key = self.stream[index % len(self.stream)]
        result = evaluate_scenarios_cached(
            self.catalog[key[0]],
            self.workload,
            self.sets[key[1]],
            self.requirements,
            config=self.config,
            cache=self.cache,
        )
        return 1, (key, result)

    def check(self, index: int, result: Any) -> bool:
        """Equal to the digest recorded when the key was first computed."""
        key, value = result
        digest = result_digest(value)
        return digest is not None and self.first_digest.setdefault(key, digest) == digest

    def cycle_length(self) -> int:
        return len(self.stream)

    def caches(self) -> "List[ResultCache]":
        return [] if self.cache is None else [self.cache]

    def factory_maps(self) -> "List[Dict[str, Callable[[], Any]]]":
        return [self.catalog]

    def disk_paths(self) -> "List[Path]":
        return [] if self.pass_dir is None else [self.pass_dir / "results.jsonl"]


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

#: Planted bugs: ``(rule, source, 0-based line of the finding)``.  Each
#: is appended to a seeded corpus module and yields exactly one finding.
PLANTS = (
    ("UNI001", "def _planted_{i}_window():\n    return 2 * 3600\n", 1),
    ("UNI002", "def _planted_{i}_block():\n    return 4 * 1024\n", 1),
    (
        "EXC001",
        "def _planted_{i}_guard(action):\n    try:\n        return action()\n"
        "    except Exception:\n        return None\n",
        3,
    ),
    (
        "DIM001",
        "def _planted_{i}_mix():\n    from repro.units import HOUR, MB\n"
        "    return HOUR + MB\n",
        2,
    ),
    (
        "EXN005",
        "def _planted_{i}_reraise(text):\n    try:\n        return int(text)\n"
        "    except ValueError:\n        raise RuntimeError(text)\n",
        4,
    ),
)


#: The pinned tree's package groups, one ``lint_targets`` call each; the
#: empty group is the top-level modules, linted with the example specs.
#: A whole-tree pass takes seconds, too few per run to be steady; six
#: groups of 3-7k lines give a run a few dozen requests.
LINT_GROUPS = (
    ("lint",),
    ("obs", "reporting"),
    ("core", "techniques", "scenarios"),
    ("engine", "risk", "design", "bench"),
    ("devices", "simulation", "workload"),
    (),
)


class Lint(Workload):
    name = "lint"
    why = (
        "repro lint all over a pinned source tree: before/after numbers for "
        "the lint-shrink work (parse count, per-analyzer time)"
    )
    work_unit = "lines"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        root = self.workdir / "lint-corpus"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir()
        with tarfile.open(CORPUS) as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(root, filter="data")
            else:
                archive.extractall(root)
        tree = root / "src" / "repro"
        if self.tiny:
            tree = tree / "risk"
        sources = sorted(tree.rglob("*.py"))
        candidates = [
            p
            for p in sources
            if p.name not in ("__init__.py", "units.py")
            and "lint" not in p.relative_to(tree).parts
        ]
        targets = rng.sample(candidates, 2 if self.tiny else 6)
        first = rng.randrange(len(PLANTS))
        self.expected: "Set[Tuple[str, str, int]]" = set()
        self.plants: "List[str]" = []
        for i, path in enumerate(targets):
            rule, template, offset = PLANTS[(first + i) % len(PLANTS)]
            source = path.read_text(encoding="utf-8")
            if not source.endswith("\n"):
                source += "\n"
            start = source.count("\n") + 3
            path.write_text(source + "\n\n" + template.format(i=i), encoding="utf-8")
            line = start + offset
            self.expected.add((rule, os.path.realpath(path), line))
            self.plants.append(f"{rule} {path.relative_to(root)}:{line}")
        specs = (
            [] if self.tiny else sorted(str(p) for p in (root / "examples" / "specs").glob("*.json"))
        )
        # Each request: (specs, paths, lines, expected findings).
        self.requests: "List[Tuple[List[str], List[str], int, Set[Tuple[str, str, int]]]]" = []
        for group in [()] if self.tiny else LINT_GROUPS:
            if group:
                paths = [tree / name for name in group]
                files = [p for path in paths for p in sorted(path.rglob("*.py"))]
            else:
                paths = files = sorted(tree.glob("*.py"))
            real = {os.path.realpath(p) for p in files}
            self.requests.append(
                (
                    specs if not group else [],
                    [str(path) for path in paths],
                    sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files),
                    {e for e in self.expected if e[1] in real},
                )
            )
        self.specs = specs
        self.files = len(sources)
        self.lines = sum(request[2] for request in self.requests)

    def header(self) -> "List[str]":
        return [
            f"corpus: {self.files} Python files, {self.lines} lines "
            f"(src/repro as of 8f1bceb) + {len(self.specs)} example specs",
            f"planted: {'; '.join(sorted(self.plants))}",
            f"requests: one lint_targets call per package group, {len(self.requests)} "
            f"groups of {min(r[2] for r in self.requests)}-"
            f"{max(r[2] for r in self.requests)} lines, cycled (specs with the "
            "top-level modules)",
        ]

    def request(self, index: int) -> "Tuple[int, Any]":
        specs, paths, lines, _ = self.requests[index % len(self.requests)]
        return lines, allcheck.lint_targets(specs, paths)

    def check(self, index: int, result: Any) -> bool:
        """Every planted bug in the group is reported, and nothing else."""
        expected = self.requests[index % len(self.requests)][3]
        found = [
            (d.code, os.path.realpath(d.file) if d.file else "", d.line) for d in result
        ]
        return len(found) == len(expected) and set(found) == expected

    def final_checks(self) -> "List[Tuple[str, bool]]":
        covered = set().union(*(request[3] for request in self.requests))
        return [("every planted bug falls in a linted group", covered == self.expected)]

    def cycle_length(self) -> int:
        return len(self.requests)


WORKLOADS = {cls.name: cls for cls in (Sweep, RiskWarm, Session, Lint)}
