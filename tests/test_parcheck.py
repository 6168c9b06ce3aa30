"""The parallel-safety analyzer: seeded bug corpus, rules, CLI.

The corpus below plants known parallel-safety and determinism bugs —
nondeterminism inside worker tasks, global mutation and I/O in
worker-reachable code, set-order leaking into outputs, lock-discipline
violations, pickle-hostile pool payloads — and asserts every one is
detected: the acceptance bar is zero false negatives over the corpus
and zero findings on the shipped tree.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.lint.allcheck import lint_targets
from repro.lint.callgraph import WORKER_BOUNDARY_MARKER
from repro.lint.diagnostics import Severity
from repro.lint.loader import load_paths, load_source
from repro.lint.output import diagnostics_from_sarif, render_sarif
from repro.lint.parcheck import (
    ALLOW_PAR_PRAGMA,
    PAR_RULES,
    lint_paths,
)
from repro.obs import MetricsRegistry, Telemetry, use

PREAMBLE = (
    "import json\n"
    "import os\n"
    "import random\n"
    "import threading\n"
    "import time\n"
    "import uuid\n"
    "from concurrent.futures import ProcessPoolExecutor\n"
    "\n"
    "_STATE = {}\n"
    "_TOTAL = 0\n"
    "\n"
)

#: The standard worker boundary every corpus entry hangs off.
SUBMIT = (
    "\n"
    "def sweep(pool, items):\n"
    "    return [pool.submit(task, i) for i in items]\n"
)


def codes(findings):
    return [f.code for f in findings]


def analyze_sources(pairs):
    return lint_paths([load_source(name, text) for name, text in pairs])


def lint_source(source, filename="<string>"):
    return analyze_sources([(filename, source)])


def lint_cli(argv):
    return cli_main(["lint", *argv])


def check(body, submit=True):
    source = PREAMBLE + body + (SUBMIT if submit else "")
    return lint_source(source, "corpus.py")


#: The seeded-bug corpus: every entry is a parallel-safety bug the
#: analyzer must report (zero false negatives), with the rule it must
#: fire.  ≥ 12 planted violations spanning every PAR rule.
CORPUS = [
    # nondeterminism reachable from a worker task (PAR001)
    (
        "wall_clock_in_task",
        "def task(x):\n    return time.time()\n",
        "PAR001",
    ),
    (
        "transitive_wall_clock",
        "def stamp():\n    return time.time()\n"
        "def task(x):\n    return stamp() + x\n",
        "PAR001",
    ),
    (
        "unseeded_global_random",
        "def task(x):\n    return random.random() * x\n",
        "PAR001",
    ),
    (
        "uuid_in_task",
        "def task(x):\n    return uuid.uuid4().hex\n",
        "PAR001",
    ),
    (
        "environ_read_in_task",
        "def task(x):\n    return os.environ['SEED']\n",
        "PAR001",
    ),
    (
        "urandom_in_task",
        "def task(x):\n    return os.urandom(8)\n",
        "PAR001",
    ),
    (
        "unseeded_default_rng",
        "from numpy.random import default_rng\n"
        "def task(x):\n    return default_rng().integers(0, x)\n",
        "PAR001",
    ),
    (
        "nondet_via_method_dispatch",
        "class Nonce:\n"
        "    def fresh_token(self):\n"
        "        return uuid.uuid4().hex\n"
        "def task(x):\n"
        "    helper = Nonce()\n"
        "    return helper.fresh_token()\n",
        "PAR001",
    ),
    (
        "nondet_via_cha_union",
        "class Rows:\n"
        "    def label_rows(self):\n"
        "        return time.time()\n"
        "def task(x):\n    return x.label_rows()\n",
        "PAR001",
    ),
    # global/module-state mutation or I/O in worker-reachable code (PAR002)
    (
        "global_rebind_in_task",
        "def task(x):\n    global _TOTAL\n    _TOTAL += x\n    return _TOTAL\n",
        "PAR002",
    ),
    (
        "module_dict_mutation_in_task",
        "def task(x):\n    _STATE[x] = 1\n    return x\n",
        "PAR002",
    ),
    (
        "print_in_task",
        "def task(x):\n    print(x)\n    return x\n",
        "PAR002",
    ),
    (
        "file_write_in_task",
        "def task(x):\n"
        "    with open('log.txt', 'a') as handle:\n"
        "        handle.write(str(x))\n"
        "    return x\n",
        "PAR002",
    ),
    # set-iteration order flowing into outputs (PAR003)
    (
        "set_comprehension_returned",
        "def task(x):\n    return [item for item in {1, 2, x}]\n",
        "PAR003",
    ),
    (
        "set_loop_into_serialization",
        "def task(x):\n"
        "    out = []\n"
        "    for item in set(x):\n"
        "        out.append(item)\n"
        "    return json.dumps(out)\n",
        "PAR003",
    ),
    (
        "list_of_set_returned",
        "def task(x):\n    return list({1, 2, x})\n",
        "PAR003",
    ),
    (
        # The second real defect parcheck caught in the shipped tree:
        # dimcheck._join_env built the joined environment by iterating
        # set(left) | set(right), so its dict order depended on
        # PYTHONHASHSEED (fixed with sorted()).
        "dict_built_from_set_union",
        "def task(left, right):\n"
        "    out = {}\n"
        "    for key in set(left) | set(right):\n"
        "        out[key] = 1\n"
        "    return out\n",
        "PAR003",
    ),
    # lock-discipline violations (PAR004)
    (
        "class_unlocked_read",
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.counts = {}\n"
        "    def bump(self, name):\n"
        "        with self._lock:\n"
        "            self.counts[name] = self.counts.get(name, 0) + 1\n"
        "    def peek(self):\n"
        "        return dict(self.counts)\n",
        "PAR004",
    ),
    (
        "class_unlocked_write",
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.counts = {}\n"
        "    def bump(self, name):\n"
        "        with self._lock:\n"
        "            self.counts[name] = 1\n"
        "    def wipe(self):\n"
        "        self.counts.clear()\n",
        "PAR004",
    ),
    (
        # The real defect parcheck caught in the shipped tree (in the
        # since-deleted /metrics server): active_server() read _ACTIVE
        # without _ACTIVE_LOCK while start()/stop() wrote it under it.
        "module_unlocked_read_active_server",
        "_ACTIVE = None\n"
        "_ACTIVE_LOCK = threading.Lock()\n"
        "def install(server):\n"
        "    global _ACTIVE\n"
        "    with _ACTIVE_LOCK:\n"
        "        _ACTIVE = server\n"
        "def active_server():\n"
        "    return _ACTIVE\n",
        "PAR004",
    ),
    # pickle-hostile pool payloads (PAR005)
    (
        "lambda_submitted",
        "def kick(pool):\n    return pool.submit(lambda: 1)\n",
        "PAR005",
    ),
    (
        "nested_function_submitted",
        "def kick(pool):\n"
        "    def local():\n        return 2\n"
        "    return pool.submit(local)\n",
        "PAR005",
    ),
    (
        "generator_submitted",
        "def task(x):\n    return x\n"
        "def kick(pool, items):\n"
        "    return pool.submit(task, (i for i in items))\n",
        "PAR005",
    ),
    (
        "open_handle_submitted",
        "def task(x):\n    return x\n"
        "def kick(pool):\n"
        "    handle = open('data.txt')\n"
        "    return pool.submit(task, handle)\n",
        "PAR005",
    ),
]


class TestCorpus:
    @pytest.mark.parametrize(
        "body,expected", [(b, c) for _, b, c in CORPUS],
        ids=[name for name, _, _ in CORPUS],
    )
    def test_every_planted_bug_is_detected(self, body, expected):
        findings = check(body)
        assert expected in codes(findings), codes(findings)

    def test_corpus_spans_every_content_rule(self):
        planted = {expected for _, _, expected in CORPUS}
        assert planted == {"PAR001", "PAR002", "PAR003", "PAR004", "PAR005"}
        assert len(CORPUS) >= 12

    def test_rule_table_is_complete(self):
        assert set(PAR_RULES) == {
            "PAR001",
            "PAR002",
            "PAR003",
            "PAR004",
            "PAR005",
            "PAR006",
            "PAR099",
        }
        assert PAR_RULES["PAR003"].severity is Severity.WARNING
        assert PAR_RULES["PAR004"].severity is Severity.ERROR


class TestCleanConstructs:
    @pytest.mark.parametrize(
        "body",
        [
            # A pure task: deterministic function of its arguments.
            "def task(x):\n    return x * 2\n",
            # Seeded RNG instances are reproducible.
            "def task(x):\n    return random.Random(x).random()\n",
            "from numpy.random import default_rng\n"
            "def task(x):\n    return default_rng(x).integers(0, 10)\n",
            # Monotonic timers are the sanctioned telemetry clock.
            "def task(x):\n    t0 = time.perf_counter()\n"
            "    return x, time.perf_counter() - t0\n",
            # Sorting launders set order before it becomes observable.
            "def task(x):\n    return sorted({1, 2, x})\n",
            # Membership/size checks never observe iteration order.
            "def task(x):\n"
            "    seen = set()\n"
            "    seen.add(x)\n"
            "    return len(seen), x in seen\n",
            # Local mutation is fine; only module state is shared.
            "def task(x):\n    acc = {}\n    acc[x] = 1\n    return acc\n",
            # A fully locked class obeys its own discipline.
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.counts = {}\n"
            "    def bump(self, name):\n"
            "        with self._lock:\n"
            "            self.counts[name] = 1\n"
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return dict(self.counts)\n",
            # Unlocked attributes with no locked writers are not shared
            # under the lock's contract (construction happens-before).
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.label = 'x'\n"
            "    def name(self):\n"
            "        return self.label\n",
        ],
    )
    def test_clean_constructs(self, body):
        assert check(body) == [], codes(check(body))

    def test_effects_outside_worker_reach_are_not_findings(self):
        # time.time / print in parent-side code is ordinary Python.
        body = (
            "def report():\n"
            "    print('started at', time.time())\n"
            "def task(x):\n    return x\n"
        )
        assert check(body) == []

    def test_submitting_module_function_is_clean(self):
        assert check("def task(x):\n    return x\n") == []


class TestWorkerBoundaries:
    def test_marker_creates_a_root_without_a_submit_site(self):
        body = (
            f"def task(x):  # {WORKER_BOUNDARY_MARKER}\n"
            "    return time.time()\n"
        )
        assert "PAR001" in codes(check(body, submit=False))

    def test_no_boundary_no_reachability_findings(self):
        body = "def task(x):\n    return time.time()\n"
        assert check(body, submit=False) == []

    def test_cross_module_reachability(self):
        # The call graph spans files: a.sweep submits b.task, whose
        # helper in b is nondeterministic.
        lib = (
            "import time\n"
            "def stamp():\n    return time.time()\n"
            "def task(x):\n    return stamp()\n"
        )
        app = (
            "from b import task\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        findings = analyze_sources([("proj/b.py", lib), ("proj/a.py", app)])
        assert codes(findings) == ["PAR001"]
        assert findings[0].file == "proj/b.py"

    def test_finding_message_names_the_chain(self):
        findings = check(
            "def stamp():\n    return time.time()\n"
            "def task(x):\n    return stamp()\n"
        )
        assert any(
            "task" in f.message and "stamp" in f.message for f in findings
        )


class TestPragmas:
    def test_pragma_suppresses_the_line(self):
        body = (
            "def task(x):\n"
            f"    return time.time()  # {ALLOW_PAR_PRAGMA}\n"
        )
        assert check(body) == []

    def test_stale_pragma_is_flagged_par099(self):
        body = f"def task(x):\n    return x  # {ALLOW_PAR_PRAGMA}\n"
        findings = check(body)
        assert codes(findings) == ["PAR099"]
        assert findings[0].severity is Severity.WARNING
        assert "stale" in findings[0].message

    def test_pragma_budget_par006(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "import time\n"
            "def task(x):\n"
            f"    return time.time()  # {ALLOW_PAR_PRAGMA}\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        assert lint_targets([], [str(path)], max_pragmas=1) == []
        over = lint_targets([], [str(path)], max_pragmas=0)
        assert codes(over) == ["PAR006"]
        assert "budget" in over[0].message


class TestTreeAndCli:
    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: src/repro passes strict with zero
        # findings (and, today, zero pragmas in use).
        assert lint_paths(load_paths(["src/repro"])) == []

    def test_examples_and_benchmarks_are_clean(self):
        assert lint_paths(load_paths(["examples", "benchmarks"])) == []

    def test_analyzer_is_allowlisted(self):
        assert lint_source("x = 4\n", "src/repro/lint/parcheck.py") == []

    def test_obs_is_sanctioned_but_lock_checked(self):
        # Telemetry-fabric effects are not findings...
        sanctioned = (
            "import time\n"
            "def now():\n    return time.time()\n"
        )
        assert lint_source(sanctioned, "src/repro/obs/fake.py") == []
        # ...but lock discipline still applies inside repro.obs.
        undisciplined = (
            "import threading\n"
            "_ACTIVE = None\n"
            "_LOCK = threading.Lock()\n"
            "def install(x):\n"
            "    global _ACTIVE\n"
            "    with _LOCK:\n"
            "        _ACTIVE = x\n"
            "def peek():\n    return _ACTIVE\n"
        )
        findings = lint_source(undisciplined, "src/repro/obs/fake.py")
        assert codes(findings) == ["PAR004"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def task(x):\n    return x\n")
        assert lint_cli([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n"
            "def task(x):\n    return time.time()\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        assert lint_cli([str(dirty)]) == 1
        assert "PAR001" in capsys.readouterr().out

    def test_cli_strict_promotes_warnings(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(f"x = 1  # {ALLOW_PAR_PRAGMA}\n")
        assert lint_cli([str(stale)]) == 0
        capsys.readouterr()
        assert lint_cli([str(stale), "--strict"]) == 1
        capsys.readouterr()

    def test_module_and_cli_subcommand_agree(self, tmp_path, capsys):
        # The pass over loaded sources and `repro lint` report the same
        # PAR findings.
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n"
            "def task(x):\n    return time.time()\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        module_findings = lint_paths(load_paths([str(dirty)]))
        assert lint_cli([str(dirty), "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)["diagnostics"]
        assert "PAR001" in codes(module_findings)
        assert [f.to_dict() for f in module_findings] == [
            r for r in records if r["code"].startswith("PAR")
        ]

    def test_sarif_round_trip(self):
        findings = check("def task(x):\n    return time.time()\n")
        assert findings
        restored = diagnostics_from_sarif(render_sarif(findings))
        assert codes(restored) == codes(findings)
        assert {f.code for f in findings} <= {
            rule["id"]
            for run in json.loads(render_sarif(findings))["runs"]
            for rule in run["tool"]["driver"]["rules"]
        }

    def test_metrics_counters(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n"
            "def task(x):\n    return time.time()\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        registry = MetricsRegistry()
        with use(Telemetry(metrics=registry)):
            findings = lint_paths(load_paths([str(dirty)]))
        assert findings
        counters = registry.snapshot()["counters"]
        assert counters["lint.parcheck.files"] == 1
        assert counters["lint.diagnostics.error"] >= 1


class TestUmbrella:
    def test_lint_all_merges_every_analyzer(self, tmp_path, capsys):
        path = tmp_path / "messy.py"
        path.write_text(
            "import time\n"
            "from repro.units import GB, HOUR\n"
            "retention = 4 * 3600\n"
            "mixed = 4 * GB + 2 * HOUR\n"
            "def task(x):\n    return time.time()\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        assert lint_cli(["all", str(path)]) == 1
        out = capsys.readouterr().out
        for expected in ("UNI001", "DIM001", "PAR001"):
            assert expected in out

    def test_lint_all_clean_tree_exits_zero(self, capsys):
        assert lint_cli(["all", "src/repro/engine", "--strict"]) == 0
        capsys.readouterr()

    def test_missing_spec_is_dep000_not_a_traceback(self, tmp_path, capsys):
        assert lint_cli(["all", str(tmp_path / "missing.json")]) == 1
        out = capsys.readouterr().out
        assert "DEP000" in out and "unreadable" in out

    def test_cli_all_subcommand_matches_module(self, tmp_path, capsys):
        # `repro lint all X` and `repro lint X` are one entry point, and
        # both report what `lint_targets` returns.
        path = tmp_path / "messy.py"
        path.write_text("retention = 86400\n")
        expected = [f.to_dict() for f in lint_targets([], [str(path)])]
        assert codes(lint_targets([], [str(path)])) == ["UNI001"]
        for argv in (["all", str(path)], [str(path)]):
            assert lint_cli([*argv, "--format", "json"]) == 1
            out = capsys.readouterr().out
            assert json.loads(out)["diagnostics"] == expected
