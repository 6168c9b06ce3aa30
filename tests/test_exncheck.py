"""The exception-flow analyzer: seeded bug corpus, rules, CLI, pickling.

The corpus below plants known error-contract violations — unpicklable
exceptions raised in worker-reachable code, broad handlers that absorb
a ReproError, public-API functions leaking non-ReproError framework
exceptions, provably dead handlers, chain-destroying re-raises — and
asserts every one is detected: the acceptance bar is zero false
negatives over the corpus and zero findings on the shipped tree.

The pickle round-trip suite at the bottom is the runtime counterpart
of EXN001: every concrete :class:`~repro.exceptions.ReproError`
subclass must survive ``pickle.dumps``/``loads`` with its attributes
intact, because engine workers ship these across process boundaries.
"""

import json
import pickle

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ReproError
from repro.lint.allcheck import lint_targets
from repro.lint.diagnostics import Severity
from repro.lint.loader import load_paths, load_source
from repro.lint.output import diagnostics_from_sarif, render_sarif
from repro.lint.exncheck import ALLOW_EXN_PRAGMA, EXN_RULES, lint_paths
from repro.obs import MetricsRegistry, use_metrics

#: Every corpus file opens with the framework's error-contract shape:
#: a ReproError root and a small hierarchy beneath it, mirroring
#: ``repro.exceptions`` (the analyzer resolves the hierarchy from the
#: class definitions it sees, so ``except DeviceError`` absorbs
#: ``CapacityExceededError`` exactly as it does in the shipped tree).
PREAMBLE = (
    "import json\n"
    "from concurrent.futures import ProcessPoolExecutor\n"
    "\n"
    "class ReproError(Exception):\n    pass\n"
    "class DeviceError(ReproError):\n    pass\n"
    "class CapacityExceededError(DeviceError):\n    pass\n"
    "\n"
)

#: The standard worker boundary the EXN001 entries hang off.
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


#: The seeded-bug corpus: every entry is an error-contract bug the
#: analyzer must report (zero false negatives), with the rule it must
#: fire.  ≥ 12 planted violations spanning every EXN content rule.
CORPUS = [
    # unpicklable exceptions in worker-reachable code (EXN001)
    (
        "two_arg_exception_raised_in_task",
        "class QuotaError(ReproError):\n"
        "    def __init__(self, need, have):\n"
        "        super().__init__(f'{need} > {have}')\n"
        "        self.need = need\n"
        "        self.have = have\n"
        "def task(x):\n"
        "    raise QuotaError(x, 0)\n",
        "EXN001",
    ),
    (
        "unpicklable_via_transitive_callee",
        "class PairError(ReproError):\n"
        "    def __init__(self, left, right):\n"
        "        super().__init__(left)\n"
        "        self.left = left\n"
        "        self.right = right\n"
        "def guard(x):\n"
        "    raise PairError(x, x)\n"
        "def task(x):\n"
        "    return guard(x)\n",
        "EXN001",
    ),
    (
        "required_kwonly_breaks_reduce",
        "class KwError(ReproError):\n"
        "    def __init__(self, code, *, detail):\n"
        "        super().__init__(code)\n"
        "        self.detail = detail\n"
        "def task(x):\n"
        "    raise KwError(x, detail='bad')\n",
        "EXN001",
    ),
    # broad handlers absorbing a model outcome (EXN002)
    (
        "broad_except_absorbs_repro_error",
        "def parse(raw):\n"
        "    raise DeviceError('bad spec')\n"
        "def load(raw):\n"
        "    try:\n"
        "        return parse(raw)\n"
        "    except Exception:\n"
        "        return None\n",
        "EXN002",
    ),
    (
        "bare_except_absorbs_subclass",
        "def audit(device):\n"
        "    raise CapacityExceededError('over')\n"
        "def run(device):\n"
        "    try:\n"
        "        audit(device)\n"
        "    except:\n"
        "        pass\n",
        "EXN002",
    ),
    (
        "base_exception_absorbs_root",
        "def step(item):\n"
        "    if item:\n"
        "        raise ReproError('model outcome')\n"
        "def sweep_all(items):\n"
        "    try:\n"
        "        for item in items:\n"
        "            step(item)\n"
        "    except BaseException:\n"
        "        return []\n",
        "EXN002",
    ),
    (
        "broad_handler_logs_message_not_object",
        # The validate.py shape this rule caught in the shipped tree:
        # the handler renders the message into an f-string but drops
        # the exception object, so the outcome cannot be re-examined.
        "def probe(level):\n"
        "    raise DeviceError('no device')\n"
        "def collect(levels):\n"
        "    errors = []\n"
        "    for level in levels:\n"
        "        try:\n"
        "            probe(level)\n"
        "        except Exception as exc:\n"
        "            errors.append(f'level {level}: {exc}')\n"
        "    return errors\n",
        "EXN002",
    ),
    # public API leaking non-ReproError framework exceptions (EXN003)
    (
        "cli_entry_point_leaks_framework_error",
        "class EngineFault(Exception):\n"
        "    pass\n"
        "def fail():\n"
        "    raise EngineFault('broken')\n"
        "def cmd_run(args):\n"
        "    return fail()\n"
        "def wire(sub):\n"
        "    sub.set_defaults(func=cmd_run)\n",
        "EXN003",
    ),
    (
        "cli_entry_point_leaks_transitively",
        "class StateFault(Exception):\n"
        "    pass\n"
        "def deep():\n"
        "    raise StateFault('inconsistent')\n"
        "def shallow():\n"
        "    return deep()\n"
        "def cmd_audit(args):\n"
        "    return shallow()\n"
        "def wire(sub):\n"
        "    sub.set_defaults(func=cmd_audit)\n",
        "EXN003",
    ),
    # provably dead handlers (EXN004)
    (
        "handler_for_subclass_body_raises_parent",
        # except CapacityExceededError cannot catch its own *parent*
        # DeviceError, and nothing else escapes: the handler is dead.
        "def compute():\n"
        "    raise DeviceError('wrong layer')\n"
        "def fetch():\n"
        "    try:\n"
        "        return compute()\n"
        "    except CapacityExceededError:\n"
        "        return None\n",
        "EXN004",
    ),
    (
        "handler_over_body_that_cannot_raise",
        "def read(payload):\n"
        "    try:\n"
        "        value = payload\n"
        "        return value\n"
        "    except DeviceError:\n"
        "        return None\n",
        "EXN004",
    ),
    # chain-destroying re-raises (EXN005)
    (
        "reraise_without_from_drops_cause",
        "def decode(raw):\n"
        "    try:\n"
        "        return json.loads(raw)\n"
        "    except ValueError:\n"
        "        raise DeviceError('bad payload')\n",
        "EXN005",
    ),
    (
        "translate_builtin_without_from",
        "def parse_level(text):\n"
        "    try:\n"
        "        return int(text)\n"
        "    except ValueError:\n"
        "        raise RuntimeError('bad level')\n",
        "EXN005",
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
        assert planted == {"EXN001", "EXN002", "EXN003", "EXN004", "EXN005"}
        assert len(CORPUS) >= 12

    def test_rule_table_is_complete(self):
        assert set(EXN_RULES) == {
            "EXN001",
            "EXN002",
            "EXN003",
            "EXN004",
            "EXN005",
            "EXN006",
            "EXN099",
        }
        assert EXN_RULES["EXN002"].severity is Severity.ERROR
        assert EXN_RULES["EXN004"].severity is Severity.WARNING
        assert EXN_RULES["EXN005"].severity is Severity.WARNING


class TestCleanConstructs:
    @pytest.mark.parametrize(
        "body",
        [
            # Catching the hierarchy's parent absorbs the subclass:
            # a narrow, contract-honouring handler is not a finding.
            "def audit(device):\n"
            "    raise CapacityExceededError('over')\n"
            "def run(device):\n"
            "    try:\n"
            "        return audit(device)\n"
            "    except DeviceError:\n"
            "        return None\n",
            # A broad handler that re-raises preserves the outcome.
            "def parse(raw):\n"
            "    raise DeviceError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        raise\n",
            # A broad handler that transports the exception object
            # (not just its message) records the outcome.
            "def parse(raw):\n"
            "    raise DeviceError('bad')\n"
            "def load(raw, sink):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception as exc:\n"
            "        sink(exc)\n"
            "        return None\n",
            # Translation that chains the cause is the sanctioned shape.
            "def decode(raw):\n"
            "    try:\n"
            "        return json.loads(raw)\n"
            "    except ValueError as exc:\n"
            "        raise DeviceError('bad payload') from exc\n",
            # ... and `from None` is an explicit, deliberate break.
            "def decode(raw):\n"
            "    try:\n"
            "        return json.loads(raw)\n"
            "    except ValueError:\n"
            "        raise DeviceError('bad payload') from None\n",
            # The handler's type genuinely escapes the body: live.
            "def decode(raw):\n"
            "    try:\n"
            "        return json.loads(raw)\n"
            "    except ValueError as exc:\n"
            "        return repr(exc)\n",
            # An unresolvable call keeps the body open, so no handler
            # over it is *provably* dead.
            "def fetch(helper):\n"
            "    try:\n"
            "        return helper.mystery()\n"
            "    except DeviceError:\n"
            "        return None\n",
            # A single-message exception round-trips via self.args.
            "class FineError(ReproError):\n"
            "    def __init__(self, message):\n"
            "        super().__init__(message)\n"
            "def task(x):\n"
            "    raise FineError(x)\n",
            # Multi-arg constructors are fine once __reduce__ replays
            # the real constructor arguments (the shipped
            # CapacityExceededError pattern).
            "class WideError(ReproError):\n"
            "    def __init__(self, name, value):\n"
            "        super().__init__(f'{name}={value}')\n"
            "        self.name = name\n"
            "        self.value = value\n"
            "    def __reduce__(self):\n"
            "        return (type(self), (self.name, self.value))\n"
            "def task(x):\n"
            "    raise WideError('cap', x)\n",
            # Public surface leaking a ReproError subclass is the
            # documented contract, not a leak.
            "def cmd_run(args):\n"
            "    raise DeviceError('bad spec')\n"
            "def wire(sub):\n"
            "    sub.set_defaults(func=cmd_run)\n",
            # Builtin escapes are outside EXN003's remit (codelint and
            # the stub tables police those); only project-defined
            # non-ReproError classes are contract leaks.
            "def cmd_run(args):\n"
            "    raise ValueError('bad flag')\n"
            "def wire(sub):\n"
            "    sub.set_defaults(func=cmd_run)\n",
        ],
    )
    def test_clean_constructs(self, body):
        assert check(body) == [], codes(check(body))

    def test_unpicklable_exception_outside_worker_reach_is_clean(self):
        # EXN001 is about the process boundary: a two-arg exception
        # raised only in parent-side code never needs to pickle.
        body = (
            "class LocalError(ReproError):\n"
            "    def __init__(self, a, b):\n"
            "        super().__init__(a)\n"
            "        self.b = b\n"
            "def parent_only(x):\n"
            "    raise LocalError(x, x)\n"
            "def task(x):\n"
            "    return x\n"
        )
        assert check(body) == [], codes(check(body))


class TestInterprocedural:
    def test_cross_module_escape_sets(self):
        # The fixpoint spans files: b.parse raises, a.load absorbs.
        lib = (
            "class ReproError(Exception):\n    pass\n"
            "class DeviceError(ReproError):\n    pass\n"
            "def parse(raw):\n"
            "    raise DeviceError('bad')\n"
        )
        app = (
            "from b import parse\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        findings = analyze_sources([("proj/b.py", lib), ("proj/a.py", app)])
        assert codes(findings) == ["EXN002"]
        assert findings[0].file == "proj/a.py"

    def test_package_reexport_is_a_public_root(self):
        pkg = "from .engine import run_sweep\n"
        engine = (
            "class EngineFault(Exception):\n    pass\n"
            "def run_sweep(spec):\n"
            "    raise EngineFault('broken')\n"
        )
        findings = analyze_sources(
            [("proj/__init__.py", pkg), ("proj/engine.py", engine)]
        )
        assert "EXN003" in codes(findings)
        leak = next(f for f in findings if f.code == "EXN003")
        assert "re-exported" in leak.message
        assert "EngineFault" in leak.message

    def test_finding_names_the_absorbed_types(self):
        findings = check(
            "def parse(raw):\n"
            "    raise CapacityExceededError('over')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert any(
            f.code == "EXN002" and "CapacityExceededError" in f.message
            for f in findings
        )


class TestPragmas:
    def test_pragma_suppresses_the_handler(self):
        body = (
            "def parse(raw):\n"
            "    raise DeviceError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            f"    except Exception:  # {ALLOW_EXN_PRAGMA}\n"
            "        return None\n"
        )
        assert check(body) == [], codes(check(body))

    def test_stale_pragma_is_flagged_exn099(self):
        body = f"def load(raw):\n    return raw  # {ALLOW_EXN_PRAGMA}\n"
        findings = check(body)
        assert codes(findings) == ["EXN099"]
        assert findings[0].severity is Severity.WARNING
        assert "stale" in findings[0].message

    def test_pragma_budget_exn006(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "class ReproError(Exception):\n    pass\n"
            "def parse(raw):\n"
            "    raise ReproError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            f"    except Exception:  # {ALLOW_EXN_PRAGMA}\n"
            "        return None\n"
        )
        assert lint_targets([], [str(path)], max_pragmas=1) == []
        over = lint_targets([], [str(path)], max_pragmas=0)
        assert codes(over) == ["EXN006"]
        assert "budget" in over[0].message


class TestTreeAndCli:
    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: src/repro passes strict with zero
        # findings (and, today, zero pragmas in use).
        assert lint_paths(load_paths(["src/repro"])) == []

    def test_examples_and_benchmarks_are_clean(self):
        assert lint_paths(load_paths(["examples", "benchmarks"])) == []

    def test_analyzer_is_allowlisted(self):
        assert lint_source("x = 4\n", "src/repro/lint/exncheck.py") == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def load(raw):\n    return raw\n")
        assert lint_cli([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "class ReproError(Exception):\n    pass\n"
            "def parse(raw):\n"
            "    raise ReproError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert lint_cli([str(dirty)]) == 1
        assert "EXN002" in capsys.readouterr().out

    def test_cli_strict_promotes_warnings(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(f"x = 1  # {ALLOW_EXN_PRAGMA}\n")
        assert lint_cli([str(stale)]) == 0
        capsys.readouterr()
        assert lint_cli([str(stale), "--strict"]) == 1
        capsys.readouterr()

    def test_module_and_cli_subcommand_agree(self, tmp_path, capsys):
        # The pass over loaded sources and `repro lint` report the same
        # EXN findings.
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "class ReproError(Exception):\n    pass\n"
            "def parse(raw):\n"
            "    raise ReproError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        module_findings = lint_paths(load_paths([str(dirty)]))
        assert lint_cli([str(dirty), "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)["diagnostics"]
        assert "EXN002" in codes(module_findings)
        assert [f.to_dict() for f in module_findings] == [
            r for r in records if r["code"].startswith("EXN")
        ]

    def test_sarif_round_trip(self):
        findings = check(
            "def parse(raw):\n"
            "    raise DeviceError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
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
            "class ReproError(Exception):\n    pass\n"
            "def parse(raw):\n"
            "    raise ReproError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            findings = lint_paths(load_paths([str(dirty)]))
        assert findings
        counters = registry.snapshot()["counters"]
        assert counters["lint.exncheck.files"] == 1
        assert counters["lint.diagnostics.error"] >= 1

    def test_lint_all_includes_exn_findings(self, tmp_path, capsys):
        path = tmp_path / "messy.py"
        path.write_text(
            "class ReproError(Exception):\n    pass\n"
            "def parse(raw):\n"
            "    raise ReproError('bad')\n"
            "def load(raw):\n"
            "    try:\n"
            "        return parse(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert lint_cli(["all", str(path)]) == 1
        out = capsys.readouterr().out
        assert "EXN002" in out


def _concrete_repro_errors():
    """Every concrete ReproError subclass the framework ships."""
    # Import the modules that define subclasses outside repro.exceptions
    # so __subclasses__ sees them.
    import repro.lint.diagnostics  # noqa: F401
    import repro.obs.ledger  # noqa: F401
    import repro.obs.runs  # noqa: F401

    found = []
    queue = [ReproError]
    while queue:
        cls = queue.pop()
        found.append(cls)
        queue.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__name__)


#: Constructor arguments for the classes whose __init__ is not the
#: plain single-message shape.
SAMPLE_ARGS = {
    "CapacityExceededError": ("wide-array", 1.5),
    "BandwidthExceededError": ("tape-drive", 2.25),
}


class TestPickleRoundTrip:
    """EXN001's runtime contract, checked exhaustively.

    Engine workers raise these across process boundaries; each class
    must come back from pickle with the same type, message and
    attributes (``BaseException.__reduce__`` replays ``self.args``,
    so any richer constructor needs its own ``__reduce__``).
    """

    @pytest.mark.parametrize(
        "cls", _concrete_repro_errors(),
        ids=lambda cls: cls.__name__,
    )
    def test_every_repro_error_survives_pickle(self, cls):
        args = SAMPLE_ARGS.get(cls.__name__, ("synthetic failure",))
        original = cls(*args)
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is cls
        assert str(restored) == str(original)
        assert restored.args == original.args
        assert vars(restored) == vars(original)

    def test_sample_args_cover_all_custom_constructors(self):
        # Every class with extra instance state must appear in
        # SAMPLE_ARGS, or the parametrized test above would silently
        # construct it with the generic one-message shape.
        custom = {
            cls.__name__
            for cls in _concrete_repro_errors()
            if "__init__" in vars(cls)
        }
        assert custom == set(SAMPLE_ARGS)
