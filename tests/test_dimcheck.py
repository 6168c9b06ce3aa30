"""The dimensional dataflow checker: seeded bug corpus, rules, CLI.

The corpus below plants known dimension bugs (size+time arithmetic,
durations passed as rates, $/hr-vs-$/s confusion, binary/decimal prefix
mixing) and asserts every one is detected — the acceptance bar is zero
false negatives over the corpus and zero findings on the shipped tree.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.lint.allcheck import lint_targets
from repro.lint.dimcheck import (
    ALLOW_DIM_PRAGMA,
    DIM_RULES,
    DimValue,
    lint_paths,
    unit_value,
)
from repro.lint.diagnostics import Severity
from repro.lint.loader import load_paths, load_source
from repro.lint.output import diagnostics_from_sarif, render_sarif
from repro.units import MONEY, MONEY_RATE, RATE, SIZE, TIME

IMPORTS = (
    "from repro.units import (\n"
    "    GB, GB_DEC, HOUR, KB, MB, MINUTE, SECOND, Seconds,\n"
    "    format_duration, parse_duration,\n"
    ")\n"
)


def codes(findings):
    return [f.code for f in findings]


def lint_source(source, filename="<string>"):
    return lint_paths([load_source(filename, source)])


def lint_cli(argv):
    return cli_main(["lint", *argv])


def check(body):
    return lint_source(IMPORTS + body, "corpus.py")


#: The seeded-bug corpus: every entry is a dimensional error the checker
#: must report (zero false negatives), with the rule it must fire.
CORPUS = [
    # additive mismatches (DIM001)
    ("add_size_to_time", "x = 4 * GB + 2 * HOUR\n", "DIM001"),
    ("subtract_size_from_time", "lag = 5 * MINUTE - 3 * MB\n", "DIM001"),
    ("augmented_add_mismatch", "t = 2 * HOUR\nt += 3 * GB\n", "DIM001"),
    ("binary_decimal_mixing", "total = 1 * GB + 1 * GB_DEC\n", "DIM001"),
    (
        "attribute_rate_plus_duration",
        "x = device.max_bandwidth + 3 * SECOND\n",
        "DIM001",
    ),
    (
        "ledger_bandwidth_plus_duration",
        "x = device.available_bandwidth(demands[device]) + 3 * SECOND\n",
        "DIM001",
    ),
    (
        "ledger_capacity_plus_duration",
        "x = device.capacity_demand_raw(demands[device]) + 2 * HOUR\n",
        "DIM001",
    ),
    (
        "parsed_duration_plus_size",
        "t = parse_duration('48 h')\nx = t + 4 * GB\n",
        "DIM001",
    ),
    # arguments of the wrong dimension (DIM002)
    (
        "size_passed_as_batch_window",
        "r = w.batch_update_rate(4 * MB)\n",
        "DIM002",
    ),
    (
        "size_passed_as_outage_duration",
        "p = req.outage_penalty(2 * GB)\n",
        "DIM002",
    ),
    (
        "size_passed_to_format_duration",
        "s = format_duration(10 * KB)\n",
        "DIM002",
    ),
    ("size_passed_to_parse_duration", "t = parse_duration(5 * KB)\n", "DIM002"),
    (
        "size_keyword_for_rate_field",
        "wl = Workload(avg_update_rate=3 * MB)\n",
        "DIM002",
    ),
    (
        "size_stored_in_duration_attribute",
        "class Plan:\n"
        "    def arm(self):\n"
        "        self.recovery_time = 4 * GB\n",
        "DIM002",
    ),
    # returns disagreeing with the declaration (DIM003)
    (
        "size_returned_as_seconds",
        "def recovery_window() -> Seconds:\n    return 2 * GB\n",
        "DIM003",
    ),
    (
        "size_returned_from_duration_property",
        "class Plan:\n"
        "    @property\n"
        "    def duration(self):\n"
        "        return 3 * MB\n",
        "DIM003",
    ),
]


class TestSeededBugCorpus:
    def test_corpus_is_big_enough(self):
        # The acceptance criterion: at least 10 planted dimension bugs.
        assert len(CORPUS) >= 10

    @pytest.mark.parametrize(
        "body,expected",
        [(body, expected) for _, body, expected in CORPUS],
        ids=[name for name, _, _ in CORPUS],
    )
    def test_every_planted_bug_is_detected(self, body, expected):
        findings = check(body)
        assert codes(findings) == [expected]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].category == "dimensions"

    def test_messages_name_both_dimensions(self):
        (finding,) = check("x = 4 * GB + 2 * HOUR\n")
        assert "bytes" in finding.message
        assert "s" in finding.message

    def test_convention_mixing_message(self):
        (finding,) = check("total = 1 * GB + 1 * GB_DEC\n")
        assert "binary" in finding.message
        assert "decimal" in finding.message


class TestNoFalsePositives:
    """Constructs the checker must accept without complaint."""

    @pytest.mark.parametrize(
        "body",
        [
            # scalars combine freely with dimensioned quantities
            "x = 4 * HOUR + 5\n",
            "x = 2 * (3 * GB)\n",
            # dimension algebra: SIZE/TIME is RATE, RATE*TIME is SIZE
            "size = w.avg_update_rate * (24 * HOUR)\ntotal = size + 4 * GB\n",
            "rate = (4 * GB) / (2 * HOUR)\nr2 = rate + w.avg_update_rate\n",
            "ratio = (4 * HOUR) / (1 * MINUTE)\nx = ratio + 7\n",
            # $/s * s is $
            "p = req.unavailability_penalty_rate * (2 * HOUR)\n"
            "q = p + req.outage_penalty(3 * MINUTE)\n",
            # unknown values propagate silently
            "a = mystery()\nb = a + 3 * GB\n",
            # strings to the parse helpers are unchecked
            "t = parse_duration('48 h')\ns = t + 2 * HOUR\n",
            # min/max preserve the common dimension
            "t = min(2 * HOUR, 30 * MINUTE) + 1 * SECOND\n",
            # float()/abs() pass the dimension through
            "t = float(4 * HOUR) + abs(-2 * MINUTE)\n",
            # decimal constants agree with each other
            "link = 100 * GB_DEC + 55 * GB_DEC\n",
        ],
    )
    def test_clean_constructs(self, body):
        assert check(body) == []

    def test_branch_join_conflicting_dims_goes_unknown(self):
        body = (
            "if flag:\n    x = 4 * GB\nelse:\n    x = 2 * HOUR\n"
            "y = x + 1 * MINUTE\n"
        )
        assert check(body) == []

    def test_branch_join_agreeing_dims_stays_strong(self):
        body = (
            "if flag:\n    x = 4 * GB\nelse:\n    x = 2 * MB\n"
            "y = x + 1 * MINUTE\n"
        )
        assert codes(check(body)) == ["DIM001"]

    def test_loop_reassignment_joins_with_entry(self):
        body = (
            "x = 4 * GB\n"
            "for item in items:\n    x = item.duration\n"
            "y = x + 2 * HOUR\n"
        )
        # After the loop x is bytes-or-seconds: unknown, so no finding.
        assert check(body) == []


class TestSeeding:
    def test_units_module_alias(self):
        source = (
            "from repro import units\n"
            "x = 4 * units.GB + 2 * units.HOUR\n"
        )
        assert codes(lint_source(source, "m.py")) == ["DIM001"]

    def test_import_as_alias(self):
        source = "import repro.units as u\nx = 1 * u.MB + 1 * u.SECOND\n"
        assert codes(lint_source(source, "m.py")) == ["DIM001"]

    def test_parameter_annotations_seed_the_env(self):
        body = (
            "def f(delay: Seconds, size):\n"
            "    return delay + 3 * GB\n"
        )
        assert codes(check(body)) == ["DIM001"]

    def test_well_known_parameter_names_seed_the_env(self):
        body = "def f(window):\n    return window + 3 * GB\n"
        assert codes(check(body)) == ["DIM001"]

    def test_local_function_signatures_checked(self):
        body = (
            "def f(delay: Seconds):\n    return delay\n"
            "x = f(3 * GB)\n"
        )
        assert codes(check(body)) == ["DIM002"]

    def test_unit_value_marks_convention(self):
        assert unit_value("GB").convention == "binary"
        assert unit_value("GB_DEC").convention == "decimal"
        assert unit_value("HOUR").convention is None
        assert unit_value("HOUR").dim == TIME

    def test_stub_dimensions_are_consistent(self):
        assert unit_value("GB").dim == SIZE
        assert (SIZE / TIME) == RATE
        assert (MONEY / TIME) == MONEY_RATE
        assert DimValue(RATE, strong=True).known


class TestPragmas:
    def test_pragma_suppresses_the_line(self):
        body = f"x = 4 * GB + 2 * HOUR  # {ALLOW_DIM_PRAGMA}\n"
        assert check(body) == []

    def test_stale_pragma_is_flagged_dim099(self):
        body = f"x = 4 * GB  # {ALLOW_DIM_PRAGMA}\n"
        findings = check(body)
        assert codes(findings) == ["DIM099"]
        assert findings[0].severity is Severity.WARNING
        assert "stale" in findings[0].message

    def test_used_pragma_is_not_stale(self):
        body = (
            f"x = 4 * GB + 2 * HOUR  # {ALLOW_DIM_PRAGMA}\n"
            "y = 1 * MINUTE + 1 * SECOND\n"
        )
        assert check(body) == []

    def test_pragma_budget_dim004(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "from repro.units import GB, HOUR\n"
            f"x = 4 * GB + 2 * HOUR  # {ALLOW_DIM_PRAGMA}\n"
        )
        assert lint_targets([], [str(path)], max_pragmas=1) == []
        over = lint_targets([], [str(path)], max_pragmas=0)
        assert codes(over) == ["DIM004"]
        assert "budget" in over[0].message


class TestTreeAndCli:
    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: src/repro passes strict with zero
        # findings (and therefore zero pragmas in use).
        assert lint_paths(load_paths(["src/repro"])) == []

    def test_examples_and_benchmarks_are_clean(self):
        assert lint_paths(load_paths(["examples", "benchmarks"])) == []

    def test_units_and_checker_are_allowlisted(self):
        source = "x = 4\n"
        assert lint_source(source, "src/repro/units.py") == []
        assert lint_source(source, "src/repro/lint/dimcheck.py") == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("from repro.units import HOUR\nx = 4 * HOUR\n")
        assert lint_cli([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.units import GB, HOUR\nx = 4 * GB + 2 * HOUR\n"
        )
        assert lint_cli([str(dirty)]) == 1
        assert "DIM001" in capsys.readouterr().out

    def test_cli_strict_promotes_warnings(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(f"x = 4  # {ALLOW_DIM_PRAGMA}\n")
        assert lint_cli([str(stale)]) == 0
        capsys.readouterr()
        assert lint_cli([str(stale), "--strict"]) == 1
        assert "DIM099" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.units import GB, HOUR\nx = 4 * GB + 2 * HOUR\n"
        )
        assert lint_cli([str(dirty), "--format", "json"]) == 1
        record = json.loads(capsys.readouterr().out)["diagnostics"][0]
        assert record["code"] == "DIM001"
        assert record["file"] == str(dirty)
        assert record["line"] == 2


class TestSarif:
    def sample(self):
        return check("x = 4 * GB + 2 * HOUR\np = req.outage_penalty(2 * GB)\n")

    def test_round_trip(self):
        diagnostics = self.sample()
        assert diagnostics_from_sarif(render_sarif(diagnostics)) == diagnostics

    def test_rules_metadata_includes_dim_rules(self):
        log = json.loads(render_sarif(self.sample()))
        rules = {
            rule["id"]
            for rule in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"DIM001", "DIM002"} <= rules
        # An empty log carries the full rule table, DIM rules included.
        empty = json.loads(render_sarif([]))
        all_rules = {
            rule["id"]
            for rule in empty["runs"][0]["tool"]["driver"]["rules"]
        }
        assert set(DIM_RULES) <= all_rules

    def test_result_shape(self):
        log = json.loads(render_sarif(self.sample()))
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "DIM001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5


class TestMetrics:
    def test_dimcheck_file_counter(self, tmp_path):
        from repro import obs

        path = tmp_path / "m.py"
        path.write_text("x = 1\n")
        registry = obs.MetricsRegistry()
        with obs.use(obs.Telemetry(metrics=registry)):
            lint_paths(load_paths([str(path)]))
            counters = registry.snapshot()["counters"]
        assert counters.get("lint.dimcheck.files") == 1

    def test_diagnostic_severity_counters(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use(obs.Telemetry(metrics=registry)):
            check("x = 4 * GB + 2 * HOUR\n")
            counters = registry.snapshot()["counters"]
        assert counters.get("lint.diagnostics.error") == 1


class TestEventRateDimensions:
    """The per-year rate family (1/s) wired into the checker's tables."""

    RATE_IMPORTS = (
        "from repro.units import GB, HOUR, SECOND, parse_event_rate\n"
    )

    def rate_check(self, body):
        return lint_source(self.RATE_IMPORTS + body, "rates.py")

    def test_occurrence_rate_attribute_is_a_frequency(self):
        body = "x = member.occurrence_rate + 3 * SECOND\n"
        assert codes(self.rate_check(body)) == ["DIM001"]

    def test_parse_event_rate_returns_a_frequency(self):
        body = "x = parse_event_rate('2/yr') + 4 * GB\n"
        assert codes(self.rate_check(body)) == ["DIM001"]

    def test_effective_failure_rate_stub(self):
        body = "x = model.effective_failure_rate() + 8 * HOUR\n"
        assert codes(self.rate_check(body)) == ["DIM001"]

    def test_cascade_probability_wants_a_duration(self):
        body = "p = cascade.cascade_probability(4 * GB)\n"
        assert codes(self.rate_check(body)) == ["DIM002"]

    def test_repair_time_parameter_name_seeds_time(self):
        body = (
            "def f(repair_time):\n"
            "    return repair_time + 4 * GB\n"
        )
        assert codes(self.rate_check(body)) == ["DIM001"]

    def test_dimensionally_sound_rate_code_is_clean(self):
        body = (
            "lam = parse_event_rate('2/yr')\n"
            "expected_events = lam * (8 * HOUR)\n"
            "mttf = 1.0 / lam\n"
            "window = mttf + 8 * HOUR\n"
        )
        assert self.rate_check(body) == []

    def test_frequency_dimension_relations(self):
        from repro.units import DIMENSIONLESS, FREQUENCY

        assert FREQUENCY == DIMENSIONLESS / TIME
        assert FREQUENCY * TIME == DIMENSIONLESS
