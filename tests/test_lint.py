"""The design linter: DEP rules, engine, renderers, CLI, adapter."""

import json

import pytest

from repro import casestudy
from repro.cli import main
from repro.core import StorageDesign, validate_design
from repro.devices import SpareConfig
from repro.devices.catalog import (
    enterprise_tape_library,
    midrange_disk_array,
    offsite_vault,
    san_link,
)
from repro.engine.keys import fingerprint
from repro.exceptions import DesignError, NoCycleError, PolicyError
from repro.lint import (
    Diagnostic,
    Severity,
    diagnostics_from_json,
    diagnostics_from_sarif,
    exit_code,
    render_json,
    render_sarif,
    rule_table,
)
from repro.lint.engine import lint_design, lint_file, lint_spec
from repro.scenarios import BusinessRequirements, FailureScenario
from repro.serialization import canonical_json
from repro.techniques import Backup, PrimaryCopy, SplitMirror
from repro.techniques.facts import FactsTable
from repro.workload.batch_curve import BatchUpdateCurve
from repro.workload.presets import cello
from repro.workload.spec import Workload


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    return [d for d in diagnostics if d.code == code]


@pytest.fixture
def baseline():
    return casestudy.baseline_design()


@pytest.fixture
def workload():
    return cello()


def plain_array(name="primary-array"):
    """A midrange array with no spare (for sparing-rule fixtures)."""
    return midrange_disk_array(name=name, spare=SpareConfig.none())


def one_site_design():
    """Primary + split mirror + backup, every copy at the primary site."""
    design = StorageDesign("one-site")
    array = midrange_disk_array()
    design.add_level(PrimaryCopy(), store=array)
    design.add_level(SplitMirror("12 hr", 4), store=array)
    design.add_level(
        Backup("1 wk", "48 hr", "1 hr", 4),
        store=enterprise_tape_library(),
        transport=san_link(),
    )
    return design


def backup_only_design():
    """Primary + backup: no disk-resident secondary copy."""
    design = StorageDesign("tape-only")
    design.add_level(PrimaryCopy(), store=midrange_disk_array())
    design.add_level(
        Backup("1 wk", "48 hr", "1 hr", 4),
        store=enterprise_tape_library(),
        transport=san_link(),
    )
    return design


class TestRetentionRules:
    def test_dep001_fires_on_shrinking_retention(self, workload):
        design = StorageDesign("bad")
        array = midrange_disk_array()
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("12 hr", 4), store=array)
        design.add_level(
            Backup("1 wk", "48 hr", "1 hr", retention_count=2),
            store=enterprise_tape_library(),
            transport=san_link(),
        )
        found = only(lint_design(design, workload), "DEP001")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "retains fewer cycles (2)" in found[0].message
        assert found[0].hint
        assert found[0].pointer == "/levels/2/technique/retention_count"

    def test_dep001_clean_on_baseline(self, baseline, workload):
        assert not only(lint_design(baseline, workload), "DEP001")

    def test_dep002_fires_on_shrinking_cycle_period(self, workload):
        design = StorageDesign("bad")
        array = midrange_disk_array()
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("1 wk", 4), store=array)
        design.add_level(
            Backup("12 hr", "6 hr", "1 hr", retention_count=4),
            store=enterprise_tape_library(),
            transport=san_link(),
        )
        found = only(lint_design(design, workload), "DEP002")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "accW_i+1 >= cyclePer_i" in found[0].message

    def test_dep002_clean_on_baseline(self, baseline, workload):
        assert not only(lint_design(baseline, workload), "DEP002")

    def test_dep003_warns_on_baseline_vault_hold(self, baseline, workload):
        found = only(lint_design(baseline, workload), "DEP003")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "extra retention capacity" in found[0].message

    def test_dep003_clean_without_vaulting(self, workload):
        assert not only(lint_design(one_site_design(), workload), "DEP003")

    def test_dep003_warns_on_backup_full_hold(self, workload):
        # Backups hold their full RP under ``full_hold_window``: a 6 hr
        # hold outlives the feeding split mirror's 2 hr of RPs.
        design = StorageDesign("late-backup")
        array = midrange_disk_array()
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("1 hr", 2), store=array)
        design.add_level(
            Backup("1 wk", "48 hr", "6 hr", retention_count=2),
            store=enterprise_tape_library(),
            transport=san_link(),
        )
        found = only(lint_design(design, workload), "DEP003")
        assert len(found) == 1
        assert found[0].pointer == "/levels/2/technique/full_hold_window"
        assert validate_design(design, workload) == [found[0].message]


class TestPlacementRules:
    def test_dep004_fires_when_all_copies_share_one_site(self, workload):
        found = only(lint_design(one_site_design(), workload), "DEP004")
        assert found, "hypothesized building/site disasters must flag SPOF"
        assert all(d.severity is Severity.ERROR for d in found)
        assert all(d.hint for d in found)
        assert "single point of failure" in found[0].message

    def test_dep004_clean_on_baseline_with_remote_vault(
        self, baseline, workload
    ):
        assert not only(lint_design(baseline, workload), "DEP004")

    def test_dep004_array_scenario_on_single_array_design(self, workload):
        design = StorageDesign("array-only")
        array = midrange_disk_array()
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("12 hr", 4), store=array)
        scenario = FailureScenario.array_failure("primary-array")
        found = only(lint_design(design, workload, [scenario]), "DEP004")
        assert len(found) == 1
        assert "primary-array" in found[0].message

    def test_dep010_warns_without_spares_or_facility(self, workload):
        design = StorageDesign("unspared")
        design.add_level(PrimaryCopy(), store=plain_array())
        design.add_level(
            Backup("1 wk", "48 hr", "1 hr", 4),
            store=enterprise_tape_library(
                name="library", spare=SpareConfig.none()
            ),
            transport=san_link(),
        )
        found = only(lint_design(design, workload), "DEP010")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_dep010_clean_with_recovery_facility(self, baseline, workload):
        assert not only(lint_design(baseline, workload), "DEP010")


class TestObjectiveRules:
    def test_dep005_fires_when_rpo_unreachable(self, workload):
        requirements = BusinessRequirements.per_hour(
            50_000, 50_000, rpo="24 hr"
        )
        found = only(
            lint_design(
                backup_only_design(), workload, requirements=requirements
            ),
            "DEP005",
        )
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "statically unreachable" in found[0].message

    def test_dep005_clean_with_fresh_mirror(self, workload):
        requirements = BusinessRequirements.per_hour(
            50_000, 50_000, rpo="24 hr"
        )
        found = only(
            lint_design(
                one_site_design(), workload, requirements=requirements
            ),
            "DEP005",
        )
        assert not found

    def test_dep006_fires_when_rto_below_bandwidth_bound(self, workload):
        requirements = BusinessRequirements.per_hour(
            50_000, 50_000, rto="1 min"
        )
        found = only(
            lint_design(
                backup_only_design(), workload, requirements=requirements
            ),
            "DEP006",
        )
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "infeasible" in found[0].message

    def test_dep006_clean_with_generous_rto(self, workload):
        requirements = BusinessRequirements.per_hour(
            50_000, 50_000, rto="24 hr"
        )
        found = only(
            lint_design(
                backup_only_design(), workload, requirements=requirements
            ),
            "DEP006",
        )
        assert not found

    def test_dep011_warns_on_per_hour_rate_passed_per_second(self, baseline):
        requirements = BusinessRequirements(50_000.0, 50_000.0)
        found = only(
            lint_design(baseline, requirements=requirements), "DEP011"
        )
        assert len(found) == 2  # both rates are suspect
        assert all(d.severity is Severity.WARNING for d in found)
        assert "per_hour" in found[0].hint

    def test_dep011_clean_on_paper_rates(self, baseline):
        requirements = BusinessRequirements.per_hour(50_000, 50_000)
        assert not only(
            lint_design(baseline, requirements=requirements), "DEP011"
        )


class TestCapacityRule:
    @staticmethod
    def big_workload():
        return Workload(
            name="oversized",
            data_capacity="40 TB",  # raw 80 TB on RAID-2x vs 18.25 TB array
            avg_access_rate="2 MB/s",
            avg_update_rate="1 MB/s",
            burst_multiplier=2.0,
            batch_curve=BatchUpdateCurve(
                {"1 min": "727 KB/s", "24 hr": "317 KB/s"},
                short_window_rate="1 MB/s",
            ),
        )

    def test_dep007_fires_on_overcommitted_array(self):
        found = only(
            lint_design(one_site_design(), self.big_workload()), "DEP007"
        )
        assert found
        assert found[0].severity is Severity.ERROR
        assert "overcommitted" in found[0].message

    def test_dep007_clean_on_baseline(self, baseline, workload):
        assert not only(lint_design(baseline, workload), "DEP007")

    def test_dep007_leaves_design_unchanged(self, workload):
        design = one_site_design()
        before = canonical_json(fingerprint(design))
        assert only(lint_design(design, self.big_workload()), "DEP007")
        assert canonical_json(fingerprint(design)) == before


class TestScenarioAndStructureRules:
    def test_dep012_fires_on_unknown_device(self, baseline, workload):
        scenario = FailureScenario.array_failure("no-such-array")
        found = only(lint_design(baseline, workload, [scenario]), "DEP012")
        assert len(found) == 1
        assert "no-such-array" in found[0].message
        assert "primary-array" in found[0].hint

    def test_dep012_clean_on_known_device(self, baseline, workload):
        scenario = FailureScenario.array_failure("primary-array")
        assert not only(
            lint_design(baseline, workload, [scenario]), "DEP012"
        )

    def test_dep013_fires_on_empty_design(self):
        found = only(lint_design(StorageDesign("empty")), "DEP013")
        assert len(found) == 1
        assert found[0].message == "design has no levels"

    def test_dep014_warns_on_primary_only_design(self, workload):
        design = StorageDesign("bare")
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        found = only(lint_design(design, workload), "DEP014")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_dep014_clean_with_protection(self, baseline, workload):
        assert not only(lint_design(baseline, workload), "DEP014")

    def test_dep009_flags_duplicate_device_names(self, workload):
        design = StorageDesign("dup-names")
        design.add_level(PrimaryCopy(), store=midrange_disk_array())
        design.add_level(
            SplitMirror("12 hr", 4, name="pit"),
            store=design.levels[0].store,
        )
        design.add_level(
            Backup("1 wk", "48 hr", "1 hr", 4),
            store=midrange_disk_array(),  # same catalog name, new device
            transport=san_link(),
        )
        found = only(lint_design(design, workload), "DEP009")
        assert found
        assert "primary-array" in found[0].message


class TestSpecRules:
    @staticmethod
    def spec_with_levels(levels):
        return {
            "workload": "cello",
            "design": {"name": "spec-design", "levels": levels},
        }

    def test_dep008_fires_on_dangling_ref(self):
        spec = self.spec_with_levels(
            [
                {
                    "technique": {"kind": "primary"},
                    "store": {"catalog": "midrange_disk_array", "id": "a"},
                },
                {
                    "technique": {
                        "kind": "snapshot",
                        "accumulation_window": "4 hr",
                        "retention_count": 6,
                    },
                    "store": {"ref": "nope"},
                },
            ]
        )
        diagnostics = lint_spec(spec)
        found = only(diagnostics, "DEP008")
        assert len(found) == 1
        assert "'nope'" in found[0].message
        assert found[0].pointer == "/design/levels/1/store/ref"
        # The unbuildable design also surfaces as DEP000.
        assert only(diagnostics, "DEP000")

    def test_dep009_fires_on_duplicate_id(self):
        spec = self.spec_with_levels(
            [
                {
                    "technique": {"kind": "primary"},
                    "store": {"catalog": "midrange_disk_array", "id": "a"},
                },
                {
                    "technique": {
                        "kind": "snapshot",
                        "accumulation_window": "4 hr",
                        "retention_count": 6,
                    },
                    "store": {"ref": "a"},
                },
                {
                    "technique": {
                        "kind": "backup",
                        "full_accumulation_window": "1 wk",
                        "full_propagation_window": "48 hr",
                        "full_hold_window": "1 hr",
                        "retention_count": 6,
                    },
                    "store": {
                        "catalog": "enterprise_tape_library",
                        "id": "a",
                        "name": "library",
                    },
                    "transport": {"catalog": "san_link"},
                },
            ]
        )
        found = only(lint_spec(spec), "DEP009")
        assert found
        assert "defined twice" in found[0].message

    def test_spec_expectations_suppress_documented_findings(self, tmp_path):
        spec = {"design": "baseline", "lint": {"expect": ["DEP003"]}}
        assert codes(lint_spec(spec)) == []

    def test_stale_expectation_is_reported(self):
        spec = {"design": "baseline", "lint": {"expect": ["DEP003", "DEP007"]}}
        found = lint_spec(spec)
        assert codes(found) == ["DEP099"]
        assert "DEP007" in found[0].message


class TestValidateDesignAdapter:
    def test_baseline_warning_string_is_preserved(self, baseline, workload):
        messages = validate_design(baseline, workload)
        assert len(messages) == 1
        assert messages[0].startswith(
            "level 3 (remote vaulting) holds RPs"
        )
        assert "extra retention capacity is demanded" in messages[0]

    def test_error_strings_are_preserved(self, workload):
        design = StorageDesign("bad")
        array = midrange_disk_array()
        design.add_level(PrimaryCopy(), store=array)
        design.add_level(SplitMirror("12 hr", 4), store=array)
        design.add_level(
            Backup("1 wk", "48 hr", "1 hr", retention_count=2),
            store=enterprise_tape_library(),
            transport=san_link(),
        )
        with pytest.raises(DesignError) as excinfo:
            validate_design(design, workload)
        message = str(excinfo.value)
        assert "design 'bad' is invalid" in message
        assert (
            "level 2 (backup) retains fewer cycles (2) than level 1"
            in message
        )
        assert "(paper section 3.2.1)" in message

    def test_helpers_return_none_for_continuous_techniques(self, baseline):
        facts = FactsTable()
        primary = facts.of(baseline.levels[0].technique)
        assert primary.period is None and primary.retention_count is None
        assert facts.of(baseline.levels[2].technique).period is not None

    def test_no_cycle_error_is_both_policy_and_not_implemented(self):
        with pytest.raises(PolicyError):
            PrimaryCopy().cycle()
        with pytest.raises(NotImplementedError):
            PrimaryCopy().cycle()
        assert issubclass(NoCycleError, PolicyError)
        assert issubclass(NoCycleError, NotImplementedError)

    def test_broken_cycle_surfaces_instead_of_skipping(self, workload):
        design = one_site_design()

        class Broken(Exception):
            pass

        def broken_cycle():
            raise Broken("bug in cycle()")

        design.levels[2].technique.cycle = broken_cycle
        with pytest.raises(Broken):
            validate_design(design, workload)

    def test_cycle_attribute_error_surfaces_instead_of_skipping(self, workload):
        # Only NoCycleError means "continuous"; an AttributeError out of
        # a buggy cycle() is a bug, not a reason to skip DEP001-DEP003.
        design = one_site_design()

        def broken_cycle():
            raise AttributeError("bug in cycle()")

        design.levels[2].technique.cycle = broken_cycle
        with pytest.raises(AttributeError, match="bug in cycle"):
            validate_design(design, workload)


class TestOutputRoundTrips:
    @staticmethod
    def sample(baseline, workload):
        requirements = BusinessRequirements(50_000.0, 50_000.0)
        return lint_design(baseline, workload, requirements=requirements)

    def test_json_round_trip(self, baseline, workload):
        diagnostics = self.sample(baseline, workload)
        assert diagnostics
        assert diagnostics_from_json(render_json(diagnostics)) == diagnostics

    def test_sarif_round_trip(self, baseline, workload):
        diagnostics = self.sample(baseline, workload)
        assert (
            diagnostics_from_sarif(render_sarif(diagnostics)) == diagnostics
        )

    def test_sarif_levels_and_rule_metadata(self, baseline, workload):
        log = json.loads(render_sarif(self.sample(baseline, workload)))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"error", "warning", "note"}
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in run["results"]} <= rule_ids

    def test_rule_table_covers_design_and_code_rules(self):
        table = {row["code"]: row for row in rule_table()}
        for code in ("DEP001", "DEP004", "DEP011", "UNI001", "EXC001"):
            assert code in table
            assert table[code]["summary"]

    def test_exit_code_policy(self):
        error = Diagnostic("X", Severity.ERROR, "m")
        warning = Diagnostic("X", Severity.WARNING, "m")
        info = Diagnostic("X", Severity.INFO, "m")
        assert exit_code([error, warning]) == 1
        assert exit_code([warning, info]) == 0
        assert exit_code([warning], strict=True) == 1
        assert exit_code([info], strict=True) == 0
        assert exit_code([]) == 0


class TestLintCommand:
    @staticmethod
    def write_spec(tmp_path, name, spec):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    def test_examples_lint_clean_under_strict(self, capsys):
        assert (
            main(
                [
                    "lint",
                    "examples/specs/baseline_array_failure.json",
                    "examples/specs/custom_mirror_design.json",
                    "--strict",
                ]
            )
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_warning_exits_zero_then_one_under_strict(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        assert main(["lint", path]) == 0
        assert "DEP003 warning" in capsys.readouterr().out
        assert main(["lint", path, "--strict"]) == 1

    def test_error_exits_one(self, tmp_path, capsys):
        spec = {
            "design": {
                "name": "broken",
                "levels": [
                    {
                        "technique": {"kind": "primary"},
                        "store": {"ref": "missing"},
                    }
                ],
            }
        }
        path = self.write_spec(tmp_path, "e.json", spec)
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "DEP008 error" in out

    def test_json_format(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        assert main(["lint", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["warning"] == 1
        assert document["diagnostics"][0]["file"] == path

    def test_sarif_format(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        assert main(["lint", path, "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"][0]["ruleId"] == "DEP003"

    def test_python_tree_clean_under_strict(self, capsys):
        assert main(["lint", "src/repro", "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_python_target_flags_dim_mismatch(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.units import GB, HOUR\nx = 4 * GB + 2 * HOUR\n"
        )
        assert main(["lint", str(dirty)]) == 1
        assert "DIM001" in capsys.readouterr().out

    def test_python_target_dim_pragma_budget(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.units import GB, HOUR\n"
            "x = 4 * GB + 2 * HOUR  # lint: allow-dim\n"
        )
        assert main(["lint", str(dirty), "--max-pragmas", "0"]) == 1
        assert "DIM004" in capsys.readouterr().out

    def test_unparseable_spec_reports_dep000(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["lint", str(path)]) == 1
        assert "DEP000" in capsys.readouterr().out

    def test_lint_file_attributes_diagnostics(self, tmp_path):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        diagnostics = lint_file(path)
        assert all(d.file == path for d in diagnostics)

    def test_metrics_hooks_fire(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        assert main(["lint", path, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "lint.rules_run" in out
        assert "lint.diagnostics.warning" in out
        assert "lint.files" in out

    def test_metrics_count_reported_not_raw_diagnostics(self, tmp_path, capsys):
        # A suppressed expectation is not a reported diagnostic, so a
        # clean verdict must come with no lint.diagnostics.* counters.
        path = self.write_spec(
            tmp_path,
            "clean.json",
            {"design": "baseline", "lint": {"expect": ["DEP003"]}},
        )
        assert main(["lint", path, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "lint.diagnostics" not in out
        assert "lint.files" in out

    def test_metrics_count_engine_made_diagnostics(self, tmp_path, capsys):
        # DEP000 comes from the engine (unparseable file), not from any
        # rule; it must still show up in the metrics.
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["lint", str(path), "--metrics"]) == 1
        out = capsys.readouterr().out
        assert "lint.diagnostics.error" in out

    def test_json_format_with_metrics_keeps_stdout_parseable(
        self, tmp_path, capsys
    ):
        path = self.write_spec(tmp_path, "w.json", {"design": "baseline"})
        assert main(["lint", path, "--format", "json", "--metrics"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)  # stdout is pure JSON
        assert document["summary"]["warning"] == 1
        assert "lint.rules_run" in captured.err  # metrics went to stderr


class TestRiskEnsembleRules:
    """DEP015: ensembles that would not build or could not fire."""

    @staticmethod
    def spec(ensemble):
        return {"design": "baseline", "ensemble": ensemble}

    def good(self):
        return {
            "name": "ok",
            "members": [
                {"id": "arr", "scenario": "array", "rate": "0.5/yr"}
            ],
            "correlated": [
                {"id": "pair", "rate": "0.4/yr", "fraction": 0.25,
                 "base": "array", "correlated": "building"}
            ],
            "cascades": [
                {"id": "casc", "rate": "0.01/yr", "primary": "array",
                 "escalated": "site", "secondary_rate": "0.5/yr"}
            ],
        }

    def test_consistent_ensemble_is_clean(self):
        assert only(lint_spec(self.spec(self.good())), "DEP015") == []

    def test_spec_without_ensemble_is_ignored(self):
        assert only(lint_spec({"design": "baseline"}), "DEP015") == []

    def test_zero_rate_member(self):
        ensemble = self.good()
        ensemble["members"][0]["rate"] = "0/yr"
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert len(found) == 1
        assert "not positive" in found[0].message
        assert found[0].pointer == "/ensemble/members/0/rate"

    def test_unparseable_rate(self):
        ensemble = self.good()
        ensemble["cascades"][0]["secondary_rate"] = "often"
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert [f.pointer for f in found] == [
            "/ensemble/cascades/0/secondary_rate"
        ]

    def test_negative_kofn_unit_rate(self):
        ensemble = self.good()
        ensemble["members"][0] = {
            "id": "arr", "scenario": "array",
            "kofn": {"n": 8, "k": 6, "unit_rate": "-2/yr",
                     "repair_time": "8 hr"},
        }
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert [f.pointer for f in found] == [
            "/ensemble/members/0/kofn/unit_rate"
        ]

    def test_probability_and_fraction_outside_unit_interval(self):
        ensemble = self.good()
        ensemble["correlated"][0]["fraction"] = 1.5
        ensemble["cascades"][0] = {
            "id": "casc", "rate": "0.01/yr", "primary": "array",
            "escalated": "site", "probability": 0,
        }
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert sorted(f.pointer for f in found) == [
            "/ensemble/cascades/0/probability",
            "/ensemble/correlated/0/fraction",
        ]

    def test_duplicate_ids_across_groups(self):
        ensemble = self.good()
        ensemble["cascades"][0]["id"] = "arr"
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert len(found) == 1
        assert "duplicate ensemble member id 'arr'" in found[0].message
        assert found[0].pointer == "/ensemble/cascades/0/id"

    def test_unknown_device_reference(self):
        ensemble = self.good()
        ensemble["members"][0]["scenario"] = {
            "scope": "array", "failed_device": "ghost-array",
        }
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert len(found) == 1
        assert "'ghost-array'" in found[0].message
        assert found[0].pointer == "/ensemble/members/0/scenario"

    def test_known_device_reference_is_clean(self):
        ensemble = self.good()
        ensemble["members"][0]["scenario"] = {
            "scope": "array", "failed_device": "primary-array",
        }
        assert only(lint_spec(self.spec(ensemble)), "DEP015") == []

    def test_generated_grid_rate(self):
        ensemble = self.good()
        ensemble["generate"] = {
            "object_grid": {"count": 10, "total_rate": "-12/yr"}
        }
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert [f.pointer for f in found] == [
            "/ensemble/generate/object_grid/total_rate"
        ]

    def test_severity_is_error(self):
        ensemble = self.good()
        ensemble["members"][0]["rate"] = "0/yr"
        found = only(lint_spec(self.spec(ensemble)), "DEP015")
        assert found[0].severity is Severity.ERROR
