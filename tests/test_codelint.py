"""The AST code linter: raw-unit literals, broad excepts, pragmas, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.lint.allcheck import DEFAULT_PATHS, lint_targets
from repro.lint.codelint import BROAD_EXCEPT_PRAGMA, RAW_UNIT_PRAGMA, lint_paths
from repro.lint.diagnostics import Severity
from repro.lint.loader import load_paths, load_source


def codes(findings):
    return [f.code for f in findings]


def lint_source(source, filename="<string>"):
    return lint_paths([load_source(filename, source)])


def lint_cli(argv):
    return cli_main(["lint", *argv])


class TestRawUnitLiterals:
    def test_3600_flagged_as_hour(self):
        findings = lint_source("duration = 4 * 3600.0\n", "m.py")
        assert codes(findings) == ["UNI001"]
        assert "HOUR" in findings[0].message
        assert findings[0].severity is Severity.ERROR
        assert findings[0].line == 1

    def test_86400_flagged_as_day(self):
        # The acceptance scenario: reintroducing 86400 in backup code.
        source = "days = cycle_period / 86400.0\n"
        findings = lint_source(source, "repro/techniques/backup.py")
        assert codes(findings) == ["UNI001"]
        assert "DAY" in findings[0].message

    def test_week_and_year_magnitudes(self):
        findings = lint_source("a = 604800\nb = 31536000\n", "m.py")
        assert codes(findings) == ["UNI001", "UNI001"]

    def test_byte_magnitudes(self):
        findings = lint_source("kb = 1024\ngb = 1073741824\n", "m.py")
        assert codes(findings) == ["UNI002", "UNI002"]
        assert "KB" in findings[0].message

    def test_power_expressions_flagged(self):
        findings = lint_source("size = 3 * 2 ** 30\ndec = 10 ** 9\n", "m.py")
        assert codes(findings) == ["UNI002", "UNI002"]
        assert "2**30" in findings[0].message
        assert "GB" in findings[0].message
        assert "GB_DEC" in findings[1].message

    def test_innocent_numbers_not_flagged(self):
        source = "x = 60\ny = 100\nz = 2 ** 8\nio = 8192\nrate = 1000.0\n"
        assert lint_source(source, "m.py") == []

    def test_strings_and_docstrings_not_flagged(self):
        source = '"""Mentions 3600 and 86400."""\nlabel = "1024"\n'
        assert lint_source(source, "m.py") == []

    def test_booleans_not_flagged(self):
        assert lint_source("flag = True\n", "m.py") == []

    def test_pragma_allows_the_line(self):
        source = f"duration = 3600  # {RAW_UNIT_PRAGMA}\n"
        assert lint_source(source, "m.py") == []

    def test_units_module_is_allowlisted(self):
        source = "HOUR = 3600.0\nDAY = 24 * HOUR\nKB = 2.0 ** 10\n"
        assert lint_source(source, "src/repro/units.py") == []
        assert codes(lint_source(source, "other.py")) == ["UNI001", "UNI002"]


class TestBroadExcept:
    def test_except_exception_flagged(self):
        source = "try:\n    pass\nexcept Exception:\n    pass\n"
        findings = lint_source(source, "m.py")
        assert codes(findings) == ["EXC001"]
        assert findings[0].line == 3

    def test_bare_except_flagged(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert codes(lint_source(source, "m.py")) == ["EXC001"]

    def test_tuple_with_base_exception_flagged(self):
        source = "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
        assert codes(lint_source(source, "m.py")) == ["EXC001"]

    def test_narrow_handlers_pass(self):
        source = (
            "try:\n    pass\n"
            "except (AttributeError, NotImplementedError):\n    pass\n"
        )
        assert lint_source(source, "m.py") == []

    def test_boundary_pragma_allows_the_handler(self):
        source = (
            "try:\n    pass\n"
            f"except Exception:  # {BROAD_EXCEPT_PRAGMA}\n    pass\n"
        )
        assert lint_source(source, "m.py") == []

    def test_attribute_form_broad_handler_flagged(self):
        # `except builtins.BaseException:` is the same catch-all in a
        # trenchcoat; the attribute spelling must not slip past.
        source = (
            "import builtins\n"
            "try:\n    pass\n"
            "except builtins.BaseException:\n    pass\n"
        )
        findings = lint_source(source, "m.py")
        assert codes(findings) == ["EXC001"]
        assert findings[0].line == 4

    def test_attribute_form_in_tuple_flagged(self):
        source = (
            "import builtins\n"
            "try:\n    pass\n"
            "except (ValueError, builtins.Exception):\n    pass\n"
        )
        assert codes(lint_source(source, "m.py")) == ["EXC001"]

    def test_exn_family_pragma_also_allows_the_handler(self):
        # A site sanctioned for exception-flow analysis (`allow-exn`)
        # is sanctioned for the syntactic rule too: one comment covers
        # the family.
        from repro.lint.codelint import EXN_FAMILY_PRAGMA

        source = (
            "try:\n    pass\n"
            f"except Exception:  # {EXN_FAMILY_PRAGMA}\n    pass\n"
        )
        assert lint_source(source, "m.py") == []


class TestTreeAndCli:
    def test_repro_tree_is_clean(self):
        assert lint_paths(load_paths(["src/repro"])) == []

    def test_examples_and_benchmarks_are_clean(self):
        # The linter's default sweep covers the runnable trees too.
        assert lint_paths(load_paths(["examples", "benchmarks"])) == []

    def test_default_paths_cover_all_three_trees(self):
        assert DEFAULT_PATHS == ("src/", "examples/", "benchmarks/")

    def test_planted_raw_unit_caught_in_every_default_tree(
        self, tmp_path, monkeypatch
    ):
        # Regression guard: a raw 3600 reintroduced in examples/ or
        # benchmarks/ must fail the same way it does in src/.
        for tree in DEFAULT_PATHS:
            package = tmp_path / tree
            package.mkdir()
            (package / "planted.py").write_text("duration = 4 * 3600.0\n")
        monkeypatch.chdir(tmp_path)
        findings = lint_paths(load_paths(DEFAULT_PATHS))
        assert codes(findings) == ["UNI001"] * len(DEFAULT_PATHS)
        flagged = {f.file for f in findings}
        assert len(flagged) == len(DEFAULT_PATHS)

    def test_tree_pragma_budget(self):
        findings = lint_targets([], ["src/repro"], max_pragmas=3)
        assert "UNI003" not in codes(findings)

    def test_max_pragmas_gate(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(f"a = 3600  # {RAW_UNIT_PRAGMA}\n")
        ok = lint_targets([], [str(path)], max_pragmas=1)
        assert ok == []
        over = lint_targets([], [str(path)], max_pragmas=0)
        assert codes(over) == ["UNI003"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("from repro.units import HOUR\nx = 4 * HOUR\n")
        assert lint_cli([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 86400\n")
        assert lint_cli([str(dirty)]) == 1
        assert "UNI001" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 3600\n")
        assert lint_cli([str(dirty), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        record = document["diagnostics"][0]
        assert record["code"] == "UNI001"
        assert record["source"] == "code"
        assert record["file"] == str(dirty)
        assert record["line"] == 1

    def test_cli_sarif_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 3600\n")
        assert lint_cli([str(dirty), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "UNI001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == str(dirty)
        assert location["region"]["startLine"] == 1

    def test_directory_walk_skips_pycache(self, tmp_path):
        package = tmp_path / "pkg"
        cache = package / "__pycache__"
        cache.mkdir(parents=True)
        (package / "m.py").write_text("x = 3600\n")
        (cache / "m.py").write_text("x = 3600\n")
        findings = lint_paths(load_paths([str(package)]))
        assert len(findings) == 1
