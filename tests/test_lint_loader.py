"""The code passes' shared front end: parse once, comment-only pragmas,
loud failures on bad targets, per-pass call-graph state."""

import ast

import pytest

from repro.cli import main as cli_main
from repro.lint import dimcheck, exncheck, parcheck
from repro.lint.allcheck import lint_targets
from repro.lint.diagnostics import LintError
from repro.lint.loader import load_paths, load_source


def codes(findings):
    return [f.code for f in findings]


class TestParseOnce:
    def test_lint_targets_parses_each_file_exactly_once(
        self, tmp_path, monkeypatch
    ):
        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text(f"def {name[0]}():\n    return 1\n")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert lint_targets([], [str(tmp_path)]) == []
        assert sorted(parsed) == sorted(
            str(tmp_path / name) for name in ("a.py", "b.py", "c.py")
        )

    def test_exncheck_unchanged_after_parcheck_on_one_load(self, tmp_path):
        # parcheck binds `store.get()` to Store.get through the local
        # constructor; exncheck leaves `get` unresolved (a container
        # name).  Each pass builds its own call graph from the shared
        # trees, so parcheck's edge must not make Fault worker-reachable
        # for exncheck (EXN001).
        (tmp_path / "lib.py").write_text(
            "class ReproError(Exception):\n    pass\n"
            "class Fault(Exception):\n"
            "    def __init__(self, a, b):\n"
            "        super().__init__(a)\n"
            "class Store:\n"
            "    def get(self, key):\n"
            "        raise Fault(key, 1)\n"
            "def task(x):\n"
            "    store = Store()\n"
            "    return store.get(x)\n"
            "def sweep(pool, items):\n"
            "    return [pool.submit(task, i) for i in items]\n"
            "def load(raw):\n"
            "    try:\n"
            "        raise ReproError(raw)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        fresh = exncheck.lint_paths(load_paths([str(tmp_path)]))
        shared = load_paths([str(tmp_path)])
        parcheck.lint_paths(shared)
        assert codes(fresh) == ["EXN002"]
        assert exncheck.lint_paths(shared) == fresh


class TestCommentPragmas:
    def test_pragma_text_in_a_string_does_not_suppress(self):
        source = (
            "from repro.units import GB, HOUR\n"
            'x = (4 * GB + 2 * HOUR, "# lint: allow-dim")\n'
        )
        findings = dimcheck.lint_paths([load_source("m.py", source)])
        assert codes(findings) == ["DIM001"]

    def test_pragma_in_a_comment_suppresses(self):
        source = (
            "from repro.units import GB, HOUR\n"
            "x = 4 * GB + 2 * HOUR  # lint: allow-dim\n"
        )
        assert dimcheck.lint_paths([load_source("m.py", source)]) == []

    def test_shipped_tree_passes_a_zero_pragma_budget(self):
        assert lint_targets([], ["src/repro"], max_pragmas=0) == []


class TestBadTargets:
    def test_missing_path_is_an_error(self, tmp_path):
        missing = str(tmp_path / "typo_dir")
        with pytest.raises(LintError, match="typo_dir"):
            load_paths([missing])

    def test_unreadable_file_is_an_error(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"name = '\xe9'\n")
        with pytest.raises(LintError, match="latin.py"):
            load_paths([str(path)])

    def test_syntax_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("x = 1\ndef f(:\n")
        with pytest.raises(LintError, match=r"broken\.py:2"):
            load_paths([str(path)])

    def test_cli_exits_two_on_a_missing_tree(self, tmp_path, capsys):
        missing = str(tmp_path / "typo_dir")
        assert cli_main(["lint", "all", missing, "--strict"]) == 2
        err = capsys.readouterr().err
        assert "typo_dir" in err and "Traceback" not in err

    def test_removed_subcommand_word_fails_loudly(self, capsys):
        assert cli_main(["lint", "dim", "src/repro"]) == 2
        assert "dim: no such file or directory" in capsys.readouterr().err
