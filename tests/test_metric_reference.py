"""README's metric reference matches the metrics the code emits.

Every ``inc(...)`` / ``set_gauge(...)`` call under ``src/repro`` whose
name is a string literal, or an f-string that opens with a literal, is
collected with :mod:`ast`.  An f-string becomes a pattern (each
placeholder matches one or more characters), so ``f"lint.{name}.files"``
matches the rows ``lint.codelint.files`` ... and
``f"engine.tasks_failed.{error_type}"`` matches the row
``engine.tasks_failed.<type>``.  The table is checked both ways: a
missing row and a stale row each fail, and so does a wrong type.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
README = ROOT / "README.md"

_KINDS = {"inc": "counter", "set_gauge": "gauge"}


def emitted_metrics():
    """``{(name_or_pattern, kind): "path:line"}`` for every emission
    whose name is literal; patterns are compiled regexes."""
    emitted = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _KINDS
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif (
                isinstance(arg, ast.JoinedStr)
                and arg.values
                and isinstance(arg.values[0], ast.Constant)
            ):
                name = re.compile(
                    "".join(
                        re.escape(part.value)
                        if isinstance(part, ast.Constant)
                        else ".+"
                        for part in arg.values
                    )
                )
            else:
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            emitted.setdefault((name, _KINDS[node.func.attr]), where)
    return emitted


def reference_rows():
    """``{(metric, type)}`` from README's "Metric reference" table; a
    cell naming two metrics (``a`` / ``b``) gives two rows."""
    text = README.read_text()
    section = text.split("### Metric reference", 1)[1].split("\n#", 1)[0]
    rows = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            rows.add((name, cells[1]))
    return rows


def _matches(name, row_name):
    if isinstance(name, str):
        return name == row_name
    return name.fullmatch(row_name) is not None


def test_collector_sees_literals_and_patterns():
    emitted = emitted_metrics()
    assert ("recovery.plans", "counter") in emitted
    assert ("utilization.max_capacity", "gauge") in emitted
    patterns = [name.pattern for name, _kind in emitted if not isinstance(name, str)]
    assert r"lint\..+\.files" in patterns
    assert r"engine\.tasks_failed\..+" in patterns


def test_every_emitted_metric_has_a_row():
    rows = reference_rows()
    missing = [
        f"{getattr(name, 'pattern', name)} ({kind}) at {where}"
        for (name, kind), where in sorted(
            emitted_metrics().items(), key=lambda item: item[1]
        )
        if not any(_matches(name, row) and kind == rtype for row, rtype in rows)
    ]
    assert missing == [], "README metric reference lacks: " + "; ".join(missing)


def test_every_row_names_an_emitted_metric():
    emitted = emitted_metrics()
    stale = sorted(
        f"{row} ({rtype})"
        for row, rtype in reference_rows()
        if not any(_matches(name, row) and kind == rtype for name, kind in emitted)
    )
    assert stale == [], "README metric reference has stale rows: " + "; ".join(stale)
