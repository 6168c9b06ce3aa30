"""Units-discipline and exception-hygiene AST pass for the codebase.

Run it, with the other code passes, as ``repro lint src/ examples/
benchmarks/``.  Three rules, sharing the
:class:`~repro.lint.diagnostics.Diagnostic` model with the design
linter:

``UNI001`` (error)
    A raw *time* magnitude literal (3600, 86400, 604800, 31536000)
    outside :mod:`repro.units`.  The codebase's whole defence against
    the paper's $/hour-vs-$/s and GB-vs-GiB class of slip is that
    magnitudes are spelled once, in ``units.py``; ``4 * 3600`` in a
    workload preset reintroduces the ambiguity the constants removed.

``UNI002`` (error)
    A raw *byte* magnitude literal (1024, 2**20 ... 2**50 binary,
    10**3 ... 10**12 decimal ``BinOp`` powers) outside ``units.py``.

``EXC001`` (error)
    A broad exception handler — bare ``except:``, ``except Exception``
    or ``except BaseException`` — outside a designated boundary.  Broad
    handlers swallow genuine bugs (a broken ``cycle()`` used to skip
    validation checks silently, see ``core/validate.py`` history).

Both UNI rules honour the pragma ``# lint: allow-raw-unit`` on the
flagged line; EXC001 honours ``# lint: allow-broad-except`` on the
``except`` line (use it only on deliberate boundaries, with a comment
stating the contract).  ``--max-pragmas`` budgets the total number of
allow-raw-unit pragmas so the escape hatch cannot quietly become the
norm (CI pins it at 3).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence

from .diagnostics import Diagnostic, Severity
from .loader import Report, SourceFile, analyzed
from .registry import RuleInfo

#: The code-lint rule table (not in the design registry: these rules
#: run over Python source, not RuleContexts).  ``output.all_rule_infos``
#: merges this into the SARIF metadata and the documented rule table.
CODE_RULES: "Dict[str, RuleInfo]" = {
    info.code: info
    for info in (
        RuleInfo(
            "UNI001",
            Severity.ERROR,
            "units",
            "Raw time-magnitude literal outside repro.units.",
        ),
        RuleInfo(
            "UNI002",
            Severity.ERROR,
            "units",
            "Raw byte-magnitude literal or power outside repro.units.",
        ),
        RuleInfo(
            "UNI003",
            Severity.ERROR,
            "units",
            "allow-raw-unit pragma budget exceeded.",
        ),
        RuleInfo(
            "EXC001",
            Severity.ERROR,
            "exceptions",
            "Broad exception handler outside a designated boundary.",
        ),
    )
}

RAW_UNIT_PRAGMA = "lint: allow-raw-unit"
BROAD_EXCEPT_PRAGMA = "lint: allow-broad-except"

#: The exception-flow family pragma (exncheck's ``ALLOW_EXN_PRAGMA``):
#: a site sanctioned for exception-flow analysis is sanctioned for the
#: syntactic broad-except rule too, so one comment covers the family.
EXN_FAMILY_PRAGMA = "lint: allow-exn"

#: Files the pass never applies to: the module that *defines* the
#: magnitudes, and this checker (which must name them to detect them).
ALLOWLIST = ("repro/units.py", "repro/lint/codelint.py")

#: Time magnitudes in seconds -> the repro.units constant to use.
TIME_LITERALS: "Dict[float, str]" = {
    3600.0: "HOUR",
    86400.0: "DAY",
    604800.0: "WEEK",
    31536000.0: "YEAR",
}

#: Byte magnitudes -> the repro.units constant to use.
BYTE_LITERALS: "Dict[float, str]" = {
    float(2 ** 10): "KB",
    float(2 ** 20): "MB",
    float(2 ** 30): "GB",
    float(2 ** 40): "TB",
    float(2 ** 50): "PB",
}

#: ``base ** exponent`` byte powers -> the constant to use.
POWER_LITERALS: "Dict[tuple, str]" = {
    (2.0, 10.0): "KB",
    (2.0, 20.0): "MB",
    (2.0, 30.0): "GB",
    (2.0, 40.0): "TB",
    (2.0, 50.0): "PB",
    (10.0, 3.0): "KB_DEC",
    (10.0, 6.0): "MB_DEC",
    (10.0, 9.0): "GB_DEC",
    (10.0, 12.0): "TB_DEC",
}

_BROAD_NAMES = ("Exception", "BaseException")


def _numeric(node: ast.AST) -> Optional[float]:
    """The float value of a non-bool numeric Constant, else None."""
    if not isinstance(node, ast.Constant):
        return None
    value = node.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _broad_handler_name(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad class a handler catches, or None for a narrow one."""
    if handler.type is None:
        return "everything (bare except)"
    nodes: "List[ast.expr]" = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
            return node.id
        # The dotted spelling (`except builtins.BaseException:`) is the
        # same handler wearing a costume.
        if isinstance(node, ast.Attribute) and node.attr in _BROAD_NAMES:
            return node.attr
    return None


class _Checker(ast.NodeVisitor):
    """One file's worth of UNI/EXC findings."""

    def __init__(self, source: SourceFile, report: Report) -> None:
        self.source = source
        self.report = report

    def _allowed(self, line: int, *pragmas: str) -> bool:
        """Does ``line`` carry one of ``pragmas``?"""
        return any(line in self.source.pragma_lines(pragma) for pragma in pragmas)

    def _emit(
        self, code: str, message: str, hint: str, node: ast.AST
    ) -> None:
        self.report.add(self.source, code, message, hint, node)

    # -- UNI001/UNI002: raw magnitudes ---------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        value = _numeric(node)
        if value is None:
            return
        if self._allowed(node.lineno, RAW_UNIT_PRAGMA):
            return
        if value in TIME_LITERALS:
            constant = TIME_LITERALS[value]
            self._emit(
                "UNI001",
                f"raw time magnitude {node.value!r} (that's "
                f"repro.units.{constant})",
                f"use units.{constant}, or pragma the line with "
                f"`# {RAW_UNIT_PRAGMA}`",
                node,
            )
        elif value in BYTE_LITERALS:
            constant = BYTE_LITERALS[value]
            self._emit(
                "UNI002",
                f"raw byte magnitude {node.value!r} (that's "
                f"repro.units.{constant})",
                f"use units.{constant}, or pragma the line with "
                f"`# {RAW_UNIT_PRAGMA}`",
                node,
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Pow):
            base = _numeric(node.left)
            exponent = _numeric(node.right)
            if (
                base is not None
                and exponent is not None
                and (base, exponent) in POWER_LITERALS
                and not self._allowed(node.lineno, RAW_UNIT_PRAGMA)
            ):
                constant = POWER_LITERALS[(base, exponent)]
                self._emit(
                    "UNI002",
                    f"raw byte power {int(base)}**{int(exponent)} "
                    f"(that's repro.units.{constant})",
                    f"use units.{constant}, or pragma the line with "
                    f"`# {RAW_UNIT_PRAGMA}`",
                    node,
                )
                return  # the operands are part of the flagged power
        self.generic_visit(node)

    # -- EXC001: broad handlers ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = _broad_handler_name(node)
        if broad is not None and not self._allowed(
            node.lineno, BROAD_EXCEPT_PRAGMA, EXN_FAMILY_PRAGMA
        ):
            self._emit(
                "EXC001",
                f"broad exception handler catches {broad}: genuine bugs "
                "are swallowed with the expected failures",
                "narrow to the exceptions the contract names, or mark a "
                f"deliberate boundary with `# {BROAD_EXCEPT_PRAGMA}` "
                "plus a comment stating the contract",
                node,
            )
        self.generic_visit(node)


def lint_paths(sources: "Sequence[SourceFile]") -> "List[Diagnostic]":
    """The UNI/EXC pass over loaded sources, in file order."""
    report = Report(CODE_RULES, unique=False)
    for source in analyzed(sources, ALLOWLIST, "codelint"):
        _Checker(source, report).visit(source.tree)
    return report.finish()
