"""The umbrella linter: every analyzer, one pass, one exit code.

``repro lint [all] TARGET...`` runs it.  Targets ending in ``.json``
are linted as design specs (the ``DEP###`` rules via
:mod:`repro.lint.engine`); every other target is a Python file or
tree.  :func:`~repro.lint.loader.load_paths` reads and parses those
once, and the four code passes run over the loaded sources —
:mod:`repro.lint.codelint` (``UNI``/``EXC``),
:mod:`repro.lint.dimcheck` (``DIM``), :mod:`repro.lint.parcheck`
(``PAR``) and :mod:`repro.lint.exncheck` (``EXN``) — as one merged
report: one SARIF/JSON document, one exit code.

``--max-pragmas N`` applies the budget to each pass's own pragma
(``allow-raw-unit``, ``allow-dim``, ``allow-par``, ``allow-exn``)
individually, counting only comments in the files that pass analyzes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic
from .registry import RuleInfo

if TYPE_CHECKING:
    from .loader import SourceFile

#: The trees a bare ``repro lint all`` checks.  Examples and benchmarks
#: import :mod:`repro.units` and carry the same risks as the library.
DEFAULT_PATHS = ("src/", "examples/", "benchmarks/")


def split_targets(
    targets: "Sequence[str]",
) -> "Tuple[List[str], List[str]]":
    """``(specs, paths)``: ``.json`` targets are design specs, the
    rest are Python files/trees."""
    specs = [target for target in targets if target.endswith(".json")]
    paths = [target for target in targets if not target.endswith(".json")]
    return specs, paths


def pragma_budget(
    sources: "Sequence[SourceFile]",
    pragma: str,
    allowlist: "Sequence[str]",
    rule: RuleInfo,
    hint: str,
    max_pragmas: int,
) -> "List[Diagnostic]":
    """The budget finding when a pass's pragmas outnumber ``max_pragmas``."""
    count = sum(
        len(source.pragma_lines(pragma))
        for source in sources
        if not source.matches(allowlist)
    )
    if count <= max_pragmas:
        return []
    return [
        Diagnostic(
            code=rule.code,
            severity=rule.severity,
            message=(
                f"{count} `# {pragma}` pragmas in the tree, over the budget "
                f"of {max_pragmas}: the escape hatch is becoming the norm"
            ),
            hint=f"{hint} (or raise the budget deliberately)",
            category=rule.category,
            source="code",
        )
    ]


def lint_targets(
    specs: "Sequence[str]",
    paths: "Sequence[str]",
    max_pragmas: Optional[int] = None,
) -> "List[Diagnostic]":
    """Run every applicable analyzer over the targets, merged."""
    findings: "List[Diagnostic]" = []
    if specs:
        from . import engine

        findings.extend(engine.lint_files(list(specs)))
    if paths:
        # Imported here, not at module level: a process that never
        # lints Python (a sweep, a risk run) never loads the passes.
        from . import codelint, dimcheck, exncheck, parcheck
        from .loader import load_paths

        # The passes in report order, each with its pragma, the files
        # it skips, and its budget rule with that rule's fix-it hint.
        passes = (
            (
                codelint,
                codelint.RAW_UNIT_PRAGMA,
                codelint.ALLOWLIST,
                codelint.CODE_RULES["UNI003"],
                "convert pragma'd literals to repro.units constants",
            ),
            (
                dimcheck,
                dimcheck.ALLOW_DIM_PRAGMA,
                dimcheck.ALLOWLIST,
                dimcheck.DIM_RULES["DIM004"],
                "fix the pragma'd expressions",
            ),
            (
                parcheck,
                parcheck.ALLOW_PAR_PRAGMA,
                parcheck.ALLOWLIST,
                parcheck.PAR_RULES["PAR006"],
                "fix the pragma'd sites",
            ),
            (
                exncheck,
                exncheck.ALLOW_EXN_PRAGMA,
                exncheck.ALLOWLIST,
                exncheck.EXN_RULES["EXN006"],
                "fix the pragma'd sites",
            ),
        )
        sources = load_paths(paths)
        for module, pragma, allowlist, rule, hint in passes:
            findings.extend(module.lint_paths(sources))
            if max_pragmas is not None:
                findings.extend(
                    pragma_budget(
                        sources, pragma, allowlist, rule, hint, max_pragmas
                    )
                )
    return findings
