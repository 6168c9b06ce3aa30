"""The code analyzers' one front end: find, read, parse, collect pragmas.

:func:`load_paths` walks the Python targets of one ``repro lint`` run,
reads and ``ast.parse``\\ s each file once, and returns
:class:`SourceFile` records.  The four code passes —
:mod:`~repro.lint.codelint`, :mod:`~repro.lint.dimcheck`,
:mod:`~repro.lint.parcheck` and :mod:`~repro.lint.exncheck` — each run
over that shared list.  No pass mutates a tree; the interprocedural
passes build their own symbol tables and call edges from it.

A pragma is ``lint: allow-<family>`` (or the ``lint: worker-boundary``
marker) inside a ``#`` comment; the same text in a string literal or a
docstring is not a pragma.  Only files whose text contains ``lint: ``
are tokenized to find their comments, and only from the top-level
statement holding the first such line to the last one.

:class:`Report` is the passes' shared emitter: it drops a finding whose
node spans a line carrying the pass's pragma, and reports the pragmas
that suppressed nothing as stale.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..obs import get_metrics
from .diagnostics import Diagnostic, LintError
from .registry import RuleInfo

#: One pragma in a comment; the whole match names its family.
PRAGMA = re.compile(r"lint: (?:allow-[a-z]+(?:-[a-z]+)*|worker-boundary)")


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file and its pragma comments by family."""

    filename: str
    tree: ast.Module
    pragmas: "Mapping[str, FrozenSet[int]]"

    def pragma_lines(self, family: str) -> "FrozenSet[int]":
        """The lines whose comment carries the ``family`` pragma."""
        return self.pragmas.get(family, frozenset())

    def matches(self, suffixes: "Sequence[str]") -> bool:
        """Does the path end with one of ``suffixes`` (an allowlist)?"""
        normalized = self.filename.replace(os.sep, "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)


def _comment_pragmas(
    filename: str, text: str, tree: ast.Module
) -> "Dict[str, FrozenSet[int]]":
    marked = [
        number for number, line in enumerate(text.split("\n"), 1) if "lint: " in line
    ]
    if not marked:
        return {}
    # Tokenize only from the top-level statement holding the first
    # candidate line to the last candidate line: a line that starts
    # with a top-level statement is never inside a string.
    start = 1
    for node in tree.body:
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        if first > marked[0]:
            break
        if node.col_offset == 0:
            start = first
    stream = io.StringIO(text)
    for _ in range(start - 1):
        stream.readline()
    found: "Dict[str, Set[int]]" = {}
    try:
        for token in tokenize.generate_tokens(stream.readline):
            row = token.start[0] + start - 1
            if row > marked[-1]:
                break
            if token.type == tokenize.COMMENT:
                for family in PRAGMA.findall(token.string):
                    found.setdefault(family, set()).add(row)
    except (tokenize.TokenError, SyntaxError) as exc:
        raise LintError(f"{filename}: cannot tokenize: {exc}") from None
    return {family: frozenset(lines) for family, lines in found.items()}


def load_source(filename: str, text: str) -> SourceFile:
    """Parse one Python source text; a syntax error is a :class:`LintError`."""
    try:
        tree = ast.parse(text, filename=filename)
    except SyntaxError as exc:
        raise LintError(
            f"{filename}:{exc.lineno}: syntax error: {exc.msg}"
        ) from None
    except ValueError as exc:
        raise LintError(f"{filename}: cannot parse: {exc}") from None
    return SourceFile(filename, tree, _comment_pragmas(filename, text, tree))


def _python_files(path: str) -> "List[str]":
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise LintError(f"{path}: no such file or directory")
    found: "List[str]" = []
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found.extend(
            os.path.join(root, name) for name in sorted(files) if name.endswith(".py")
        )
    return found


def load_paths(paths: "Sequence[str]") -> "List[SourceFile]":
    """Read and parse every Python file under ``paths``, once each.

    A missing path, an unreadable file or a syntax error raises
    :class:`LintError` naming the file, never a silent skip.
    """
    sources: "List[SourceFile]" = []
    for path in paths:
        for filename in _python_files(path):
            try:
                with open(filename, encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise LintError(f"{filename}: unreadable: {exc}") from None
            sources.append(load_source(filename, text))
    return sources


def analyzed(
    sources: "Sequence[SourceFile]", allowlist: "Sequence[str]", name: str
) -> "List[SourceFile]":
    """The sources pass ``name`` analyzes: all but its allowlisted files.

    Counts them in the ``lint.<name>.files`` metric.
    """
    kept = [source for source in sources if not source.matches(allowlist)]
    get_metrics().inc(f"lint.{name}.files", len(kept))
    return kept


class Report:
    """One pass's findings, pragma suppression and stale pragmas.

    ``family`` is the pass's pragma and ``stale_code`` the rule that
    reports an unused one; ``unique`` drops a finding equal to an
    earlier one in file, line, code and message.
    """

    def __init__(
        self,
        rules: "Mapping[str, RuleInfo]",
        family: str = "",
        stale_code: str = "",
        unique: bool = True,
    ) -> None:
        self.rules = rules
        self.family = family
        self.stale_code = stale_code
        self.unique = unique
        self.findings: "List[Diagnostic]" = []
        self._used: "Dict[str, Set[int]]" = {}
        self._seen: "Set[Tuple[str, Optional[int], str, str]]" = set()

    def emit(
        self, source: SourceFile, code: str, message: str, hint: str, node: ast.AST
    ) -> None:
        """Report a finding unless a pragma sits on one of the node's lines."""
        first = getattr(node, "lineno", None)
        if first is not None:
            last = getattr(node, "end_lineno", None) or first
            covered = source.pragma_lines(self.family).intersection(
                range(first, last + 1)
            )
            if covered:
                self._used.setdefault(source.filename, set()).update(covered)
                return
        self.add(source, code, message, hint, node)

    def add(
        self,
        source: SourceFile,
        code: str,
        message: str,
        hint: str,
        node: "Optional[ast.AST]",
        line: "Optional[int]" = None,
    ) -> None:
        """Report a finding without consulting pragmas."""
        if node is not None:
            line = getattr(node, "lineno", None)
        key = (source.filename, line, code, message)
        if self.unique and key in self._seen:
            return
        self._seen.add(key)
        info = self.rules[code]
        self.findings.append(
            Diagnostic(
                code=code,
                severity=info.severity,
                message=message,
                hint=hint,
                category=info.category,
                source="code",
                file=source.filename,
                line=line,
                column=getattr(node, "col_offset", None),
            )
        )

    def stale(self, source: SourceFile) -> None:
        """Report each of the file's pragmas that suppressed nothing."""
        used = self._used.get(source.filename, set())
        for line in sorted(source.pragma_lines(self.family) - used):
            self.add(
                source,
                self.stale_code,
                f"stale `# {self.family}` pragma: it no longer suppresses "
                "any diagnostic",
                "delete the pragma (the code it excused is gone)",
                None,
                line,
            )

    def finish(self) -> "List[Diagnostic]":
        """The findings, counted in ``lint.diagnostics.<severity>``."""
        metrics = get_metrics()
        for finding in self.findings:
            metrics.inc(f"lint.diagnostics.{finding.severity.value}")
        return self.findings
