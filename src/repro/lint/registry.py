"""The design-rule registry: ``@rule`` declarations and the runner.

Every design rule is a function from a :class:`RuleContext` to an
iterable of :class:`~repro.lint.diagnostics.Diagnostic` objects,
declared with the :func:`rule` decorator::

    @rule("DEP004", Severity.ERROR, "placement")
    def spof_scope(ctx):
        '''All RP copies share one failure scope.'''
        ...

Rules are pure queries: they never mutate the design and never
evaluate.
:func:`run_rules` executes a selected (or every) rule against a context,
emitting the ``lint.rules_run`` metric and a ``lint.rules`` tracer span
through :mod:`repro.obs`.  Per-severity ``lint.diagnostics.<severity>``
counters are emitted by the engine over the *reported* set (after
``lint.expect`` suppression), so the metrics always match the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import get_metrics, get_tracer
from ..techniques.facts import FactsTable
from .diagnostics import Diagnostic, LintError, Severity

RuleFunction = Callable[["RuleContext"], Iterable[Diagnostic]]


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: code, defaults, and the check function.

    ``function`` is None for pseudo-rules (codes that only name a
    diagnostic family the engine emits itself, e.g. ``DEP000`` for
    unbuildable specs) — they appear in the rule table and SARIF
    metadata but are never "run".
    """

    code: str
    severity: Severity
    category: str
    summary: str
    function: Optional[RuleFunction] = None


#: Every registered rule, keyed by code, in registration order.
RULES: "Dict[str, RuleInfo]" = {}


@dataclass
class RuleContext:
    """Everything a design rule may look at.

    All fields are optional: rules guard on what they need and emit
    nothing when their inputs are absent.  ``spec`` is the raw JSON
    dictionary when linting a spec file (spec-structure rules use it);
    the rest are built framework objects.  ``facts`` is the technique
    facts table the timeline rules read; callers evaluating many
    designs pass a shared one, everyone else gets a fresh table.
    """

    design: Optional[Any] = None  # StorageDesign
    workload: Optional[Any] = None  # Workload
    scenarios: "Tuple[Any, ...]" = ()  # FailureScenario, ...
    requirements: Optional[Any] = None  # BusinessRequirements
    spec: "Optional[Mapping[str, Any]]" = None
    facts: FactsTable = field(default_factory=FactsTable)


def rule(
    code: str, severity: Severity, category: str
) -> "Callable[[RuleFunction], RuleFunction]":
    """Register a design rule under a stable ``DEP###`` code.

    The decorated function's docstring first line becomes the rule's
    summary in the rule table and SARIF metadata.
    """

    def decorator(function: RuleFunction) -> RuleFunction:
        if code in RULES:
            raise LintError(f"duplicate rule code {code!r}")
        summary = (function.__doc__ or "").strip().splitlines()[0] if function.__doc__ else ""
        RULES[code] = RuleInfo(
            code=code,
            severity=severity,
            category=category,
            summary=summary,
            function=function,
        )
        return function

    return decorator


def register_code(
    code: str, severity: Severity, category: str, summary: str
) -> None:
    """Register a pseudo-rule code (no check function) for the table."""
    if code in RULES:
        raise LintError(f"duplicate rule code {code!r}")
    RULES[code] = RuleInfo(
        code=code, severity=severity, category=category, summary=summary
    )


def make(code: str, message: str, hint: str = "", pointer: str = "") -> Diagnostic:
    """Build a diagnostic with the registered defaults of ``code``."""
    try:
        info = RULES[code]
    except KeyError:
        raise LintError(f"unknown rule code {code!r}") from None
    return Diagnostic(
        code=code,
        severity=info.severity,
        message=message,
        hint=hint,
        category=info.category,
        source="design",
        pointer=pointer,
    )


def run_rules(
    context: RuleContext,
    codes: "Optional[Sequence[str]]" = None,
) -> "List[Diagnostic]":
    """Run the selected rules (default: every registered rule) in order.

    ``codes`` preserves its order, so callers that adapt diagnostics to
    a legacy report (``validate_design``) control message ordering.
    """
    if codes is None:
        selected = [info for info in RULES.values() if info.function is not None]
    else:
        selected = []
        for code in codes:
            try:
                info = RULES[code]
            except KeyError:
                raise LintError(f"unknown rule code {code!r}") from None
            if info.function is not None:
                selected.append(info)
    tracer = get_tracer()
    metrics = get_metrics()
    diagnostics: "List[Diagnostic]" = []
    with tracer.span("lint.rules", rules=len(selected)) as span:
        for info in selected:
            assert info.function is not None  # filtered above
            metrics.inc("lint.rules_run")
            diagnostics.extend(info.function(context))
        span.set(diagnostics=len(diagnostics))
    return diagnostics
