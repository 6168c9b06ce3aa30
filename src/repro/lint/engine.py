"""The design-lint engine: lint built objects, spec dicts, or spec files.

Three entry points, from lowest to highest level:

* :func:`lint_design` — run the design rules over already-built
  framework objects (what the optimizer uses to prune candidates).
* :func:`lint_spec` — build the objects from a spec dictionary (the
  same shape ``repro evaluate`` accepts) and lint them; a spec that
  does not build yields a ``DEP000`` error instead of an exception,
  and the raw dictionary is handed to the spec-structure rules either
  way.
* :func:`lint_file` / :func:`lint_files` — load JSON spec files and
  attribute every diagnostic to its file.

This module deliberately sits *above* the rule registry: importing
:mod:`repro.lint` (which ``core.validate`` does for its adapter) never
pulls in serialization or the case-study catalog — only the CLI and
engine users pay for those imports.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Mapping, Optional, Sequence

from ..obs import get_metrics, get_tracer
from . import rules as _rules  # noqa: F401  (registers the DEP rules)
from .diagnostics import Diagnostic
from .registry import RuleContext, make, run_rules


def _record_reported(diagnostics: "Iterable[Diagnostic]") -> None:
    """Count the diagnostics actually reported, per severity.

    Emitted here — after ``lint.expect`` suppression, including the
    engine-made DEP000/DEP099 findings — so ``lint.diagnostics.<sev>``
    always agrees with what the user sees, the way ``evaluate``'s
    metrics reflect its outputs.
    """
    metrics = get_metrics()
    for diagnostic in diagnostics:
        metrics.inc(f"lint.diagnostics.{diagnostic.severity.value}")


def lint_design(
    design: Any,
    workload: Any = None,
    scenarios: "Iterable[Any]" = (),
    requirements: Any = None,
    spec: "Optional[Mapping[str, Any]]" = None,
    codes: "Optional[Sequence[str]]" = None,
) -> "List[Diagnostic]":
    """Run the design rules over built framework objects."""
    context = RuleContext(
        design=design,
        workload=workload,
        scenarios=tuple(scenarios),
        requirements=requirements,
        spec=spec,
    )
    return run_rules(context, codes)


def lint_spec(spec: "Mapping[str, Any]") -> "List[Diagnostic]":
    """Build a spec dictionary's objects and lint the result.

    Each part of the spec (workload, design, scenarios, requirements,
    ensemble) is built independently, so a broken design still lets
    the scenario rules run; every part that fails to build becomes a
    ``DEP000`` error carrying the builder's message.  The raw dictionary is passed
    through to the spec-structure rules (DEP008/DEP009) regardless.
    """
    from ..casestudy import case_study_requirements
    from ..exceptions import ReproError
    from ..serialization import (
        design_from_spec,
        ensemble_from_spec,
        requirements_from_spec,
        scenario_from_spec,
        scenarios_from_spec,
        workload_from_spec,
    )

    build_failures: "List[Diagnostic]" = []

    def build(pointer: str, builder: Any) -> Any:
        try:
            return builder()
        except ReproError as exc:
            build_failures.append(
                make(
                    "DEP000",
                    f"spec does not build: {exc}",
                    hint="fix the spec before linting deeper properties",
                    pointer=pointer,
                )
            )
            return None

    workload = build(
        "/workload", lambda: workload_from_spec(spec.get("workload", "cello"))
    )
    design = build(
        "/design", lambda: design_from_spec(spec.get("design", "baseline"))
    )
    scenario_specs = spec.get("scenarios", [])
    scenarios = []
    if not isinstance(scenario_specs, list):
        build("/scenarios", lambda: scenarios_from_spec(scenario_specs))
        scenario_specs = []
    for index, scenario_spec in enumerate(scenario_specs):
        scenario = build(
            f"/scenarios/{index}", lambda s=scenario_spec: scenario_from_spec(s)
        )
        if scenario is not None:
            scenarios.append(scenario)
    if "requirements" in spec:
        requirements = build(
            "/requirements",
            lambda: requirements_from_spec(spec["requirements"]),
        )
    else:
        requirements = case_study_requirements()
    if "ensemble" in spec:
        # No rule reads the built ensemble; building it reports the
        # same errors ``repro risk`` exits 2 on.
        build("/ensemble", lambda: ensemble_from_spec(spec["ensemble"]))

    diagnostics = build_failures + lint_design(
        design,
        workload=workload,
        scenarios=scenarios,
        requirements=requirements,
        spec=spec,
    )
    return _apply_expectations(spec, diagnostics)


def _apply_expectations(
    spec: "Mapping[str, Any]", diagnostics: "List[Diagnostic]"
) -> "List[Diagnostic]":
    """Suppress the spec's documented expected diagnostics.

    A spec may declare ``"lint": {"expect": ["DEP003"]}`` for known,
    deliberate findings (e.g. the paper's own baseline carries the
    DEP003 vault-hold warning by design).  Expected codes are dropped
    from the report; an expected code that no longer fires is itself
    reported (``DEP099``) so stale suppressions cannot linger.
    """
    section = spec.get("lint")
    if not isinstance(section, Mapping):
        return diagnostics
    raw = section.get("expect", [])
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        return diagnostics
    expected = [str(code) for code in raw]
    if not expected:
        return diagnostics
    fired = {d.code for d in diagnostics}
    kept = [d for d in diagnostics if d.code not in expected]
    for code in expected:
        if code not in fired:
            kept.append(
                make(
                    "DEP099",
                    f"expected diagnostic {code} did not fire: remove it "
                    "from lint.expect",
                    hint="delete the stale entry",
                    pointer="/lint/expect",
                )
            )
    return kept


def lint_file(path: str) -> "List[Diagnostic]":
    """Lint one JSON spec file; diagnostics carry the file path.

    The ``lint.files`` counter and per-severity
    ``lint.diagnostics.<severity>`` counters cover the file's final
    reported diagnostics (JSON failures included).
    """
    tracer = get_tracer()
    with tracer.span("lint.file", path=path):
        get_metrics().inc("lint.files")
        try:
            with open(path) as handle:
                spec = json.load(handle)
        except OSError as exc:
            diagnostics = [
                make(
                    "DEP000",
                    f"spec file is unreadable: {exc}",
                    hint="check the path and permissions",
                ).with_file(path)
            ]
        except json.JSONDecodeError as exc:
            diagnostics = [
                make(
                    "DEP000",
                    f"spec is not valid JSON: {exc}",
                    hint="fix the JSON syntax",
                ).with_file(path)
            ]
        else:
            if not isinstance(spec, Mapping):
                diagnostics = [
                    make(
                        "DEP000",
                        "spec must be a JSON object with workload/design/"
                        "scenarios/requirements keys",
                    ).with_file(path)
                ]
            else:
                diagnostics = [d.with_file(path) for d in lint_spec(spec)]
        _record_reported(diagnostics)
        return diagnostics


def lint_files(paths: "Sequence[str]") -> "List[Diagnostic]":
    """Lint several spec files, concatenating their diagnostics."""
    diagnostics: "List[Diagnostic]" = []
    for path in paths:
        diagnostics.extend(lint_file(path))
    return diagnostics
