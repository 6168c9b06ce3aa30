"""Design-level validation of the paper's parameter conventions (§3.2.1).

Technique-local constraints (positive windows, ``propW <= accW``) are
enforced at construction; this module checks the *inter-level*
conventions:

1. lower (slower) levels retain at least as many RPs:
   ``retCnt_{i+1} >= retCnt_i``;
2. lower levels accumulate over at least a full cycle of the level
   above: ``accW_{i+1} >= cyclePer_i``;
3. a level's hold window should not exceed the next level's retention
   window, or it forces extra retention capacity on the devices
   providing the level (the vaulting extra-copy rule is the concrete
   instance).

Violations of 1–2 are structural errors; 3 is reported as a warning
(the framework models its capacity consequence rather than forbidding
it).  Workload-dependent checks are delegated to each technique's
``validate``.

The checks themselves live in :mod:`repro.lint.rules` as rules
``DEP001``–``DEP003`` (plus ``DEP013`` for the structural ones);
:func:`validate_design` is a thin adapter that renders their
diagnostics back to this module's historical string API.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..exceptions import DesignError, ReproError
from ..lint.diagnostics import Diagnostic, Severity
from ..lint.registry import RuleContext, run_rules
from ..techniques.facts import FactsTable
from ..workload.spec import Workload
from .hierarchy import StorageDesign

#: The rules validate_design adapts over, and their historical report
#: order: structure first, then the §3.2.1 conventions per level.
_VALIDATE_CODES = ("DEP013", "DEP001", "DEP002", "DEP003")

_LEVEL_POINTER = re.compile(r"^/levels/(\d+)")


def _report_key(diagnostic: Diagnostic) -> "Tuple[int, int, str]":
    """Historical report order: structure first, then by level, by check."""
    match = _LEVEL_POINTER.match(diagnostic.pointer)
    level = int(match.group(1)) if match else -1
    return (0 if diagnostic.code == "DEP013" else 1, level, diagnostic.code)


def validate_design(
    design: StorageDesign,
    workload: Optional[Workload] = None,
    strict: bool = True,
    facts: Optional[FactsTable] = None,
) -> List[str]:
    """Check the design's structure and conventions.

    Returns the list of warnings; raises
    :class:`~repro.exceptions.DesignError` on hard violations when
    ``strict`` (the default).  The timeline checks read technique facts
    from ``facts`` (a fresh table when not given).
    """
    context = RuleContext(
        design=design,
        workload=workload,
        facts=FactsTable() if facts is None else facts,
    )
    diagnostics = sorted(
        run_rules(context, codes=_VALIDATE_CODES), key=_report_key
    )
    warnings = [
        d.message for d in diagnostics if d.severity is not Severity.ERROR
    ]
    errors = [
        d.message for d in diagnostics if d.severity is Severity.ERROR
    ]

    if workload is not None:
        for level in design.levels:
            try:
                level.technique.validate(workload)
            # Reporting boundary: every modeling error a technique's
            # validate raises is a ReproError; all are collected so the
            # caller sees every level's problem in one report.  Anything
            # else is a programming mistake and must propagate.
            except ReproError as exc:
                errors.append(f"level {level.index}: {exc}")

    if errors and strict:
        raise DesignError(
            f"design {design.name!r} is invalid:\n  - " + "\n  - ".join(errors)
        )
    return warnings + errors
