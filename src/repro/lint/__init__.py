"""Static analysis for designs and code (no evaluation involved).

Five analyzers share one :class:`~repro.lint.diagnostics.Diagnostic`
model, and ``repro lint [all] TARGET...`` runs them all as one merged
report with one exit code: ``.json`` targets get the design rules,
every other target is a Python file or tree for the four code passes
(:mod:`repro.lint.allcheck`).

* **Design lint** — ``DEP###`` rules over a
  :class:`~repro.core.hierarchy.StorageDesign` + workload + scenarios +
  requirements (and the raw spec dictionary, for structure rules).  Run
  them with :func:`~repro.lint.engine.lint_design` /
  ``lint_spec`` / ``lint_file`` from :mod:`repro.lint.engine`.
* **Code lint** — ``UNI###``/``EXC###`` AST rules over Python source
  (:mod:`repro.lint.codelint`).
* **Dimension check** — ``DIM###`` dimensional dataflow analysis
  (:mod:`repro.lint.dimcheck`): a flow-sensitive abstract interpreter
  inferring bytes/seconds/$ for every expression and flagging
  mismatched arithmetic, arguments and returns.
* **Parallel-safety check** — ``PAR###`` interprocedural effect
  inference (:mod:`repro.lint.parcheck`): a project-wide call graph
  anchored at pool-submission worker boundaries and lock-disciplined
  shared state, flagging nondeterminism, global mutation/I-O,
  order-dependent set iteration, lock-discipline violations and
  pickle-hostile payloads.
* **Exception-flow check** — ``EXN###`` interprocedural escape-set
  analysis (:mod:`repro.lint.exncheck`): a fixpoint over the same call
  graph computing which exception types can escape each function,
  flagging unpicklable worker-reachable errors, broad handlers that
  absorb :class:`~repro.exceptions.ReproError`, non-framework leaks
  from the public API, provably dead handlers and chain-dropping
  re-raises.

The four code passes share one front end, :mod:`repro.lint.loader`:
each target file is read and parsed once per run, and ``# lint:
allow-*`` pragmas are recognised only in comments.  The two
interprocedural passes share the project model in
:mod:`repro.lint.callgraph`.

This package root intentionally imports only the registry, the rules
and the renderers — never :mod:`repro.lint.engine` — so that
``core.validate`` can adapt over the DEP rules without dragging in
serialization or the case-study catalog (and without import cycles).
"""

from . import rules  # noqa: F401  (registers the DEP rule table)
from .diagnostics import (
    Diagnostic,
    LintError,
    Severity,
    diagnostic_from_dict,
    exit_code,
    max_severity,
)
from .output import (
    FORMATS,
    diagnostics_from_json,
    diagnostics_from_sarif,
    render,
    render_human,
    render_json,
    render_sarif,
    rule_table,
)
from .registry import RULES, RuleContext, RuleInfo, make, rule, run_rules

__all__ = [
    "Diagnostic",
    "LintError",
    "Severity",
    "diagnostic_from_dict",
    "exit_code",
    "max_severity",
    "FORMATS",
    "diagnostics_from_json",
    "diagnostics_from_sarif",
    "render",
    "render_human",
    "render_json",
    "render_sarif",
    "rule_table",
    "RULES",
    "RuleContext",
    "RuleInfo",
    "make",
    "rule",
    "run_rules",
]
