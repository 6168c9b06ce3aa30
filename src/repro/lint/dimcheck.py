"""Dimensional dataflow analysis: a units typechecker for the pipeline.

Everything the framework computes — utilization, recovery time, data
loss, cost (Keeton & Merchant section 3) — is arithmetic over quantities
in four physical dimensions: bytes, seconds, bytes/s and dollars.  The
code linter's ``UNI001``/``UNI002`` rules catch raw magnitude
*literals*, but they cannot see ``retention + capacity`` or a duration
passed where a rate is expected.  This module closes that gap with a
flow-sensitive abstract interpreter over the Python AST that infers the
:class:`~repro.units.Dimension` of every expression and reports
mismatches.

The lattice is seeded from three sources:

* the :data:`repro.units.DIMENSIONS` table — an expression multiplying
  by ``GB`` carries bytes, one multiplying by ``HOUR`` carries seconds
  (binary vs decimal size constants additionally carry a *convention*
  marker so ``GB + GB_DEC`` style mixing is flagged);
* parameter and return annotations using the ``Seconds``/``Bytes``/...
  aliases from :mod:`repro.units` (and well-known parameter names such
  as ``window`` or ``size_bytes``);
* a stub table for the core API surface (``Workload.avg_update_rate``
  is bytes/s, ``batch_update_rate(window)`` takes seconds and returns
  bytes/s, penalty *rates* are $/s while penalty *amounts* are $).

Dimensions propagate through assignments, arithmetic, calls and
returns: ``SIZE / TIME`` is ``RATE``, ``RATE * TIME`` is ``SIZE``,
``MONEY/TIME * TIME`` is ``MONEY`` — and ``SIZE + TIME`` is an error.
Plain numeric literals are *weakly* dimensionless (a scalar like
``4 * HOUR`` or ``duration + 5`` never trips the checker); only two
*strongly*-known, disagreeing dimensions are reported.  Unknown
dimensions propagate silently, so the checker is conservative: no
diagnostic without two independently-seeded facts that contradict.

Rules (sharing the :class:`~repro.lint.diagnostics.Diagnostic` model):

``DIM001`` (error)
    Dimension-mismatched arithmetic (``SIZE + TIME``), including
    binary/decimal convention mixing in additive expressions.
``DIM002`` (error)
    An argument or assigned value whose dimension disagrees with the
    stub table or an annotation.
``DIM003`` (error)
    A return value whose dimension disagrees with the declared (or
    stubbed) return dimension.
``DIM004`` (error)
    The ``# lint: allow-dim`` pragma budget is exceeded.
``DIM099`` (warning)
    A stale ``# lint: allow-dim`` pragma that suppresses nothing.

The pragma ``# lint: allow-dim`` on the flagged line suppresses
DIM001–DIM003 (use it only with a comment stating the dimensional
contract the checker cannot see); ``--max-pragmas`` budgets the total
so the escape hatch cannot quietly become the norm (CI pins it at 3).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..units import (
    ANNOTATION_DIMENSIONS,
    DECIMAL_SIZE_CONSTANTS,
    DIMENSIONLESS,
    DIMENSIONS,
    FREQUENCY,
    MONEY,
    MONEY_RATE,
    RATE,
    SIZE,
    TIME,
    Dimension,
)
from .diagnostics import Diagnostic, Severity
from .loader import Report, SourceFile, analyzed
from .registry import RuleInfo

#: The dimension-rule table, merged into SARIF metadata and the
#: documented rule table by ``output.all_rule_infos``.
DIM_RULES: "Dict[str, RuleInfo]" = {
    info.code: info
    for info in (
        RuleInfo(
            "DIM001",
            Severity.ERROR,
            "dimensions",
            "Dimension-mismatched arithmetic (e.g. bytes + seconds).",
        ),
        RuleInfo(
            "DIM002",
            Severity.ERROR,
            "dimensions",
            "Argument or assigned value disagrees with the declared dimension.",
        ),
        RuleInfo(
            "DIM003",
            Severity.ERROR,
            "dimensions",
            "Return dimension disagrees with the declaration.",
        ),
        RuleInfo(
            "DIM004",
            Severity.ERROR,
            "dimensions",
            "allow-dim pragma budget exceeded.",
        ),
        RuleInfo(
            "DIM099",
            Severity.WARNING,
            "dimensions",
            "Stale allow-dim pragma that no longer suppresses anything.",
        ),
    )
}

ALLOW_DIM_PRAGMA = "lint: allow-dim"

#: Files the checker never applies to: the module that *defines* the
#: dimension vocabulary, and this analyzer itself.
ALLOWLIST = ("repro/units.py", "repro/lint/dimcheck.py")

_DECIMAL_NAMES = frozenset(DECIMAL_SIZE_CONSTANTS)


# ---------------------------------------------------------------------------
# The abstract value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimValue:
    """The abstract dimension of one expression.

    ``dim is None`` is the lattice top ("unknown"); it propagates
    silently and never produces a diagnostic.  ``strong`` separates
    values traceable to a unit constant, annotation or stub (which may
    be flagged) from weakly-dimensionless literals like ``4`` (which
    combine freely with anything).  ``convention`` tracks whether a
    size was built from binary (``2**n``) or decimal (``10**n``)
    constants, so additive binary/decimal mixing can be reported even
    though both sides are dimensionally bytes.
    """

    dim: Optional[Dimension] = None
    strong: bool = False
    convention: Optional[str] = None

    @property
    def known(self) -> bool:
        return self.dim is not None


UNKNOWN = DimValue()
NUMBER = DimValue(dim=DIMENSIONLESS, strong=False)


def unit_value(name: str) -> DimValue:
    """The abstract value of the :mod:`repro.units` constant ``name``."""
    dim = DIMENSIONS[name]
    convention: Optional[str] = None
    if dim == SIZE:
        convention = "decimal" if name in _DECIMAL_NAMES else "binary"
    return DimValue(dim=dim, strong=True, convention=convention)


def _merge_convention(left: DimValue, right: DimValue) -> Optional[str]:
    if left.convention == right.convention:
        return left.convention
    if left.convention is None:
        return right.convention
    if right.convention is None:
        return left.convention
    return None


def _join_value(left: DimValue, right: DimValue) -> DimValue:
    """The join of two branches' values (agreement or unknown)."""
    if left == right:
        return left
    if left.dim is not None and left.dim == right.dim:
        return DimValue(
            dim=left.dim,
            strong=left.strong and right.strong,
            convention=_merge_convention(left, right),
        )
    return UNKNOWN


# ---------------------------------------------------------------------------
# Stub tables: the dimension vocabulary of the core API surface.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Parameter dimensions (by name, in order, `self` excluded) and
    the return dimension of one callable; ``None`` entries are
    unchecked."""

    params: "Tuple[Tuple[str, Optional[Dimension]], ...]" = ()
    returns: Optional[Dimension] = None


#: Dimension of ``x.<name>`` attribute reads (properties included).
#: Names whose meaning varies across the codebase (``start``, ``end``,
#: ``offset`` are seconds in recovery timelines but bytes in traces)
#: are deliberately absent.
ATTRIBUTE_DIMS: "Dict[str, Dimension]" = {
    # sizes
    "data_capacity": SIZE,
    "max_capacity": SIZE,
    "object_size": SIZE,
    "io_size": SIZE,
    "recovery_size": SIZE,
    # rates
    "avg_access_rate": RATE,
    "avg_update_rate": RATE,
    "peak_update_rate": RATE,
    "avg_read_rate": RATE,
    "max_bandwidth": RATE,
    # event frequencies (occurrences/s, the risk layer's 1/s family)
    "occurrence_rate": FREQUENCY,
    "secondary_rate": FREQUENCY,
    "unit_rate": FREQUENCY,
    "total_rate": FREQUENCY,
    # per-year reporting figures are plain counts (rate x YEAR)
    "rate_per_year": DIMENSIONLESS,
    # durations
    "access_delay": TIME,
    "repair_time": TIME,
    "recovery_time": TIME,
    "data_loss": TIME,
    "recent_data_loss": TIME,
    "rto": TIME,
    "rpo": TIME,
    "duration": TIME,
    "newest_age": TIME,
    "oldest_age": TIME,
    "recovery_target_age": TIME,
    "burst_period": TIME,
    "diurnal_period": TIME,
    "availability_delay": TIME,
    # engine knobs (wall-clock seconds)
    "task_timeout": TIME,
    "retry_backoff": TIME,
    # money rates ($/s) vs money amounts ($)
    "unavailability_penalty_rate": MONEY_RATE,
    "loss_penalty_rate": MONEY_RATE,
    "outage_penalty": MONEY,
    "loss_penalty": MONEY,
    "total_cost": MONEY,
}

#: Stubs for ``x.<name>(...)`` method calls, keyed by method name.
METHOD_STUBS: "Dict[str, Signature]" = {
    # Workload / BatchUpdateCurve
    "batch_update_rate": Signature((("window", TIME),), RATE),
    "unique_bytes": Signature((("window", TIME),), SIZE),
    "update_fraction": Signature((("window", TIME),), DIMENSIONLESS),
    "full_coverage_window": Signature((), TIME),
    "rate": Signature((("window", TIME),), RATE),
    "total_bytes": Signature((), SIZE),
    "written_bytes": Signature((), SIZE),
    "duration": Signature((), TIME),
    # BusinessRequirements (penalty *rates* are $/s, amounts are $)
    "outage_penalty": Signature((("recovery_time", TIME),), MONEY),
    "loss_penalty": Signature((("data_loss", TIME),), MONEY),
    "total_penalty": Signature(
        (("recovery_time", TIME), ("data_loss", TIME)), MONEY
    ),
    "meets_rto": Signature((("recovery_time", TIME),), None),
    "meets_rpo": Signature((("data_loss", TIME),), None),
    "meets_objectives": Signature(
        (("recovery_time", TIME), ("data_loss", TIME)), None
    ),
    # Device / CostModel / Interconnect
    "bandwidth_demand": Signature((("demands", None),), RATE),
    "available_bandwidth": Signature((("demands", None),), RATE),
    "capacity_demand_logical": Signature((("demands", None),), SIZE),
    "capacity_demand_raw": Signature((("demands", None),), SIZE),
    "capacity_cost": Signature((("capacity_bytes", SIZE),), MONEY),
    "bandwidth_cost": Signature((("bandwidth_bps", RATE),), MONEY),
    "transfer_time": Signature((("size_bytes", SIZE), ("demands", None)), TIME),
    # DataProtectionTechnique timeline queries
    "worst_lag": Signature((), TIME),
    "worst_spacing": Signature((), TIME),
    "retention_span": Signature((), TIME),
    "full_availability_delay": Signature((), TIME),
    "retention_window": Signature((), TIME),
    "recovery_size": Signature(
        (("workload", None), ("requested_bytes", SIZE)), SIZE
    ),
    # Risk layer (k-out-of-n redundancy, cascades)
    "effective_failure_rate": Signature((), FREQUENCY),
    "mttf": Signature((), TIME),
    "cascade_probability": Signature(
        (("recovery_time", TIME),), DIMENSIONLESS
    ),
}

#: Stubs for plain-name calls (the :mod:`repro.units` helpers).  The
#: parse helpers accept strings (unknown, unchecked) or numbers already
#: in base units — so a strong value of the *wrong* dimension is a bug.
FUNCTION_STUBS: "Dict[str, Signature]" = {
    "parse_size": Signature((("value", SIZE),), SIZE),
    "parse_rate": Signature((("value", RATE),), RATE),
    "parse_duration": Signature((("value", TIME),), TIME),
    "parse_event_rate": Signature((("value", FREQUENCY),), FREQUENCY),
    "format_size": Signature((("num_bytes", SIZE),), None),
    "format_rate": Signature((("bytes_per_sec", RATE),), None),
    "format_duration": Signature((("seconds", TIME),), None),
    "format_money": Signature((("dollars", MONEY),), None),
    "format_event_rate": Signature((("per_second", FREQUENCY),), None),
}

#: Well-known parameter names, used to seed unannotated parameters.
PARAM_NAME_DIMS: "Dict[str, Dimension]" = {
    "window": TIME,
    "duration": TIME,
    "seconds": TIME,
    "interval": TIME,
    "recovery_time": TIME,
    "data_loss": TIME,
    "num_bytes": SIZE,
    "size_bytes": SIZE,
    "capacity_bytes": SIZE,
    "requested_bytes": SIZE,
    "bytes_per_sec": RATE,
    "bandwidth_bps": RATE,
    "dollars": MONEY,
    "task_timeout": TIME,
    "retry_backoff": TIME,
    "backoff": TIME,
    "occurrence_rate": FREQUENCY,
    "unit_rate": FREQUENCY,
    "secondary_rate": FREQUENCY,
    "per_second": FREQUENCY,
    "repair_time": TIME,
    "horizon": TIME,
}

_PASSTHROUGH_BUILTINS = ("float", "int", "abs", "round")
_JOIN_BUILTINS = ("min", "max")
_MATH_PASSTHROUGH = ("ceil", "floor", "fabs", "fsum")


# ---------------------------------------------------------------------------
# The analyzer.
# ---------------------------------------------------------------------------

Env = Dict[str, DimValue]
FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class _FuncCtx:
    """Per-function analysis state: the declared return dimension."""

    name: str
    declared_return: Optional[Dimension] = None


class _FileAnalyzer:
    """One file's worth of DIM findings."""

    def __init__(self, source: SourceFile, report: Report) -> None:
        self.source = source
        self.report = report
        self.units_aliases: "Set[str]" = set()
        self.module_env: Env = {}
        self.functions: "Dict[str, Signature]" = {}
        self.methods: "Dict[str, Dict[str, Signature]]" = {}
        self._current_class: Optional[str] = None

    # -- diagnostics ---------------------------------------------------------

    def _emit(self, code: str, message: str, hint: str, node: ast.AST) -> None:
        self.report.emit(self.source, code, message, hint, node)

    # -- seeding: imports, annotations, signatures ---------------------------

    def _collect_imports(self) -> None:
        for node in self.source.syntax.imports:
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("units"):
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if alias.name in DIMENSIONS:
                            self.module_env[bound] = unit_value(alias.name)
                else:
                    for alias in node.names:
                        if alias.name == "units":
                            self.units_aliases.add(alias.asname or "units")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("units") and alias.asname:
                        self.units_aliases.add(alias.asname)

    def _annotation_dim(
        self, node: Optional[ast.expr]
    ) -> Optional[Dimension]:
        """The dimension an annotation declares, or None."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return ANNOTATION_DIMENSIONS.get(node.id)
        if isinstance(node, ast.Attribute):
            return ANNOTATION_DIMENSIONS.get(node.attr)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return ANNOTATION_DIMENSIONS.get(node.value)
        if isinstance(node, ast.Subscript):
            # Optional[Seconds] / Union[str, Seconds]: any named member.
            for child in ast.walk(node.slice):
                dim = None
                if isinstance(child, (ast.Name, ast.Attribute)):
                    dim = self._annotation_dim(child)
                if dim is not None:
                    return dim
        return None

    def _signature_of(self, node: FuncNode, method: bool) -> Signature:
        arguments = node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        if method and positional:
            positional = positional[1:]
        params: "List[Tuple[str, Optional[Dimension]]]" = []
        for arg in positional + list(arguments.kwonlyargs):
            dim = self._annotation_dim(arg.annotation)
            if dim is None:
                dim = PARAM_NAME_DIMS.get(arg.arg)
            params.append((arg.arg, dim))
        return Signature(tuple(params), self._annotation_dim(node.returns))

    def _collect_signatures(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, _FUNC_NODES):
                self.functions[node.name] = self._signature_of(node, False)
            elif isinstance(node, ast.ClassDef):
                table: "Dict[str, Signature]" = {}
                for member in node.body:
                    if isinstance(member, _FUNC_NODES):
                        table[member.name] = self._signature_of(member, True)
                self.methods[node.name] = table

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        tree = self.source.tree
        self._collect_imports()
        self._collect_signatures(tree)
        for node in tree.body:
            if not isinstance(node, (*_FUNC_NODES, ast.ClassDef)):
                self._exec(node, self.module_env, None)
        for node in tree.body:
            if isinstance(node, _FUNC_NODES):
                self._analyze_function(node, None)
            elif isinstance(node, ast.ClassDef):
                self._analyze_class(node)
        self.report.stale(self.source)

    def _is_property(self, node: FuncNode) -> bool:
        for decorator in node.decorator_list:
            name = ""
            if isinstance(decorator, ast.Name):
                name = decorator.id
            elif isinstance(decorator, ast.Attribute):
                name = decorator.attr
            if name in ("property", "cached_property"):
                return True
        return False

    def _analyze_class(self, node: ast.ClassDef) -> None:
        env: Env = dict(self.module_env)
        for member in node.body:
            if isinstance(member, _FUNC_NODES):
                self._analyze_function(member, node.name)
            elif isinstance(member, ast.ClassDef):
                self._analyze_class(member)
            elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                # dataclass field defaults are attribute declarations
                self._exec(member, env, None)
                targets = (
                    member.targets
                    if isinstance(member, ast.Assign)
                    else [member.target]
                )
                value = member.value
                if value is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self._check_declared(
                            target.id,
                            ATTRIBUTE_DIMS.get(target.id),
                            self._infer(value, env),
                            member,
                        )

    def _analyze_function(
        self, node: FuncNode, class_name: Optional[str]
    ) -> None:
        declared = self._annotation_dim(node.returns)
        if declared is None and class_name is not None:
            if self._is_property(node) and node.name in ATTRIBUTE_DIMS:
                declared = ATTRIBUTE_DIMS[node.name]
            elif node.name in METHOD_STUBS:
                declared = METHOD_STUBS[node.name].returns
        env: Env = dict(self.module_env)
        signature = self._signature_of(node, class_name is not None)
        for name, dim in signature.params:
            env[name] = DimValue(dim, strong=True) if dim else UNKNOWN
        for default in node.args.defaults + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self._infer(default, env)
        previous_class = self._current_class
        self._current_class = class_name
        try:
            ctx = _FuncCtx(name=node.name, declared_return=declared)
            self._exec_block(node.body, env, ctx)
        finally:
            self._current_class = previous_class

    # -- statements ----------------------------------------------------------

    def _exec_block(
        self, body: "Sequence[ast.stmt]", env: Env, ctx: Optional[_FuncCtx]
    ) -> None:
        for stmt in body:
            self._exec(stmt, env, ctx)

    def _exec(self, stmt: ast.stmt, env: Env, ctx: Optional[_FuncCtx]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._infer(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            declared = self._annotation_dim(stmt.annotation)
            value = (
                self._infer(stmt.value, env)
                if stmt.value is not None
                else UNKNOWN
            )
            if isinstance(stmt.target, ast.Name):
                if declared is not None:
                    self._check_declared(stmt.target.id, declared, value, stmt)
                    env[stmt.target.id] = DimValue(declared, strong=True)
                else:
                    env[stmt.target.id] = value
            elif isinstance(stmt.target, ast.Attribute):
                self._assign(stmt.target, value, env, stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self._infer(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, UNKNOWN)
                env[stmt.target.id] = self._combine(
                    stmt, stmt.op, current, value
                )
            elif isinstance(stmt.target, ast.Attribute):
                current = self._infer(stmt.target, env)
                self._combine(stmt, stmt.op, current, value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._infer(stmt.value, env)
                if (
                    ctx is not None
                    and ctx.declared_return is not None
                    and value.strong
                    and value.dim is not None
                    and value.dim != ctx.declared_return
                ):
                    self._emit(
                        "DIM003",
                        f"{ctx.name}() is declared to return "
                        f"{ctx.declared_return.symbol()} but this return "
                        f"yields {value.dim.symbol()}",
                        "fix the expression, the declaration, or pragma "
                        f"with `# {ALLOW_DIM_PRAGMA}` stating the contract",
                        stmt,
                    )
        elif isinstance(stmt, ast.If):
            self._infer(stmt.test, env)
            body_env = dict(env)
            else_env = dict(env)
            self._exec_block(stmt.body, body_env, ctx)
            self._exec_block(stmt.orelse, else_env, ctx)
            env.clear()
            env.update(self._join_env(body_env, else_env))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._infer(stmt.iter, env)
            body_env = dict(env)
            self._clear_target(stmt.target, body_env)
            self._exec_block(stmt.body, body_env, ctx)
            self._exec_block(stmt.orelse, body_env, ctx)
            joined = self._join_env(env, body_env)
            env.clear()
            env.update(joined)
        elif isinstance(stmt, ast.While):
            self._infer(stmt.test, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env, ctx)
            self._exec_block(stmt.orelse, body_env, ctx)
            env.update(self._join_env(env, body_env))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._infer(item.context_expr, env)
                if item.optional_vars is not None:
                    self._clear_target(item.optional_vars, env)
            self._exec_block(stmt.body, env, ctx)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, ctx)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(handler.body, handler_env, ctx)
                env.update(self._join_env(env, handler_env))
            self._exec_block(stmt.orelse, env, ctx)
            self._exec_block(stmt.finalbody, env, ctx)
        elif isinstance(stmt, ast.Expr):
            self._infer(stmt.value, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._infer(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._infer(stmt.test, env)
            if stmt.msg is not None:
                self._infer(stmt.msg, env)
        elif isinstance(stmt, _FUNC_NODES):
            self._analyze_function(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            self._analyze_class(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

    def _assign(
        self, target: ast.expr, value: DimValue, env: Env, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            self._check_declared(
                target.attr, ATTRIBUTE_DIMS.get(target.attr), value, stmt
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, UNKNOWN, env, stmt)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, UNKNOWN, env, stmt)

    def _check_declared(
        self,
        name: str,
        declared: Optional[Dimension],
        value: DimValue,
        node: ast.AST,
    ) -> None:
        """DIM002 when a strongly-known value contradicts a declaration."""
        if (
            declared is not None
            and value.strong
            and value.dim is not None
            and value.dim != declared
        ):
            self._emit(
                "DIM002",
                f"{name!r} is declared {declared.symbol()} but the value "
                f"carries {value.dim.symbol()}",
                "fix the expression (or the declaration), or pragma with "
                f"`# {ALLOW_DIM_PRAGMA}` stating the contract",
                node,
            )

    def _clear_target(self, target: ast.expr, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = UNKNOWN
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._clear_target(element, env)
        elif isinstance(target, ast.Starred):
            self._clear_target(target.value, env)

    @staticmethod
    def _join_env(left: Env, right: Env) -> Env:
        joined: Env = {}
        # sorted: the union is a set, and the joined env's key order
        # must not depend on hash seeding (parcheck PAR003).
        for key in sorted(set(left) | set(right)):
            joined[key] = _join_value(
                left.get(key, UNKNOWN), right.get(key, UNKNOWN)
            )
        return joined

    # -- expressions ---------------------------------------------------------

    def _infer(self, node: ast.expr, env: Env) -> DimValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return NUMBER
            return UNKNOWN
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in self.units_aliases
            ):
                if node.attr in DIMENSIONS:
                    return unit_value(node.attr)
                return UNKNOWN
            self._infer(node.value, env)
            dim = ATTRIBUTE_DIMS.get(node.attr)
            if dim is not None:
                return DimValue(dim, strong=True)
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left, env)
            right = self._infer(node.right, env)
            return self._combine(node, node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._infer(node.operand, env)
            if isinstance(node.op, (ast.UAdd, ast.USub)):
                return operand
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env)
            return _join_value(
                self._infer(node.body, env), self._infer(node.orelse, env)
            )
        if isinstance(node, ast.BoolOp):
            value = self._infer(node.values[0], env)
            for operand in node.values[1:]:
                value = _join_value(value, self._infer(operand, env))
            return value
        if isinstance(node, ast.Compare):
            self._infer(node.left, env)
            for comparator in node.comparators:
                self._infer(comparator, env)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self._infer(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._infer(element, env)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._infer(key, env)
            for value_node in node.values:
                self._infer(value_node, env)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            self._infer(node.value, env)
            if isinstance(node.slice, ast.expr):
                self._infer(node.slice, env)
            return UNKNOWN
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            comp_env = dict(env)
            for generator in node.generators:
                self._infer(generator.iter, comp_env)
                self._clear_target(generator.target, comp_env)
                for condition in generator.ifs:
                    self._infer(condition, comp_env)
            if isinstance(node, ast.DictComp):
                self._infer(node.key, comp_env)
                self._infer(node.value, comp_env)
            else:
                self._infer(node.elt, comp_env)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            self._infer(node.value, env)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value_node in node.values:
                if isinstance(value_node, ast.FormattedValue):
                    self._infer(value_node.value, env)
            return UNKNOWN
        if isinstance(node, ast.Await):
            return self._infer(node.value, env)
        return UNKNOWN

    # -- arithmetic ----------------------------------------------------------

    def _combine(
        self, node: ast.AST, op: ast.operator, left: DimValue, right: DimValue
    ) -> DimValue:
        if isinstance(op, (ast.Add, ast.Sub)):
            return self._additive(node, op, left, right)
        if isinstance(op, ast.Mult):
            if left.known and right.known:
                assert left.dim is not None and right.dim is not None
                return DimValue(
                    left.dim * right.dim,
                    strong=left.strong or right.strong,
                    convention=_merge_convention(left, right),
                )
            return UNKNOWN
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left.known and right.known:
                assert left.dim is not None and right.dim is not None
                return DimValue(
                    left.dim / right.dim,
                    strong=left.strong or right.strong,
                    convention=_merge_convention(left, right),
                )
            return UNKNOWN
        if isinstance(op, ast.Mod):
            if left.known and right.known and left.dim == right.dim:
                return DimValue(
                    left.dim,
                    strong=left.strong and right.strong,
                    convention=_merge_convention(left, right),
                )
            return UNKNOWN
        if isinstance(op, ast.Pow):
            exponent = None
            if isinstance(node, (ast.BinOp,)) and isinstance(
                node.right, ast.Constant
            ):
                raw = node.right.value
                if isinstance(raw, int) and not isinstance(raw, bool):
                    exponent = raw
            if left.known:
                assert left.dim is not None
                if left.dim.is_dimensionless:
                    return left
                if exponent is not None:
                    return DimValue(left.dim ** exponent, strong=left.strong)
            return UNKNOWN
        return UNKNOWN

    def _additive(
        self, node: ast.AST, op: ast.operator, left: DimValue, right: DimValue
    ) -> DimValue:
        verb = "add" if isinstance(op, ast.Add) else "subtract"
        if left.known and right.known:
            assert left.dim is not None and right.dim is not None
            if left.strong and right.strong:
                if left.dim != right.dim:
                    self._emit(
                        "DIM001",
                        f"cannot {verb} {right.dim.symbol()} "
                        f"{'to' if verb == 'add' else 'from'} "
                        f"{left.dim.symbol()}",
                        "convert one operand so both sides share a "
                        f"dimension, or pragma with `# {ALLOW_DIM_PRAGMA}` "
                        "stating the contract",
                        node,
                    )
                    return UNKNOWN
                if (
                    left.convention is not None
                    and right.convention is not None
                    and left.convention != right.convention
                ):
                    self._emit(
                        "DIM001",
                        f"{verb}s quantities built from {left.convention} "
                        f"and {right.convention} size constants (silent "
                        "GB-vs-GiB class slip)",
                        "pick one prefix family (binary 2**n vs decimal "
                        "10**n) for both operands",
                        node,
                    )
                    return DimValue(left.dim, strong=True)
                return DimValue(
                    left.dim,
                    strong=True,
                    convention=_merge_convention(left, right),
                )
            # one side weakly dimensionless: treat it as a magnitude in
            # the strong side's dimension
            if left.strong:
                return left
            if right.strong:
                return right
            if left.dim == right.dim:
                return left
            return UNKNOWN
        if left.known and left.strong:
            return left
        if right.known and right.strong:
            return right
        return UNKNOWN

    # -- calls ---------------------------------------------------------------

    def _call(self, node: ast.Call, env: Env) -> DimValue:
        positional = [self._infer(arg, env) for arg in node.args]
        keywords = [
            (keyword.arg, self._infer(keyword.value, env))
            for keyword in node.keywords
        ]
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _PASSTHROUGH_BUILTINS and positional:
                return positional[0]
            if name in _JOIN_BUILTINS and positional:
                value = positional[0]
                for other in positional[1:]:
                    value = _join_value(value, other)
                return value
            signature = self.functions.get(name) or FUNCTION_STUBS.get(name)
            if signature is not None:
                self._check_call(name, signature, node, positional, keywords)
                if signature.returns is not None:
                    return DimValue(signature.returns, strong=True)
                return UNKNOWN
            self._check_keyword_attrs(node, keywords)
            return UNKNOWN
        if isinstance(func, ast.Attribute):
            attr = func.attr
            signature = None
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in self.units_aliases
            ):
                signature = FUNCTION_STUBS.get(attr)
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and attr in _MATH_PASSTHROUGH
            ):
                return positional[0] if positional else UNKNOWN
            else:
                self._infer(func.value, env)
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                    and self._current_class is not None
                ):
                    signature = self.methods.get(
                        self._current_class, {}
                    ).get(attr)
                if signature is None:
                    signature = METHOD_STUBS.get(attr)
            if signature is not None:
                self._check_call(attr, signature, node, positional, keywords)
                if signature.returns is not None:
                    return DimValue(signature.returns, strong=True)
                return UNKNOWN
            self._check_keyword_attrs(node, keywords)
            return UNKNOWN
        self._infer(func, env)
        self._check_keyword_attrs(node, keywords)
        return UNKNOWN

    def _check_call(
        self,
        name: str,
        signature: Signature,
        node: ast.Call,
        positional: "Sequence[DimValue]",
        keywords: "Sequence[Tuple[Optional[str], DimValue]]",
    ) -> None:
        by_name = dict(signature.params)
        for (param, declared), value in zip(signature.params, positional):
            self._check_argument(name, param, declared, value, node)
        for keyword, value in keywords:
            if keyword is not None and keyword in by_name:
                self._check_argument(
                    name, keyword, by_name[keyword], value, node
                )

    def _check_argument(
        self,
        func_name: str,
        param: str,
        declared: Optional[Dimension],
        value: DimValue,
        node: ast.AST,
    ) -> None:
        if (
            declared is not None
            and value.strong
            and value.dim is not None
            and value.dim != declared
        ):
            self._emit(
                "DIM002",
                f"argument {param!r} of {func_name}() expects "
                f"{declared.symbol()} but the value carries "
                f"{value.dim.symbol()}",
                "pass a quantity of the declared dimension, or pragma "
                f"with `# {ALLOW_DIM_PRAGMA}` stating the contract",
                node,
            )

    def _check_keyword_attrs(
        self,
        node: ast.Call,
        keywords: "Sequence[Tuple[Optional[str], DimValue]]",
    ) -> None:
        """Constructor keywords named like dimension-bearing attributes
        (``Workload(avg_update_rate=...)``) are checked against the
        attribute stub table."""
        for keyword, value in keywords:
            if keyword is None:
                continue
            self._check_declared(
                keyword, ATTRIBUTE_DIMS.get(keyword), value, node
            )


def lint_paths(sources: "Sequence[SourceFile]") -> "List[Diagnostic]":
    """The DIM pass over loaded sources, in file order."""
    report = Report(DIM_RULES, ALLOW_DIM_PRAGMA, "DIM099", unique=False)
    for source in analyzed(sources, ALLOWLIST, "dimcheck"):
        _FileAnalyzer(source, report).run()
    return report.finish()
