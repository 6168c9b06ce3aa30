"""Parallel-safety and determinism analyzer for the sweep engine.

Everything :mod:`repro.engine` promises — byte-identical serial,
parallel and cached sweeps — rests on an invariant no runtime test can
fully enforce: a task shipped to a worker process must be a
*deterministic, pure, picklable* function of its content-addressed key
(see the purity contract in :mod:`repro.engine.keys`), and every
object shared across threads must follow its lock discipline.  A
violation does not crash; it silently makes cached results diverge
from fresh ones, or parallel runs diverge from serial.  This module
makes the invariant statically checkable, the way
:mod:`repro.lint.dimcheck` made unit-correctness checkable.

The analyzer is **interprocedural**: all files given to one invocation
form one project.  It builds a symbol table and call graph — imports
are resolved across modules (including relative imports),
``self.method()`` binds within the class, locally constructed
receivers (``x = Cls(); x.m()``) bind to their class, and remaining
method calls fall back to a class-hierarchy-analysis union of
same-named methods (common container-protocol names are excluded from
the union so ``d.get(...)`` does not alias every ``get`` in the tree).
Each function's direct *effects* are inferred from stub tables
(nondeterminism sources, I/O calls, global/module-state mutation) and
propagated transitively from two kinds of roots:

* **worker boundaries** — call sites submitting work to a pool
  (``pool.submit(fn, ...)``, ``pool.map(fn, ...)``, ``apply_async``)
  and functions whose ``def`` line carries ``# lint: worker-boundary``
  (the engine marks ``_execute_chunk``, the function every pooled
  chunk runs).  Any effect reachable from the submitted callable is a
  finding.
* **lock-disciplined state** — classes holding a ``threading.Lock``
  attribute, and modules pairing a module-level lock with globals.
  State *written* under the lock anywhere must never be read or
  written without it.

Rules (sharing the :class:`~repro.lint.diagnostics.Diagnostic` model):

``PAR001`` (error)
    A nondeterminism source reachable from a worker task:
    ``time.time``, an unseeded ``random.*`` / ``default_rng()`` draw,
    ``uuid``, ``os.environ`` / ``os.getenv``, ``os.urandom``,
    ``secrets``.  The task's content-addressed key cannot cover these,
    so cache hits replay a value fresh runs would not reproduce.
``PAR002`` (error)
    Worker-reachable code mutating module-level/global state, or
    performing I/O.  A pool worker's module state is process-local:
    the mutation is lost (or, under threads, racy), and I/O makes the
    task a function of more than its key.
``PAR003`` (warning)
    Iteration over a ``set``/``frozenset`` whose order flows into a
    return value, ``fingerprint``/``task_key``, serialization
    (``json.dumps``, ``.join``, ``.write``) or report output.  Set
    order varies across processes (``PYTHONHASHSEED``), so the output
    is not reproducible.  Order-insensitive consumers — ``sorted``,
    ``sum``, ``min``/``max``, ``len``, ``any``/``all``, membership —
    launder the taint.
``PAR004`` (error)
    An attribute (or module global) written under a lock elsewhere but
    accessed here without it: the lock discipline exists, this site
    skips it.
``PAR005`` (error)
    A pickle-hostile value — ``lambda``, locally nested function,
    generator expression, open file handle — flowing into a
    pool-submission argument.  These fail (or worse, half-work) when
    pickled into a worker process.
``PAR006`` (error)
    The ``# lint: allow-par`` pragma budget is exceeded.
``PAR099`` (warning)
    A stale ``# lint: allow-par`` pragma that suppresses nothing.

Sanctioned channels the analyzer deliberately ignores, exactly as
dimcheck's stub table encodes the unit vocabulary:

* the whole :mod:`repro.obs` package.  It *is* the telemetry fabric:
  workers install capture tracers (a deliberate process-local global),
  capsules carry PIDs and wall-clock offsets, and the parent-side
  merge is deterministic by submission order (PR 6's determinism
  tests pin byte-identical output).  Effects inside ``repro.obs`` are
  therefore not findings — but its classes still get the full PAR004
  lock-discipline analysis.
* monotonic timers (``time.perf_counter``, ``time.monotonic``).  The
  engine's contract routes them into span durations and provenance
  ``phase_ms`` — observability fields, not results — so they are not
  PAR001 sources; wall-clock ``time.time`` still is.

The pragma ``# lint: allow-par`` on the flagged line suppresses
PAR001–PAR005 (use it only with a comment stating why the effect
cannot reach results); ``--max-pragmas`` budgets the total (CI pins it
at 3).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Union

from .callgraph import (
    FUNC_NODES as _FUNC_NODES,
    SUBMIT_METHODS,
    AttrAccess,
    CallRef,
    ClassInfo,
    Effect,
    FunctionInfo,
    ModuleInfo,
    Project,
    SubmitSite,
    dotted_chain as _dotted_chain,
)
from .diagnostics import Diagnostic, Severity
from .loader import Report, SourceFile, analyzed
from .registry import RuleInfo

#: The parallel-safety rule table, merged into SARIF metadata and the
#: documented rule table by ``output.all_rule_infos``.
PAR_RULES: "Dict[str, RuleInfo]" = {
    info.code: info
    for info in (
        RuleInfo(
            "PAR001",
            Severity.ERROR,
            "parallel",
            "Nondeterminism source reachable from a worker task.",
        ),
        RuleInfo(
            "PAR002",
            Severity.ERROR,
            "parallel",
            "Global/module-state mutation or I/O in worker-reachable code.",
        ),
        RuleInfo(
            "PAR003",
            Severity.WARNING,
            "parallel",
            "Set iteration order flows into a return/serialized output.",
        ),
        RuleInfo(
            "PAR004",
            Severity.ERROR,
            "parallel",
            "Unlocked access to state that is lock-protected elsewhere.",
        ),
        RuleInfo(
            "PAR005",
            Severity.ERROR,
            "parallel",
            "Pickle-hostile value flows into a pool-submission argument.",
        ),
        RuleInfo(
            "PAR006",
            Severity.ERROR,
            "parallel",
            "allow-par pragma budget exceeded.",
        ),
        RuleInfo(
            "PAR099",
            Severity.WARNING,
            "parallel",
            "Stale allow-par pragma that no longer suppresses anything.",
        ),
    )
}

ALLOW_PAR_PRAGMA = "lint: allow-par"

#: Files the checker never applies to: this analyzer itself (its stub
#: tables and corpus snippets name the very patterns it flags).
ALLOWLIST = ("repro/lint/parcheck.py",)

#: The sanctioned telemetry fabric: effects (PAR001/PAR002) inside
#: these path fragments are not findings; lock discipline still is.
SANCTIONED_PATHS = ("repro/obs/",)

# ---------------------------------------------------------------------------
# Stub effect tables (stdlib / numpy), like dimcheck's dimension stubs.
# ---------------------------------------------------------------------------

#: Fully-dotted callables that are nondeterminism sources.
NONDET_CALLS: "Dict[str, str]" = {
    "time.time": "wall-clock read time.time()",
    "time.time_ns": "wall-clock read time.time_ns()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
    "os.urandom": "os.urandom() entropy read",
    "os.getenv": "environment read os.getenv()",
    "os.getlogin": "environment read os.getlogin()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
    "secrets.token_urlsafe": "secrets.token_urlsafe()",
    "secrets.randbits": "secrets.randbits()",
    "secrets.choice": "secrets.choice()",
}

#: Draws on the shared, unseeded global RNG (``random.X`` and legacy
#: ``numpy.random.X``).  ``random.Random(seed)`` instances are fine.
RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "getrandbits",
        "randbytes",
        "rand",
        "randn",
        "random_sample",
        "standard_normal",
        "permutation",
        "normal",
        "exponential",
        "poisson",
    }
)

#: Monotonic timers are the sanctioned telemetry clock — never PAR001.
_TIMER_CALLS = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns"}
)

#: Fully-dotted filesystem calls counted as I/O effects.
IO_CALLS = frozenset(
    {
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
        "shutil.rmtree",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
    }
)

#: Builtins counted as I/O effects when called unbound.
IO_BUILTINS = frozenset({"open", "print", "input"})

#: Method names counted as I/O effects on any receiver.
IO_METHODS = frozenset(
    {"write", "writelines", "write_text", "write_bytes", "read_text", "read_bytes"}
)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
    }
)

#: Call names whose result/argument order does not depend on iteration
#: order: they launder PAR003 taint.
ORDER_LAUNDERING = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset"}
)

#: Serialization / report sinks for PAR003 (dotted or bare names).
ORDER_SINK_CALLS = frozenset(
    {
        "json.dumps",
        "json.dump",
        "canonical_json",
        "fingerprint",
        "task_key",
        "part_digest",
        "print",
    }
)

#: Method-call sinks for PAR003.
ORDER_SINK_METHODS = frozenset({"join", "write", "writelines"})


def _is_sanctioned(filename: str) -> bool:
    normalized = filename.replace("\\", "/")
    return any(fragment in normalized for fragment in SANCTIONED_PATHS)


# ---------------------------------------------------------------------------
# Per-function scan: effects, call edges, submissions, PAR003/PAR005.
#
# The project model itself — symbol tables, import resolution, the
# call graph and worker-boundary roots — lives in the shared
# :mod:`repro.lint.callgraph`; this module keeps only the
# parallel-safety analysis layered on top of it.
# ---------------------------------------------------------------------------


class _FunctionScanner:
    """One function's direct effects, edges, and local findings.

    PAR003 (order taint) and PAR005 (pickle-hostility at submission
    sites) are decided here; nondet/global/I-O effects and call edges
    are recorded for the project-level reachability pass.
    """

    def __init__(
        self,
        project: "_Project",
        module: ModuleInfo,
        func: FunctionInfo,
        cls: "Optional[ClassInfo]",
    ) -> None:
        self.project = project
        self.func = func
        self.module = module
        self.cls = cls
        self.locals = func.syntax.local_names
        self.global_decls: "Set[str]" = set()
        self.lock_depth = 0
        self.tainted: "Set[str]" = set()  # order-tainted names
        self.set_names: "Set[str]" = set()  # names holding sets
        self.open_names: "Set[str]" = set()  # names holding open handles
        self.var_types: "Dict[str, str]" = {}  # local → class name

    # -- helpers -------------------------------------------------------------

    def _effect(self, kind: str, detail: str, node: ast.AST) -> None:
        if self.module.sanctioned and kind in ("nondet", "global", "io"):
            return
        self.func.effects.append(
            Effect(
                kind=kind,
                detail=detail,
                line=getattr(node, "lineno", 0),
                column=getattr(node, "col_offset", 0),
                node=node,
            )
        )

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Resolve ``a.b.c`` through the import table, or None."""
        chain = _dotted_chain(node)
        if chain is None:
            return None
        head = chain[0]
        if head in self.locals or head in ("self", "cls"):
            return None
        resolved = self.module.imports.get(head)
        if resolved is not None:
            chain = resolved.split(".") + chain[1:]
        return ".".join(chain)

    def _class_of(self, name: str) -> Optional[str]:
        """The project class a bare name refers to, if any."""
        if name in self.module.classes:
            return name
        dotted = self.module.imports.get(name)
        if dotted is not None:
            modname, _, attr = dotted.rpartition(".")
            target = self.project.modules_by_name.get(modname)
            if target is not None and attr in target.classes:
                return attr
        return None

    # -- the walk ------------------------------------------------------------

    def run(self) -> None:
        for stmt in self.func.node.body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, _FUNC_NODES):
            return  # nested defs are scanned as their own functions
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Global):
            self.global_decls.update(node.names)
            return
        if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
            self._with(node)
            return
        if isinstance(node, ast.For) or isinstance(node, ast.AsyncFor):
            self._for(node)
            return
        if isinstance(node, ast.Assign):
            self._assign(node.targets, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign([node.target], node.value)
            return
        if isinstance(node, ast.AugAssign):
            self._store_target(node.target)
            self._expr(node.value)
            if isinstance(node.target, ast.Name):
                name = node.target.id
                if name in self.global_decls or (
                    name in self.module.global_names and name not in self.locals
                ):
                    self._global_write(name, node)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._order_sink(node.value, "the return value")
                self._expr(node.value)
            return
        if isinstance(node, (ast.Expr,)):
            if isinstance(node.value, (ast.Yield, ast.YieldFrom)):
                inner = node.value.value
                if inner is not None:
                    self._order_sink(inner, "a yielded value")
                    self._expr(inner)
                return
            self._expr(node.value)
            return
        # Everything else: recurse into child statements/expressions.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)

    def _with(self, node: "Union[ast.With, ast.AsyncWith]") -> None:
        locked = 0
        for item in node.items:
            ctx = item.context_expr
            if self._is_lock_expr(ctx):
                locked += 1
            else:
                self._expr(ctx)
            if item.optional_vars is not None:
                self._store_target(item.optional_vars)
                if isinstance(ctx, ast.Call) and self._call_name(ctx) == "open":
                    if isinstance(item.optional_vars, ast.Name):
                        self.open_names.add(item.optional_vars.id)
        self.lock_depth += locked
        try:
            for stmt in node.body:
                self._stmt(stmt)
        finally:
            self.lock_depth -= locked

    def _is_lock_expr(self, node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and self.cls is not None
            and node.attr in self.cls.lock_attrs
        ):
            return True
        if (
            isinstance(node, ast.Name)
            and node.id in self.module.module_locks
            and node.id not in self.locals
        ):
            return True
        return False

    def _for(self, node: "Union[ast.For, ast.AsyncFor]") -> None:
        unordered = self._unordered(node.iter)
        self._expr(node.iter)
        self._store_target(node.target)
        mutated: "Set[str]" = set()
        if unordered is not None:
            # Ordered accumulations inside the loop inherit the taint.
            for stmt in node.body:
                for child in ast.walk(stmt):
                    if isinstance(child, ast.Call) and isinstance(
                        child.func, ast.Attribute
                    ):
                        if child.func.attr in (
                            "append",
                            "extend",
                            "insert",
                            "setdefault",
                        ) and isinstance(child.func.value, ast.Name):
                            mutated.add(child.func.value.id)
                    elif isinstance(child, ast.Subscript) and isinstance(
                        child.ctx, ast.Store
                    ):
                        if isinstance(child.value, ast.Name):
                            mutated.add(child.value.id)
            self.tainted.update(mutated)
        for stmt in node.body:
            self._stmt(stmt)
        for stmt in node.orelse:
            self._stmt(stmt)

    def _assign(self, targets: "Sequence[ast.expr]", value: ast.expr) -> None:
        self._expr(value)
        taint = self._order_tainted(value) is not None
        is_set = self._unordered(value) is not None
        is_open = isinstance(value, ast.Call) and self._call_name(value) == "open"
        constructed = self._constructed_class(value)
        for target in targets:
            self._store_target(target)
            if isinstance(target, ast.Name):
                name = target.id
                if taint:
                    self.tainted.add(name)
                else:
                    self.tainted.discard(name)
                if is_set:
                    self.set_names.add(name)
                else:
                    self.set_names.discard(name)
                if is_open:
                    self.open_names.add(name)
                else:
                    self.open_names.discard(name)
                if constructed is not None:
                    self.var_types[name] = constructed
                if name in self.global_decls or (
                    name in self.module.global_names and name not in self.locals
                ):
                    self._global_write(name, target)
            elif isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Name):
                    if (
                        base.id in self.module.global_names
                        and base.id not in self.locals
                    ):
                        self._global_write(base.id, target, container=True)
                    if taint:
                        self.tainted.add(base.id)
                self._expr(base)
                self._expr(target.slice)
            elif isinstance(target, ast.Attribute):
                self._attr_store(target)

    def _constructed_class(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return self._class_of(value.func.id)
        return None

    def _store_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_target(element)
        elif isinstance(target, ast.Starred):
            self._store_target(target.value)
        elif isinstance(target, ast.Attribute):
            self._attr_store(target)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._attr_store(target.value)
            elif (
                isinstance(target.value, ast.Name)
                and target.value.id in self.module.global_names
                and target.value.id not in self.locals
            ):
                self._global_write(target.value.id, target, container=True)

    def _attr_store(self, node: ast.Attribute) -> None:
        base = node.value
        if (
            isinstance(base, ast.Name)
            and base.id in ("self", "cls")
            and self.cls is not None
        ):
            self._record_self_access(node.attr, write=True, node=node)
        elif (
            isinstance(base, ast.Name)
            and base.id in self.module.global_names
            and base.id not in self.locals
        ):
            self._global_write(base.id, node, container=True)

    def _global_write(
        self, name: str, node: ast.AST, container: bool = False
    ) -> None:
        what = (
            f"mutates module-level {name!r}"
            if container
            else f"rebinds module global {name!r}"
        )
        self._effect("global", what, node)
        self.module.global_accesses.append(
            AttrAccess(
                name=name,
                write=True,
                locked=self.lock_depth > 0,
                node=node,
                where=self.func.qualname,
            )
        )

    def _record_self_access(
        self, attr: str, write: bool, node: ast.AST
    ) -> None:
        if self.cls is None or attr in self.cls.lock_attrs:
            return
        if self.func.name in ("__init__", "__post_init__"):
            return  # construction happens-before sharing
        self.cls.accesses.append(
            AttrAccess(
                name=attr,
                write=write,
                locked=self.lock_depth > 0,
                node=node,
                where=self.func.qualname,
            )
        )

    # -- expressions ---------------------------------------------------------

    def _call_name(self, node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name) and node.func.id not in self.locals:
            return node.func.id
        return None

    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            dotted = self._dotted(node)
            if dotted == "os.environ" and isinstance(node.ctx, ast.Load):
                self._effect("nondet", "os.environ read", node)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and self.cls is not None
                and isinstance(node.ctx, ast.Load)
            ):
                self._record_self_access(node.attr, write=False, node=node)
            self._expr(node.value)
            return
        if isinstance(node, ast.Name):
            if (
                isinstance(node.ctx, ast.Load)
                and node.id in self.module.global_names
                and node.id not in self.locals
            ):
                self.module.global_accesses.append(
                    AttrAccess(
                        name=node.id,
                        write=False,
                        locked=self.lock_depth > 0,
                        node=node,
                        where=self.func.qualname,
                    )
                )
            return
        if isinstance(node, (ast.Lambda,)):
            return  # bodies of lambdas are not scanned for effects
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for condition in child.ifs:
                    self._expr(condition)

    def _call(self, node: ast.Call) -> None:
        dotted = (
            self._dotted(node.func) if not isinstance(node.func, ast.Name) else None
        )
        bare = self._call_name(node)
        if bare is not None and bare in self.module.imports:
            dotted = self.module.imports[bare]
        elif bare is not None and dotted is None:
            dotted = bare

        self._check_effect_call(node, dotted, bare)
        self._record_edge(node, dotted, bare)
        self._check_submission(node)
        self._check_order_sink_call(node, dotted)

        for arg in node.args:
            self._expr(arg)
        for keyword in node.keywords:
            self._expr(keyword.value)
        if isinstance(node.func, ast.Attribute):
            self._expr(node.func.value)

    def _check_effect_call(
        self, node: ast.Call, dotted: Optional[str], bare: Optional[str]
    ) -> None:
        if dotted is not None and dotted in _TIMER_CALLS:
            return  # sanctioned telemetry clock
        if dotted is not None:
            if dotted in NONDET_CALLS:
                self._effect("nondet", NONDET_CALLS[dotted], node)
                return
            parts = dotted.split(".")
            if (
                len(parts) >= 2
                and parts[-2] == "random"
                and parts[-1] in RANDOM_FUNCS
            ):
                self._effect(
                    "nondet",
                    f"unseeded RNG draw {parts[-2]}.{parts[-1]}()",
                    node,
                )
                return
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                self._effect("nondet", "default_rng() without a seed", node)
                return
            if dotted in IO_CALLS:
                self._effect("io", f"filesystem call {dotted}()", node)
                return
        if bare is not None and bare in IO_BUILTINS:
            self._effect("io", f"I/O builtin {bare}()", node)
            return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = node.func.value
            if attr in IO_METHODS:
                self._effect("io", f".{attr}() I/O call", node)
            if attr in MUTATOR_METHODS:
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in self.module.global_names
                    and receiver.id not in self.locals
                ):
                    self._global_write(receiver.id, node, container=True)
                elif (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id in ("self", "cls")
                ):
                    self._record_self_access(receiver.attr, write=True, node=node)

    def _record_edge(
        self, node: ast.Call, dotted: Optional[str], bare: Optional[str]
    ) -> None:
        if isinstance(node.func, ast.Name):
            self.func.calls.append(
                CallRef(kind="name", name=node.func.id, dotted=dotted)
            )
            return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = node.func.value
            recv_class: Optional[str] = None
            if isinstance(receiver, ast.Name):
                if receiver.id in ("self", "cls") and self.cls is not None:
                    recv_class = self.cls.name
                else:
                    recv_class = self.var_types.get(receiver.id)
            self.func.calls.append(
                CallRef(kind="attr", name=attr, dotted=dotted, recv_class=recv_class)
            )

    def _check_submission(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SUBMIT_METHODS
        ):
            return
        self.project.submit_sites.append(
            SubmitSite(call=node, func=self.func, module=self.module)
        )
        for position, arg in enumerate(list(node.args)):
            hostile = self._pickle_hostile(arg, position)
            if hostile is not None:
                self.project.emit(
                    self.module,
                    "PAR005",
                    f"{hostile} flows into the pool submission "
                    f"`.{node.func.attr}(...)`: it cannot be pickled into "
                    "a worker process",
                    "pass a module-level function and plain picklable "
                    "data (resolve handles/closures before submitting), "
                    f"or pragma with `# {ALLOW_PAR_PRAGMA}` for an "
                    "inline-executor-only path",
                    arg,
                )

    def _pickle_hostile(self, arg: ast.expr, position: int) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(arg, ast.Call) and self._call_name(arg) == "open":
            return "an open file handle"
        if isinstance(arg, ast.Name):
            if arg.id in self.open_names:
                return f"open file handle {arg.id!r}"
            if arg.id in self.func.children:
                return f"locally nested function {arg.id!r}"
            parent = self.project.enclosing[self.func.index]
            if parent is not None and arg.id in parent.children:
                return f"locally nested function {arg.id!r}"
        return None

    # -- PAR003: set-iteration order taint ------------------------------------

    def _unordered(self, node: ast.expr) -> Optional[str]:
        """A description if ``node`` is an unordered (set-valued)
        expression, else None."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal" if isinstance(node, ast.Set) else "a set comprehension"
        if isinstance(node, ast.Call):
            name = self._call_name(node)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return f"set {node.id!r}"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._unordered(node.left) or self._unordered(node.right)
        if isinstance(node, ast.Attribute) and node.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return f".{node.attr}()"
        return None

    def _order_tainted(self, node: ast.expr) -> Optional[str]:
        """A description if ``node`` is an *ordered* value whose order
        derives from unordered iteration."""
        if isinstance(node, ast.Name) and node.id in self.tainted:
            return f"{node.id!r} (built by iterating a set)"
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                source = self._unordered(generator.iter)
                if source is not None:
                    return f"a comprehension over {source}"
            return None
        if isinstance(node, ast.Call):
            name = self._call_name(node)
            if name in ("list", "tuple") and node.args:
                source = self._unordered(node.args[0])
                if source is not None:
                    return f"{name}() of {source}"
                return self._order_tainted(node.args[0])
            if name in ORDER_LAUNDERING:
                return None
        return None

    def _order_sink(self, node: ast.expr, sink: str) -> None:
        tainted = self._order_tainted(node)
        if tainted is not None:
            self.project.emit(
                self.module,
                "PAR003",
                f"{tainted} reaches {sink}: set iteration order varies "
                "across processes (PYTHONHASHSEED), so the output is not "
                "reproducible",
                "sort the iterable (sorted(...)) before its order becomes "
                f"observable, or pragma with `# {ALLOW_PAR_PRAGMA}` "
                "stating why order cannot matter",
                node,
            )

    def _check_order_sink_call(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        sink: Optional[str] = None
        bare = self._call_name(node)
        if dotted in ORDER_SINK_CALLS or bare in ORDER_SINK_CALLS:
            sink = f"serialization via {bare or dotted}()"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ORDER_SINK_METHODS
        ):
            sink = f"serialization via .{node.func.attr}()"
        if sink is None:
            return
        for arg in node.args:
            self._order_sink(arg, sink)


# ---------------------------------------------------------------------------
# The project: resolution, reachability, lock discipline.
# ---------------------------------------------------------------------------


class _Project(Project):
    """All modules of one invocation, analyzed together."""

    def sanctioned(self, filename: str) -> bool:
        return _is_sanctioned(filename)

    # -- analysis ------------------------------------------------------------

    def analyze(self) -> "List[Diagnostic]":
        for module in self.modules:
            for func in module.all_functions:
                cls = module.classes.get(func.cls) if func.cls else None
                _FunctionScanner(self, module, func, cls).run()
        self.resolve_edges()
        self._propagate_from_roots()
        self._check_lock_discipline()
        return self.finish()

    # -- reachability from worker boundaries ---------------------------------

    def _propagate_from_roots(self) -> None:
        roots = self.worker_roots()
        parent: "Dict[str, Optional[str]]" = {}
        origin: "Dict[str, str]" = {}
        queue: "List[FunctionInfo]" = []
        for root, via in roots:
            if root.qualname not in parent:
                parent[root.qualname] = None
                origin[root.qualname] = via
                queue.append(root)
        index = 0
        while index < len(queue):
            func = queue[index]
            index += 1
            for target in self.callees[func.index]:
                if self.module_of[target.index].sanctioned:
                    continue
                if target.qualname not in parent:
                    parent[target.qualname] = func.qualname
                    origin[target.qualname] = origin[func.qualname]
                    queue.append(target)
        for func in queue:
            chain = self._chain(func.qualname, parent)
            for effect in func.effects:
                code = "PAR001" if effect.kind == "nondet" else "PAR002"
                if effect.kind == "nondet":
                    what = (
                        f"{effect.detail} runs inside a worker task: the "
                        "task's content-addressed key cannot cover it, so "
                        "cached and fresh results diverge"
                    )
                    hint = (
                        "hoist the nondeterminism into the parent (seed "
                        "it and pass values through the task payload), or "
                        f"pragma with `# {ALLOW_PAR_PRAGMA}` stating why "
                        "it cannot reach results"
                    )
                else:
                    verb = (
                        effect.detail
                        if effect.kind == "global"
                        else f"performs {effect.detail}"
                    )
                    what = (
                        f"worker-reachable code {verb}: a pool worker's "
                        "module state is process-local, so the effect is "
                        "lost or divergent between serial and parallel runs"
                    )
                    hint = (
                        "return the data instead of mutating shared "
                        "state / writing it here, or pragma with "
                        f"`# {ALLOW_PAR_PRAGMA}` stating the contract"
                    )
                self.emit(
                    self.module_of[func.index],
                    code,
                    f"{what} (reached from {origin[func.qualname]}"
                    f"{chain})",
                    hint,
                    effect.node,
                )

    def _chain(
        self, qualname: str, parent: "Dict[str, Optional[str]]"
    ) -> str:
        names: "List[str]" = []
        current: Optional[str] = qualname
        while current is not None and len(names) < 6:
            names.append(current.rsplit(".", 1)[-1])
            current = parent.get(current)
        names.reverse()
        if len(names) <= 1:
            return ""
        return " via " + " -> ".join(names)

    # -- lock discipline ------------------------------------------------------

    def _check_lock_discipline(self) -> None:
        for module in self.modules:
            for cls in module.classes.values():
                if not cls.lock_attrs:
                    continue
                self._check_access_set(
                    module,
                    cls.accesses,
                    lock=f"self.{sorted(cls.lock_attrs)[0]}",
                    owner=f"{module.modname}.{cls.name}",
                )
            if module.module_locks:
                self._check_access_set(
                    module,
                    module.global_accesses,
                    lock=sorted(module.module_locks)[0],
                    owner=module.modname,
                )

    def _check_access_set(
        self,
        module: ModuleInfo,
        accesses: "Sequence[AttrAccess]",
        lock: str,
        owner: str,
    ) -> None:
        locked_writes: "Set[str]" = {
            access.name for access in accesses if access.write and access.locked
        }
        for access in accesses:
            if access.name not in locked_writes or access.locked:
                continue
            action = "written" if access.write else "read"
            self.emit(
                module,
                "PAR004",
                f"{owner} state {access.name!r} is {action} in "
                f"{access.where} without {lock}, but elsewhere it is "
                "written under the lock: this access races with those "
                "writers",
                f"wrap the access in `with {lock}:` (or document a "
                "happens-before argument with "
                f"`# {ALLOW_PAR_PRAGMA}`)",
                access.node,
            )


def lint_paths(sources: "Sequence[SourceFile]") -> "List[Diagnostic]":
    """The PAR pass: the analyzed sources as one project."""
    project = _Project(Report(PAR_RULES, ALLOW_PAR_PRAGMA, "PAR099"))
    for source in analyzed(sources, ALLOWLIST, "parcheck"):
        project.add_module(source)
    return project.analyze()
