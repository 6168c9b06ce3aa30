"""Interprocedural exception-flow analyzer for the error contract.

Everything the evaluation pipeline reports rests on its own failure
paths being correct: :mod:`repro.engine` encodes "``ReproError`` =
model outcome, never retried; anything else = infrastructure fault,
retried", §3.3.1 of the paper mandates hard errors on utilization
overflow, and any exception crossing the worker boundary must survive
pickling into the parent process.  A violation does not crash the
evaluator; it silently converts a model verdict into a retry loop, or
swallows a capacity overflow into a generic failure.  This module
makes the contract statically checkable, the way
:mod:`repro.lint.parcheck` made the purity contract checkable.

The analyzer is **interprocedural**, built on the shared project model
in :mod:`repro.lint.callgraph`: all files of one invocation form one
project with a resolved call graph.  For every function it computes
the set of exception types that can *escape* it — a fixpoint over
``raise`` sites, callee escape sets, and ``except`` clause filtering,
with the class hierarchy resolved so ``except DeviceError`` is known
to absorb ``CapacityExceededError``.  Escape sets are *positive
evidence*: a function whose calls cannot all be resolved is marked
*open* (its escape set is a lower bound), and rules that need
completeness (EXN004's "provably cannot escape") only fire on closed
bodies.

Rules (sharing the :class:`~repro.lint.diagnostics.Diagnostic` model):

``EXN001`` (error)
    An exception type raised in worker-reachable code (the same
    pool-submission / ``# lint: worker-boundary`` roots parcheck uses)
    cannot round-trip through pickle: its ``__init__`` takes two or
    more required arguments and neither it nor a project ancestor
    defines ``__reduce__``.  ``BaseException.__reduce__`` replays
    ``self.args`` into ``__init__``, so the unpickle in the parent
    raises ``TypeError`` and the real failure is lost.
``EXN002`` (error)
    A broad handler (``except Exception`` / ``BaseException`` / bare
    ``except``) can absorb a ``ReproError`` subclass without
    re-raising, recording, or returning it: a model outcome silently
    becomes a retried infrastructure fault.
``EXN003`` (error)
    A public-API function (re-exported via a package ``__init__`` or
    registered as a CLI ``set_defaults(func=...)`` handler) can leak a
    project-defined exception that is not a ``ReproError``: callers
    honouring the documented "catch ``ReproError``" contract will not
    catch it.
``EXN004`` (warning)
    A dead handler: the caught project-defined type provably cannot
    escape the ``try`` body (the body's escape set is closed and
    disjoint from the handler).
``EXN005`` (warning)
    ``raise NewError(...)`` inside an ``except`` block without
    ``from``: the causal chain provenance records is destroyed
    (``from exc`` keeps it, ``from None`` severs it deliberately).
``EXN006`` (error)
    The ``# lint: allow-exn`` pragma budget is exceeded.
``EXN099`` (warning)
    A stale ``# lint: allow-exn`` pragma that suppresses nothing.

The pragma ``# lint: allow-exn`` on the flagged line suppresses
EXN001–EXN005 (use it only with a comment stating why the flow is
safe); ``--max-pragmas`` budgets the total (CI pins it at 3).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    COMMON_METHOD_NAMES,
    FUNC_NODES as _FUNC_NODES,
    SUBMIT_METHODS,
    CallRef,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    SubmitSite,
    dotted_chain as _dotted_chain,
)
from .diagnostics import Diagnostic, Severity
from .loader import Report, SourceFile, analyzed
from .registry import RuleInfo

#: The exception-flow rule table, merged into SARIF metadata and the
#: documented rule table by ``output.all_rule_infos``.
EXN_RULES: "Dict[str, RuleInfo]" = {
    info.code: info
    for info in (
        RuleInfo(
            "EXN001",
            Severity.ERROR,
            "exceptions",
            "Worker-reachable exception type cannot survive pickling.",
        ),
        RuleInfo(
            "EXN002",
            Severity.ERROR,
            "exceptions",
            "Broad handler absorbs a ReproError without recording it.",
        ),
        RuleInfo(
            "EXN003",
            Severity.ERROR,
            "exceptions",
            "Public API can leak a non-ReproError framework exception.",
        ),
        RuleInfo(
            "EXN004",
            Severity.WARNING,
            "exceptions",
            "Dead handler: the caught type cannot escape the try body.",
        ),
        RuleInfo(
            "EXN005",
            Severity.WARNING,
            "exceptions",
            "raise inside except without `from`: causal chain destroyed.",
        ),
        RuleInfo(
            "EXN006",
            Severity.ERROR,
            "exceptions",
            "allow-exn pragma budget exceeded.",
        ),
        RuleInfo(
            "EXN099",
            Severity.WARNING,
            "exceptions",
            "Stale allow-exn pragma that no longer suppresses anything.",
        ),
    )
}

ALLOW_EXN_PRAGMA = "lint: allow-exn"

#: Files the checker never applies to: this analyzer itself (its stub
#: tables and hint strings name the very patterns it flags).
ALLOWLIST = ("repro/lint/exncheck.py",)

#: The framework's error-contract root class.
REPRO_ERROR = "ReproError"

#: Handler names that catch everything (the EXN002 "broad" set).
BROAD_HANDLERS = frozenset({"Exception", "BaseException"})

# ---------------------------------------------------------------------------
# Stub escape tables (stdlib), like dimcheck's dimension stubs.
# ---------------------------------------------------------------------------

#: Fully-dotted (or builtin) callables with a known escape set.  The
#: values are what the call can raise under inputs the framework can
#: actually produce — not an exhaustive stdlib audit.
STUB_RAISES: "Dict[str, Tuple[str, ...]]" = {
    "open": ("OSError",),
    "json.loads": ("ValueError",),
    "json.load": ("ValueError", "OSError"),
    "json.dumps": ("TypeError", "ValueError"),
    "json.dump": ("TypeError", "OSError"),
    "pickle.dumps": ("PicklingError", "TypeError"),
    "pickle.loads": ("UnpicklingError", "AttributeError"),
    "pickle.load": ("UnpicklingError", "OSError"),
    "int": ("ValueError", "TypeError"),
    "float": ("ValueError", "TypeError"),
}

#: Callables known not to raise anything the contract cares about.
#: (``next`` raises ``StopIteration`` and ``min``/``max`` raise
#: ``ValueError`` on empty input; both are loop-protocol noise, not
#: error-contract flows, so they are deliberately "clean".)
CLEAN_CALLS = frozenset(
    {
        "len",
        "str",
        "repr",
        "format",
        "bool",
        "abs",
        "round",
        "id",
        "hash",
        "type",
        "isinstance",
        "issubclass",
        "callable",
        "getattr",
        "hasattr",
        "setattr",
        "list",
        "dict",
        "set",
        "frozenset",
        "tuple",
        "enumerate",
        "zip",
        "range",
        "sorted",
        "reversed",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "next",
        "iter",
        "vars",
        "print",
        "super",
    }
)

#: Dotted-call prefixes treated as clean (telemetry, math, paths).
CLEAN_DOTTED_PREFIXES = (
    "math.",
    "time.",
    "os.path.",
    "itertools.",
    "textwrap.",
    "re.",
)

#: Method names treated as clean besides the shared container set:
#: logging-style emitters and telemetry sinks.
CLEAN_METHODS = frozenset(
    {
        "info",
        "warning",
        "error",
        "debug",
        "exception",
        "critical",
        "log",
        "upper",
        "lower",
        "title",
        "replace",
        "rstrip",
        "lstrip",
        "splitlines",
        "ljust",
        "rjust",
        "zfill",
    }
)


def _builtin_exception_bases() -> "Dict[str, Tuple[str, ...]]":
    """Direct bases of every builtin exception type, by introspection,
    plus the non-builtin stdlib exceptions the stub tables mention."""
    table: "Dict[str, Tuple[str, ...]]" = {}
    for name in dir(builtins):
        obj = getattr(builtins, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            table[name] = tuple(
                base.__name__
                for base in obj.__bases__
                if issubclass(base, BaseException)
            )
    table.setdefault("PicklingError", ("Exception",))
    table.setdefault("UnpicklingError", ("Exception",))
    table.setdefault("JSONDecodeError", ("ValueError",))
    return table


#: The builtin exception table; each :class:`_Hierarchy` copies it.
BUILTIN_EXCEPTION_BASES = _builtin_exception_bases()


class _Hierarchy:
    """The merged exception class hierarchy: builtins + project."""

    def __init__(self) -> None:
        self._bases: "Dict[str, Tuple[str, ...]]" = dict(BUILTIN_EXCEPTION_BASES)
        self._ancestors: "Dict[str, FrozenSet[str]]" = {}

    def add(self, name: str, bases: "Sequence[str]") -> None:
        if name not in self._bases:
            self._bases[name] = tuple(bases)
            self._ancestors.clear()

    def ancestors(self, name: str) -> "FrozenSet[str]":
        """``name`` and everything above it; unknown types are assumed
        to derive ``Exception`` directly."""
        cached = self._ancestors.get(name)
        if cached is not None:
            return cached
        result: "Set[str]" = set()
        queue = [name]
        while queue:
            current = queue.pop()
            if current in result:
                continue
            result.add(current)
            queue.extend(self._bases.get(current, ("Exception",)))
        frozen = frozenset(result)
        self._ancestors[name] = frozen
        return frozen

    def absorbs(self, handler: str, exc: str) -> bool:
        """Does ``except handler`` catch an ``exc`` instance?"""
        return handler in self.ancestors(exc)

    def is_repro_error(self, name: str) -> bool:
        return REPRO_ERROR in self.ancestors(name)


# ---------------------------------------------------------------------------
# Per-function summary IR: raise sites, call sites, try structure.
# ---------------------------------------------------------------------------


@dataclass
class RaiseSite:
    """One ``raise`` statement (re-raises are handler-level, not here)."""

    exc: Optional[str]  # type name, or None when unresolvable
    node: ast.Raise


@dataclass
class CallSite:
    """One call whose escape set feeds the enclosing block."""

    ref: CallRef
    dotted: Optional[str]
    bare: Optional[str]
    node: ast.Call


@dataclass
class Block:
    """A flat region of statements: control flow other than ``try``
    is irrelevant to what *can* escape, so it is flattened away."""

    raises: "List[RaiseSite]" = field(default_factory=list)
    calls: "List[CallSite]" = field(default_factory=list)
    tries: "List[TrySummary]" = field(default_factory=list)


@dataclass
class HandlerSummary:
    """One ``except`` clause of a ``try``."""

    types: "Optional[List[str]]"  # None = bare except
    block: Block
    bound: Optional[str]
    reraises: bool  # bare raise / `raise bound`
    records: bool  # bound passed to a call, returned, or `from bound`
    node: ast.ExceptHandler


@dataclass
class TrySummary:
    body: Block
    handlers: "List[HandlerSummary]"
    orelse: Block
    final: Block
    node: ast.Try


class _SummaryBuilder:
    """Builds one function's :class:`Block` tree and emits the purely
    syntactic EXN005 findings along the way."""

    def __init__(
        self, project: "_ExnProject", module: ModuleInfo, func: FunctionInfo
    ) -> None:
        self.project = project
        self.func = func
        self.module = module
        self.locals = func.syntax.local_names

    def build(self) -> Block:
        return self._block(self.func.node.body, handler_bound=None)

    # -- statement walk ------------------------------------------------------

    def _block(
        self, stmts: "Sequence[ast.stmt]", handler_bound: Optional[str]
    ) -> Block:
        block = Block()
        for stmt in stmts:
            self._stmt(stmt, block, handler_bound)
        return block

    def _stmt(
        self, node: ast.stmt, block: Block, handler_bound: Optional[str]
    ) -> None:
        if isinstance(node, (*_FUNC_NODES, ast.ClassDef)):
            return  # nested defs are summarized as their own functions
        if isinstance(node, ast.Raise):
            self._raise(node, block, handler_bound)
            return
        if isinstance(node, ast.Try):
            block.tries.append(self._try(node, handler_bound))
            return
        # Any other statement: harvest calls from its expressions, then
        # recurse into child statements (If/For/While/With bodies).
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child, block, handler_bound)
            elif isinstance(child, ast.expr):
                self._calls(child, block)
            elif isinstance(child, ast.withitem):
                self._calls(child.context_expr, block)
            elif isinstance(child, ast.ExceptHandler):  # pragma: no cover
                pass  # only reachable via ast.Try, handled above

    def _raise(
        self, node: ast.Raise, block: Block, handler_bound: Optional[str]
    ) -> None:
        exc = node.exc
        if exc is None:
            return  # bare re-raise: handler-level semantics
        if isinstance(exc, ast.Name) and exc.id == handler_bound:
            return  # `raise exc`: handler-level re-raise
        if isinstance(exc, ast.Call):
            # The constructor itself is not a call-site escape; its
            # arguments still are.
            for arg in exc.args:
                self._calls(arg, block)
            for keyword in exc.keywords:
                self._calls(keyword.value, block)
            name = self._type_name(exc.func)
            block.raises.append(RaiseSite(exc=name, node=node))
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            # `raise SomeError` (the bare class) raises SomeError();
            # `raise instance_var` is unresolvable.
            name = self._type_name(exc)
            if name is not None and self._looks_like_type(name):
                block.raises.append(RaiseSite(exc=name, node=node))
            else:
                block.raises.append(RaiseSite(exc=None, node=node))
        else:
            block.raises.append(RaiseSite(exc=None, node=node))
        if node.cause is not None and isinstance(node.cause, ast.Call):
            self._calls(node.cause, block)

    def _type_name(self, node: ast.expr) -> Optional[str]:
        chain = _dotted_chain(node)
        if chain is None:
            return None
        if chain[0] in self.locals and len(chain) == 1:
            return None
        return chain[-1]

    @staticmethod
    def _looks_like_type(name: str) -> bool:
        # `raise SomeError` vs `raise err`: exception classes are
        # CapWords by convention (PEP 8), locals are not.
        return bool(name) and name[0].isupper()

    def _try(self, node: ast.Try, handler_bound: Optional[str]) -> TrySummary:
        body = self._block(node.body, handler_bound)
        handlers: "List[HandlerSummary]" = []
        for handler in node.handlers:
            handlers.append(self._handler(handler))
        orelse = self._block(node.orelse, handler_bound)
        final = self._block(node.finalbody, handler_bound)
        return TrySummary(
            body=body, handlers=handlers, orelse=orelse, final=final, node=node
        )

    def _handler(self, handler: ast.ExceptHandler) -> HandlerSummary:
        types = self._handler_types(handler.type)
        bound = handler.name
        block = self._block(handler.body, handler_bound=bound)
        reraises = False
        records = False
        for stmt in handler.body:
            for child in self._walk_shallow(stmt):
                if isinstance(child, ast.Raise):
                    if child.exc is None:
                        reraises = True
                    elif (
                        bound is not None
                        and isinstance(child.exc, ast.Name)
                        and child.exc.id == bound
                    ):
                        reraises = True
                    else:
                        if (
                            bound is not None
                            and isinstance(child.cause, ast.Name)
                            and child.cause.id == bound
                        ):
                            records = True
                        if child.cause is None and isinstance(
                            child.exc, ast.Call
                        ):
                            self.project.emit(
                                self.module,
                                "EXN005",
                                "`raise` inside an `except` block without "
                                "`from`: the causal chain provenance "
                                "records is destroyed",
                                "chain the original with `raise ... from "
                                f"{bound or 'exc'}` (or sever deliberately "
                                "with `from None`), or pragma with "
                                f"`# {ALLOW_EXN_PRAGMA}`",
                                child,
                            )
                elif bound is not None and isinstance(child, ast.Call):
                    for arg in child.args:
                        if isinstance(arg, ast.Name) and arg.id == bound:
                            records = True
                    for keyword in child.keywords:
                        if (
                            isinstance(keyword.value, ast.Name)
                            and keyword.value.id == bound
                        ):
                            records = True
                elif bound is not None and isinstance(child, ast.Return):
                    if child.value is not None and any(
                        isinstance(leaf, ast.Name) and leaf.id == bound
                        for leaf in ast.walk(child.value)
                    ):
                        records = True
        return HandlerSummary(
            types=types,
            block=block,
            bound=bound,
            reraises=reraises,
            records=records,
            node=handler,
        )

    @staticmethod
    def _walk_shallow(stmt: ast.stmt) -> "Iterator[ast.AST]":
        """Walk a statement without descending into nested defs."""
        stack: "List[ast.AST]" = [stmt]
        while stack:
            current = stack.pop()
            if isinstance(current, (*_FUNC_NODES, ast.Lambda, ast.ClassDef)):
                continue
            yield current
            stack.extend(ast.iter_child_nodes(current))

    def _handler_types(
        self, node: Optional[ast.expr]
    ) -> "Optional[List[str]]":
        if node is None:
            return None
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        names: "List[str]" = []
        for element in elements:
            name = self._type_name(element)
            names.append(name if name is not None else "Exception")
        return names

    # -- call harvesting -----------------------------------------------------

    def _calls(self, node: ast.expr, block: Block) -> None:
        stack: "List[ast.AST]" = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (*_FUNC_NODES, ast.Lambda)):
                continue
            if isinstance(current, ast.Call):
                site = self._call_site(current)
                block.calls.append(site)
                # Mirror the site onto the call-graph edge list so
                # ``resolve_edges`` (EXN001's worker-reach walk) sees
                # the same calls the escape fixpoint does.
                self.func.calls.append(site.ref)
            stack.extend(ast.iter_child_nodes(current))

    def _call_site(self, node: ast.Call) -> CallSite:
        bare: Optional[str] = None
        dotted: Optional[str] = None
        if isinstance(node.func, ast.Name):
            if node.func.id not in self.locals:
                bare = node.func.id
                dotted = self.module.imports.get(bare, bare)
            ref = CallRef(kind="name", name=node.func.id, dotted=dotted)
            return CallSite(ref=ref, dotted=dotted, bare=bare, node=node)
        if isinstance(node.func, ast.Attribute):
            chain = _dotted_chain(node.func)
            if chain is not None and chain[0] not in self.locals and chain[
                0
            ] not in ("self", "cls"):
                resolved = self.module.imports.get(chain[0])
                if resolved is not None:
                    chain = resolved.split(".") + chain[1:]
                dotted = ".".join(chain)
            recv_class: Optional[str] = None
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and self.func.cls is not None
            ):
                recv_class = self.func.cls
            ref = CallRef(
                kind="attr",
                name=node.func.attr,
                dotted=dotted,
                recv_class=recv_class,
            )
            return CallSite(ref=ref, dotted=dotted, bare=None, node=node)
        ref = CallRef(kind="attr", name="<dynamic>", dotted=None)
        return CallSite(ref=ref, dotted=None, bare=None, node=node)


# ---------------------------------------------------------------------------
# The project: escape-set fixpoint, rules, pragmas.
# ---------------------------------------------------------------------------


#: An escape result: the set of type names plus the "open" flag that
#: marks the set as a lower bound (some call could not be resolved).
Escape = Tuple[FrozenSet[str], bool]

_EMPTY: Escape = (frozenset(), False)


class _ExnProject(Project):
    """All modules of one invocation, analyzed together."""

    #: ``decode``/``encode`` stay resolvable (the cache's codec decode
    #: is a load-bearing EXN002 flow); the rest of the shared container
    #: vocabulary is excluded from CHA as usual.
    skip_method_names = frozenset(COMMON_METHOD_NAMES - {"decode", "encode"})

    def __init__(self, report: Report) -> None:
        super().__init__(report)
        self.hierarchy = _Hierarchy()
        self.summaries: "Dict[str, Block]" = {}
        self.escapes: "Dict[str, FrozenSet[str]]" = {}
        self.opens: "Dict[str, bool]" = {}
        self._classes_by_name: "Dict[str, ClassInfo]" = {}
        self._class_modules: "Dict[str, ModuleInfo]" = {}
        #: Callable-field CHA: ``Codec(decode=_decode_map)`` binds the
        #: field name ``decode`` to that function, so the later
        #: ``codec.decode(...)`` attr call resolves through it.
        self._field_bindings: "Dict[str, List[FunctionInfo]]" = {}

    # -- analysis ------------------------------------------------------------

    def analyze(self) -> "List[Diagnostic]":
        for module in self.modules:
            for cls in module.classes.values():
                self._classes_by_name.setdefault(cls.name, cls)
                self._class_modules.setdefault(cls.name, module)
                self.hierarchy.add(cls.name, cls.bases)
        for module in self.modules:
            self._collect_field_bindings(module)
            for func in module.all_functions:
                self.summaries[func.qualname] = _SummaryBuilder(
                    self, module, func
                ).build()
                self._find_submissions(module, func)
                self.escapes[func.qualname] = frozenset()
                self.opens[func.qualname] = False
        # EXN001's worker-reach traversal walks ``self.callees``.
        self.resolve_edges()
        self._fixpoint()
        self._report_handlers()
        self._check_worker_pickling()
        self._check_public_leaks()
        return self.finish()

    def _collect_field_bindings(self, module: ModuleInfo) -> None:
        """Record ``SomeClass(field=module_function)`` keyword bindings
        so attr calls on callable dataclass fields resolve."""
        for node in module.source.syntax.keyword_calls:
            if not self._is_project_class_call(module, node.func):
                continue
            for keyword in node.keywords:
                if keyword.arg is None or not isinstance(
                    keyword.value, ast.Name
                ):
                    continue
                bound = self._function_for_name(module, keyword.value.id)
                if bound is not None:
                    targets = self._field_bindings.setdefault(keyword.arg, [])
                    if all(t.qualname != bound.qualname for t in targets):
                        targets.append(bound)

    def _is_project_class_call(
        self, module: ModuleInfo, func: ast.expr
    ) -> bool:
        chain = _dotted_chain(func)
        if chain is None:
            return False
        name = chain[-1]
        if len(chain) == 1:
            if name in module.classes:
                return True
            dotted = module.imports.get(name)
        else:
            head = module.imports.get(chain[0], chain[0])
            dotted = ".".join([head] + chain[1:])
        if dotted is None:
            return False
        modname, _, attr = dotted.rpartition(".")
        target = self.modules_by_name.get(modname)
        return target is not None and attr in target.classes

    def _function_for_name(
        self, module: ModuleInfo, name: str
    ) -> "Optional[FunctionInfo]":
        if name in module.functions:
            return module.functions[name]
        dotted = module.imports.get(name)
        if dotted is not None:
            resolved = self.resolve_dotted(dotted)
            if len(resolved) == 1 and resolved[0].cls is None:
                return resolved[0]
        return None

    def _find_submissions(self, module: ModuleInfo, func: FunctionInfo) -> None:
        """Record pool-submission sites so :meth:`worker_roots` sees
        the same roots parcheck does."""
        for child in func.syntax.shallow:
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in SUBMIT_METHODS
            ):
                self.submit_sites.append(
                    SubmitSite(call=child, func=func, module=module)
                )

    # -- escape evaluation ---------------------------------------------------

    def _fixpoint(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for func in self.functions:
                escaped, open_ = self._eval_block(
                    self.summaries[func.qualname], func, report=False
                )
                frozen = frozenset(escaped)
                new_open = open_ or self.opens[func.qualname]
                if frozen != self.escapes[func.qualname] or (
                    new_open != self.opens[func.qualname]
                ):
                    self.escapes[func.qualname] = frozen
                    self.opens[func.qualname] = new_open
                    changed = True

    def _eval_block(
        self, block: Block, func: FunctionInfo, report: bool
    ) -> "Tuple[Set[str], bool]":
        escaped: "Set[str]" = set()
        open_ = False
        for site in block.raises:
            if site.exc is not None:
                escaped.add(site.exc)
            else:
                open_ = True
        for call in block.calls:
            call_escape, call_open = self._eval_call(call, func)
            escaped |= call_escape
            open_ |= call_open
        for summary in block.tries:
            try_escape, try_open = self._eval_try(summary, func, report)
            escaped |= try_escape
            open_ |= try_open
        return escaped, open_

    def _eval_call(
        self, call: CallSite, func: FunctionInfo
    ) -> "Tuple[Set[str], bool]":
        targets = self.resolve(call.ref, func)
        if targets:
            escaped: "Set[str]" = set()
            open_ = False
            for target in targets:
                escaped |= self.escapes.get(target.qualname, frozenset())
                open_ |= self.opens.get(target.qualname, False)
            return escaped, open_
        if call.dotted is not None:
            stub = STUB_RAISES.get(call.dotted)
            if stub is not None:
                return set(stub), False
            if call.dotted.startswith(CLEAN_DOTTED_PREFIXES):
                return set(), False
        if call.bare is not None:
            stub = STUB_RAISES.get(call.bare)
            if stub is not None:
                return set(stub), False
            if call.bare in CLEAN_CALLS:
                return set(), False
            # Constructing a known exception type raises nothing.
            if call.bare in BUILTIN_EXCEPTION_BASES:
                return set(), False
            return set(), True
        if call.ref.kind == "attr":
            bound = self._field_bindings.get(call.ref.name)
            if bound:
                escaped = set()
                open_ = False
                for target in bound:
                    escaped |= self.escapes.get(target.qualname, frozenset())
                    open_ |= self.opens.get(target.qualname, False)
                return escaped, open_
            if (
                call.ref.name in self.skip_method_names
                or call.ref.name in CLEAN_METHODS
            ):
                return set(), False
        return set(), True

    def _eval_try(
        self, summary: TrySummary, func: FunctionInfo, report: bool
    ) -> "Tuple[Set[str], bool]":
        body_escape, body_open = self._eval_block(summary.body, func, report)
        remaining = set(body_escape)
        remaining_open = body_open
        result: "Set[str]" = set()
        result_open = False
        for handler in summary.handlers:
            types = handler.types
            broad = types is None or any(t in BROAD_HANDLERS for t in types)
            if types is None:
                caught = set(remaining)
            else:
                caught = {
                    exc
                    for exc in remaining
                    if any(self.hierarchy.absorbs(t, exc) for t in types)
                }
            caught_open = remaining_open and broad
            remaining -= caught
            if caught_open:
                remaining_open = False
            if report:
                self._report_one_handler(
                    summary, handler, func, caught, body_open, broad
                )
            handler_escape, handler_open = self._eval_block(
                handler.block, func, report
            )
            if handler.reraises:
                handler_escape |= caught
                handler_open |= caught_open
            result |= handler_escape
            result_open |= handler_open
        orelse_escape, orelse_open = self._eval_block(
            summary.orelse, func, report
        )
        final_escape, final_open = self._eval_block(summary.final, func, report)
        escaped = remaining | result | orelse_escape | final_escape
        open_ = remaining_open or result_open or orelse_open or final_open
        return escaped, open_

    # -- rules ---------------------------------------------------------------

    def _report_handlers(self) -> None:
        for func in self.functions:
            self._eval_block(self.summaries[func.qualname], func, report=True)

    def _report_one_handler(
        self,
        summary: TrySummary,
        handler: HandlerSummary,
        func: FunctionInfo,
        caught: "Set[str]",
        body_open: bool,
        broad: bool,
    ) -> None:
        module = self.module_of[func.index]
        # EXN002: a broad handler absorbing a model outcome.
        if broad and not handler.reraises and not handler.records:
            absorbed = sorted(
                exc for exc in caught if self.hierarchy.is_repro_error(exc)
            )
            if absorbed:
                label = ", ".join(absorbed)
                self.emit(
                    module,
                    "EXN002",
                    f"broad `except` in {func.qualname} absorbs "
                    f"{label}: a ReproError is a model outcome, and "
                    "swallowing it here silently converts it into a "
                    "retried infrastructure fault",
                    "narrow the handler (catch ReproError separately), "
                    "re-raise, or record the exception object itself, "
                    f"or pragma with `# {ALLOW_EXN_PRAGMA}` stating why "
                    "the outcome cannot be lost",
                    handler.node,
                )
        # EXN004: a dead handler over a provably-closed try body.
        if (
            not broad
            and handler.types is not None
            and not body_open
            and not caught
        ):
            project_types = [
                t for t in handler.types if t in self._classes_by_name
            ]
            if project_types and len(project_types) == len(handler.types):
                label = ", ".join(sorted(project_types))
                body_label = (
                    ", ".join(sorted(self._body_escape_cache(summary, func)))
                    or "nothing"
                )
                self.emit(
                    module,
                    "EXN004",
                    f"dead handler in {func.qualname}: {label} provably "
                    f"cannot escape the try body (it raises {body_label})",
                    "delete the handler or widen the try body to cover "
                    "the call that can actually raise it; pragma with "
                    f"`# {ALLOW_EXN_PRAGMA}` if the coupling is "
                    "deliberate",
                    handler.node,
                )

    def _body_escape_cache(
        self, summary: TrySummary, func: FunctionInfo
    ) -> "Set[str]":
        escaped, _ = self._eval_block(summary.body, func, report=False)
        return escaped

    def _check_worker_pickling(self) -> None:
        """EXN001: exceptions raised in worker-reachable code must
        survive the pickle round-trip back to the parent."""
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
                if target.qualname not in parent:
                    parent[target.qualname] = func.qualname
                    origin[target.qualname] = origin[func.qualname]
                    queue.append(target)
        flagged: "Set[str]" = set()
        for func in queue:
            for site in self._all_raises(self.summaries[func.qualname]):
                if site.exc is None or site.exc in flagged:
                    continue
                cls = self._classes_by_name.get(site.exc)
                if cls is None:
                    continue  # builtin / external: pickles by protocol
                reason = self._unpicklable(cls)
                if reason is None:
                    continue
                flagged.add(site.exc)
                anchor = cls.node if cls.node is not None else site.node
                self.emit(
                    self._class_modules[cls.name],
                    "EXN001",
                    f"{cls.name} is raised in worker-reachable code "
                    f"({func.qualname}, reached from "
                    f"{origin[func.qualname]}) but cannot survive "
                    f"pickling: {reason}",
                    "add a `__reduce__` returning (type(self), "
                    "(<init args>,)) so the exception round-trips to "
                    "the parent process, or pragma with "
                    f"`# {ALLOW_EXN_PRAGMA}`",
                    anchor,
                )

    def _all_raises(self, block: Block) -> "Iterator[RaiseSite]":
        for site in block.raises:
            yield site
        for summary in block.tries:
            yield from self._all_raises(summary.body)
            for handler in summary.handlers:
                yield from self._all_raises(handler.block)
            yield from self._all_raises(summary.orelse)
            yield from self._all_raises(summary.final)

    def _unpicklable(self, cls: ClassInfo) -> Optional[str]:
        """Why ``cls`` fails the pickle round-trip, or None if fine."""
        seen: "Set[str]" = set()
        queue = [cls.name]
        init: "Optional[FunctionInfo]" = None
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._classes_by_name.get(current)
            if info is None:
                continue
            if "__reduce__" in info.methods or "__reduce_ex__" in info.methods:
                return None
            if init is None and "__init__" in info.methods:
                init = info.methods["__init__"]
            queue.extend(info.bases)
        if init is None:
            return None  # default __init__: BaseException.args replays
        arguments = init.node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        required = max(0, len(positional) - 1 - len(arguments.defaults))
        required += sum(
            1
            for _, default in zip(
                arguments.kwonlyargs, arguments.kw_defaults
            )
            if default is None
        )
        if required >= 2:
            return (
                f"__init__ takes {required} required arguments, but "
                "BaseException.__reduce__ replays only self.args"
            )
        return None

    def _check_public_leaks(self) -> None:
        """EXN003: the public surface must leak only ReproError."""
        for func, via in self._public_roots():
            escaped = self.escapes.get(func.qualname, frozenset())
            leaked = sorted(
                exc
                for exc in escaped
                if exc in self._classes_by_name
                and not self.hierarchy.is_repro_error(exc)
            )
            if leaked:
                label = ", ".join(leaked)
                self.emit(
                    self.module_of[func.index],
                    "EXN003",
                    f"public API {func.qualname} ({via}) can leak "
                    f"{label}, which does not derive ReproError: "
                    "callers honouring the documented `except "
                    "ReproError` contract will not catch it",
                    "derive the exception from ReproError (or wrap the "
                    "escape in a ReproError at the boundary), or pragma "
                    f"with `# {ALLOW_EXN_PRAGMA}`",
                    func.node,
                )

    def _public_roots(self) -> "List[Tuple[FunctionInfo, str]]":
        roots: "List[Tuple[FunctionInfo, str]]" = []
        seen: "Set[str]" = set()
        for module in self.modules:
            if module.is_package_init:
                for bound, dotted in sorted(module.imports.items()):
                    for func in self.resolve_dotted(dotted):
                        if func.qualname not in seen:
                            seen.add(func.qualname)
                            roots.append(
                                (func, f"re-exported by {module.modname}")
                            )
            for func in module.all_functions:
                for child in func.syntax.shallow:
                    if (
                        isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "set_defaults"
                    ):
                        for keyword in child.keywords:
                            if keyword.arg == "func" and isinstance(
                                keyword.value, ast.Name
                            ):
                                handler = module.functions.get(
                                    keyword.value.id
                                )
                                if (
                                    handler is not None
                                    and handler.qualname not in seen
                                ):
                                    seen.add(handler.qualname)
                                    roots.append(
                                        (handler, "CLI entry point")
                                    )
        return roots


def lint_paths(sources: "Sequence[SourceFile]") -> "List[Diagnostic]":
    """The EXN pass: the analyzed sources as one project."""
    project = _ExnProject(Report(EXN_RULES, ALLOW_EXN_PRAGMA, "EXN099"))
    for source in analyzed(sources, ALLOWLIST, "exncheck"):
        project.add_module(source)
    return project.analyze()
