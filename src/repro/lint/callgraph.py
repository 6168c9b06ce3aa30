"""Shared project model for the interprocedural code analyzers.

:mod:`repro.lint.parcheck` (parallel safety) and
:mod:`repro.lint.exncheck` (exception flow) both need the same
front half: turn every parsed file of one invocation (the
:class:`~repro.lint.loader.SourceFile` list) into a symbol table
(imports resolved across modules, classes with their methods and lock
attributes, nested functions), then resolve call edges — direct names,
``self.method()`` within the class, locally constructed receivers
(``x = Cls(); x.m()``), dotted cross-module calls, and a
class-hierarchy-analysis union of same-named methods as the fallback
(container-protocol names are excluded from the union so ``d.get(...)``
does not alias every ``get`` in the tree).

This module holds that front half once: the dataclasses
(:class:`ModuleInfo`, :class:`ClassInfo`, :class:`FunctionInfo`,
:class:`CallRef`, :class:`SubmitSite`), the :class:`ModuleCollector`
that builds one :class:`ModuleInfo` per file, and the :class:`Project`
base class with the resolution machinery and the worker-boundary root
discovery (pool-submission call sites plus ``# lint: worker-boundary``
markers).  Each analyzer subclasses :class:`Project`, hands it a
:class:`~repro.lint.loader.Report` carrying its pragma, and layers its
domain analysis — effect propagation for parcheck, escape-set
fixpoints for exncheck — on top.  Each pass builds its own project
from each file's shared :class:`~repro.lint.syntax.SyntaxIndex`
rather than walking the tree again: imports, each function's own
nodes and local names, and ``self.X = Lock()`` attributes come from
the index, which both passes read as one object.  The
:class:`FunctionInfo` edges and effects are per pass; the trees and
the index are only read.

The model is acyclic, so a project and every tree and index only it
holds are freed by reference counting when its pass returns, not by
the cyclic collector (``tests/test_lint_cycles.py``).  Ownership runs
one way: project → modules → classes and functions → nested
functions.  No node points back to its module or enclosing function
or holds its call edges; :class:`Project` keeps those in lists
indexed by ``FunctionInfo.index`` (``module_of``, ``enclosing``,
``callees``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .loader import Report, SourceFile
from .syntax import (
    FUNC_NODES,
    FuncNode,
    FunctionSyntax,
    dotted_chain,
    is_lock_value,
)

#: Marks a function as a worker boundary even when no ``.submit`` call
#: site is visible to the analyzer (the engine marks ``_execute_chunk``).
WORKER_BOUNDARY_MARKER = "lint: worker-boundary"

#: Pool-submission method names whose first argument is the callable.
SUBMIT_METHODS = frozenset({"submit", "apply_async", "map"})

#: Container-protocol names excluded from the CHA union: binding
#: ``d.get(...)`` to every ``get`` method in the tree would wire the
#: whole project together through dict lookups.
COMMON_METHOD_NAMES = frozenset(
    {
        "get",
        "put",
        "set",
        "add",
        "pop",
        "update",
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
        "keys",
        "values",
        "items",
        "copy",
        "sort",
        "reverse",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "encode",
        "decode",
        "read",
        "write",
        "close",
        "open",
        "exists",
        "mkdir",
        "touch",
        "setdefault",
        "group",
        "match",
        "search",
        "sub",
        "inc",
        "observe",
        "describe",
        "render",
    }
)


def module_name(filename: str) -> str:
    """The dotted module name a project file provides.

    ``src/repro/engine/executor.py`` → ``repro.engine.executor``; files
    outside a recognizable package root fall back to their stem.
    """
    normalized = filename.replace("\\", "/")
    if normalized.endswith(".py"):
        normalized = normalized[: -len(".py")]
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro", "src"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "src":
                index += 1
            tail = parts[index:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else "<module>"


def is_lock_annotation(node: "Optional[ast.expr]") -> bool:
    if node is None:
        return False
    chain = dotted_chain(node)
    if chain and chain[-1] in ("Lock", "RLock"):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.endswith(("Lock", "RLock"))
    return False


# ---------------------------------------------------------------------------
# Project model.
# ---------------------------------------------------------------------------


@dataclass
class Effect:
    """One direct effect observed in a function body (analyzer-owned:
    parcheck records nondet/global/io effects, exncheck ignores it)."""

    kind: str  # "nondet" | "global" | "io"
    detail: str
    line: int
    column: int
    node: ast.AST


@dataclass
class CallRef:
    """One unresolved outgoing call edge."""

    kind: str  # "name" | "attr"
    name: str
    dotted: Optional[str] = None
    recv_class: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function or method in the project (``cls`` names the class
    of a method; ``index`` is set by :meth:`Project.add_module`)."""

    qualname: str
    name: str
    node: FuncNode
    syntax: FunctionSyntax
    cls: Optional[str] = None
    index: int = -1
    is_boundary: bool = False
    effects: "List[Effect]" = field(default_factory=list)
    calls: "List[CallRef]" = field(default_factory=list)
    children: "Dict[str, FunctionInfo]" = field(default_factory=dict)


@dataclass
class AttrAccess:
    """One ``self.X`` (or module-global) access for lock analysis."""

    name: str
    write: bool
    locked: bool
    node: ast.AST
    where: str  # the method/function the access sits in


@dataclass
class ClassInfo:
    """One class: its methods, bases and lock attributes."""

    name: str
    node: "Optional[ast.ClassDef]" = None
    methods: "Dict[str, FunctionInfo]" = field(default_factory=dict)
    bases: "List[str]" = field(default_factory=list)
    lock_attrs: "Set[str]" = field(default_factory=set)
    accesses: "List[AttrAccess]" = field(default_factory=list)


@dataclass
class SubmitSite:
    """One pool-submission call site."""

    call: ast.Call
    func: "Optional[FunctionInfo]"  # the enclosing function
    module: "ModuleInfo"


@dataclass
class ModuleInfo:
    """One parsed file of the project."""

    source: SourceFile
    filename: str
    modname: str
    sanctioned: bool
    imports: "Dict[str, str]" = field(default_factory=dict)
    global_names: "Set[str]" = field(default_factory=set)
    module_locks: "Set[str]" = field(default_factory=set)
    functions: "Dict[str, FunctionInfo]" = field(default_factory=dict)
    #: Every function of the file, nested ones included, in pre-order.
    all_functions: "List[FunctionInfo]" = field(default_factory=list)
    classes: "Dict[str, ClassInfo]" = field(default_factory=dict)
    global_accesses: "List[AttrAccess]" = field(default_factory=list)

    @property
    def is_package_init(self) -> bool:
        """Is this file a package ``__init__.py`` (a public surface)?"""
        return self.filename.replace("\\", "/").endswith("__init__.py")


# ---------------------------------------------------------------------------
# Discovery: one file → ModuleInfo (symbols, locks, function tree).
# ---------------------------------------------------------------------------


class ModuleCollector:
    """Builds the :class:`ModuleInfo` symbol table for one file."""

    def __init__(self, source: SourceFile, sanctioned: bool = False) -> None:
        self.module = ModuleInfo(
            source=source,
            filename=source.filename,
            modname=module_name(source.filename),
            sanctioned=sanctioned,
        )

    def collect(self) -> ModuleInfo:
        module = self.module
        self._collect_imports()
        for node in module.source.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module.global_names.add(target.id)
                        if is_lock_value(node.value):
                            module.module_locks.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    module.global_names.add(node.target.id)
                    if node.value is not None and is_lock_value(node.value):
                        module.module_locks.add(node.target.id)
            elif isinstance(node, FUNC_NODES):
                self._collect_function(node, cls=None, parent=None)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
        # Locks are synchronization primitives, not shared state.
        module.global_names -= module.module_locks
        return module

    def _collect_imports(self) -> None:
        module = self.module
        package_parts = module.modname.split(".")
        for node in module.source.syntax.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    module.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Resolve ``from ..x import y`` against our package.
                    anchor = package_parts[: len(package_parts) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    dotted = f"{base}.{alias.name}" if base else alias.name
                    module.imports[bound] = dotted

    def _marked_boundary(self, node: FuncNode) -> bool:
        marked = self.module.source.pragma_lines(WORKER_BOUNDARY_MARKER)
        return node.lineno in marked

    def _collect_function(
        self,
        node: FuncNode,
        cls: "Optional[str]",
        parent: "Optional[FunctionInfo]",
    ) -> FunctionInfo:
        module = self.module
        if parent is not None:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
        elif cls is not None:
            qualname = f"{module.modname}.{cls}.{node.name}"
        else:
            qualname = f"{module.modname}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            syntax=module.source.syntax.functions[node],
            cls=cls,
            is_boundary=self._marked_boundary(node),
        )
        if parent is not None:
            parent.children[node.name] = info
        elif cls is None:
            module.functions[node.name] = info
        for child in node.body:
            if isinstance(child, FUNC_NODES):
                self._collect_function(child, cls=None, parent=info)
        return info

    def _collect_class(self, node: ast.ClassDef) -> None:
        module = self.module
        info = ClassInfo(name=node.name, node=node)
        for base in node.bases:
            chain = dotted_chain(base)
            if chain:
                info.bases.append(chain[-1])
        for member in node.body:
            if isinstance(member, FUNC_NODES):
                info.methods[member.name] = self._collect_function(
                    member, cls=node.name, parent=None
                )
            elif isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                if is_lock_annotation(member.annotation) or (
                    member.value is not None and is_lock_value(member.value)
                ):
                    info.lock_attrs.add(member.target.id)
            elif isinstance(member, ast.Assign):
                for target in member.targets:
                    if isinstance(target, ast.Name) and is_lock_value(member.value):
                        info.lock_attrs.add(target.id)
        # ``self._lock = threading.Lock()`` inside any method.
        for method in info.methods.values():
            info.lock_attrs.update(method.syntax.lock_attrs)
        module.classes[node.name] = info


# ---------------------------------------------------------------------------
# The project base: module registry + call-graph resolution + roots.
# ---------------------------------------------------------------------------


class Project:
    """All modules of one analyzer invocation, resolved together.

    Subclasses pass their :class:`~repro.lint.loader.Report` and may
    override :meth:`sanctioned` (path fragments whose effects the
    analyzer deliberately ignores) and :attr:`skip_method_names` (the
    CHA-union exclusion list).
    """

    #: Method names excluded from the CHA fallback union.
    skip_method_names: "FrozenSet[str]" = COMMON_METHOD_NAMES

    def __init__(self, report: Report) -> None:
        self.report = report
        self.modules: "List[ModuleInfo]" = []
        self.modules_by_name: "Dict[str, ModuleInfo]" = {}
        self.submit_sites: "List[SubmitSite]" = []
        self._methods_by_name: "Dict[str, List[FunctionInfo]]" = {}
        #: Every function, module by module, each module's in pre-order,
        #: and by the same index each one's module, enclosing function
        #: and (after :meth:`resolve_edges`) callees.
        self.functions: "List[FunctionInfo]" = []
        self.module_of: "List[ModuleInfo]" = []
        self.enclosing: "List[Optional[FunctionInfo]]" = []
        self.callees: "List[List[FunctionInfo]]" = []

    def sanctioned(self, filename: str) -> bool:
        """Is this file's *effect* analysis waived?  Default: never."""
        return False

    def add_module(self, source: SourceFile) -> None:
        module = ModuleCollector(
            source, sanctioned=self.sanctioned(source.filename)
        ).collect()
        self.modules.append(module)
        self.modules_by_name[module.modname] = module
        # Number the functions in pre-order (each before its nested
        # ones) with an explicit stack, and index methods for CHA.
        roots = [*module.functions.values()] + [
            method for cls in module.classes.values() for method in cls.methods.values()
        ]
        stack: "List[Tuple[FunctionInfo, Optional[FunctionInfo]]]" = [
            (func, None) for func in reversed(roots)
        ]
        while stack:
            func, enclosing = stack.pop()
            func.index = len(self.functions)
            self.functions.append(func)
            self.module_of.append(module)
            self.enclosing.append(enclosing)
            module.all_functions.append(func)
            if func.cls is not None:
                self._methods_by_name.setdefault(func.name, []).append(func)
            stack.extend((child, func) for child in reversed(func.children.values()))

    def emit(
        self, module: ModuleInfo, code: str, message: str, hint: str, node: ast.AST
    ) -> None:
        """Report a finding in ``module`` (pragma-suppressed, de-duplicated)."""
        self.report.emit(module.source, code, message, hint, node)

    def finish(self) -> "List[Diagnostic]":
        """Stale pragmas, then every finding in file/line/code order."""
        for module in self.modules:
            self.report.stale(module.source)
        self.report.findings.sort(
            key=lambda d: (d.file or "", d.line or 0, d.code, d.message)
        )
        return self.report.finish()

    def resolve_edges(self) -> None:
        """Resolve every function's recorded :class:`CallRef` edges
        into :attr:`callees` (call once)."""
        for func in self.functions:
            callees: "List[FunctionInfo]" = []
            # Deduplicate by qualname while keeping deterministic order.
            seen: "Set[str]" = set()
            for ref in func.calls:
                for target in self.resolve(ref, func):
                    if target.qualname not in seen:
                        seen.add(target.qualname)
                        callees.append(target)
            self.callees.append(callees)

    def resolve(
        self, ref: CallRef, caller: FunctionInfo
    ) -> "List[FunctionInfo]":
        module = self.module_of[caller.index]
        if ref.kind == "name":
            scope: "Optional[FunctionInfo]" = caller
            while scope is not None:
                if ref.name in scope.children:
                    return [scope.children[ref.name]]
                scope = self.enclosing[scope.index]
            if ref.name in module.functions:
                return [module.functions[ref.name]]
            if ref.name in module.classes:
                return self.constructor_targets(module.classes[ref.name])
            if ref.dotted is not None:
                return self.resolve_dotted(ref.dotted)
            return []
        # Attribute call.
        if ref.recv_class is not None:
            found = self.method_in_hierarchy(module, ref.recv_class, ref.name)
            if found is not None:
                return [found]
        if ref.dotted is not None:
            resolved = self.resolve_dotted(ref.dotted)
            if resolved:
                return resolved
        if ref.name in self.skip_method_names:
            return []
        return list(self._methods_by_name.get(ref.name, []))

    def constructor_targets(self, cls: ClassInfo) -> "List[FunctionInfo]":
        targets = []
        for name in ("__init__", "__post_init__"):
            if name in cls.methods:
                targets.append(cls.methods[name])
        return targets

    def method_in_hierarchy(
        self, module: ModuleInfo, class_name: str, method: str
    ) -> "Optional[FunctionInfo]":
        visited: "Set[str]" = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            for candidate_module in (module, *self.modules):
                cls = candidate_module.classes.get(current)
                if cls is not None:
                    if method in cls.methods:
                        return cls.methods[method]
                    queue.extend(cls.bases)
                    break
        return None

    def resolve_dotted(self, dotted: str) -> "List[FunctionInfo]":
        modname, _, attr = dotted.rpartition(".")
        module = self.modules_by_name.get(modname)
        if module is None:
            return []
        if attr in module.functions:
            return [module.functions[attr]]
        if attr in module.classes:
            return self.constructor_targets(module.classes[attr])
        return []

    def worker_roots(self) -> "List[Tuple[FunctionInfo, str]]":
        """Worker-boundary root functions and how each became one:
        resolved pool-submission callables plus marker-carrying defs."""
        roots: "List[Tuple[FunctionInfo, str]]" = []
        seen: "Set[str]" = set()
        for site in self.submit_sites:
            call = site.call
            if not call.args:
                continue
            first = call.args[0]
            resolved: "List[FunctionInfo]" = []
            if isinstance(first, ast.Name):
                caller = site.func
                ref = CallRef(
                    kind="name",
                    name=first.id,
                    dotted=site.module.imports.get(first.id, first.id),
                )
                if caller is not None:
                    resolved = self.resolve(ref, caller)
            via = (
                f"pool submission in "
                f"{site.func.qualname if site.func else site.module.modname}"
            )
            for target in resolved:
                if target.qualname not in seen:
                    seen.add(target.qualname)
                    roots.append((target, via))
        for func in self.functions:
            if func.is_boundary and func.qualname not in seen:
                seen.add(func.qualname)
                roots.append((func, f"`# {WORKER_BOUNDARY_MARKER}` marker"))
        return roots
