"""One traversal per file: the syntax the code passes share.

:mod:`~repro.lint.dimcheck`, :mod:`~repro.lint.parcheck` and
:mod:`~repro.lint.exncheck` each need the same few facts about every
tree: its imports, its calls with keyword arguments, and for each
function the nodes of its own body and the names it binds.  A
:class:`SyntaxIndex` collects all of them in one traversal of a
:class:`~repro.lint.loader.SourceFile`'s tree.  The source builds it on
first use (``source.syntax``) and keeps it, so the index lives exactly
as long as the ``lint_targets`` call that loaded the file, and its
build lands in whichever pass reads it first.  It never parses: it
reads the tree :func:`~repro.lint.loader.load_source` made.

The index holds:

* :attr:`SyntaxIndex.imports`: every ``Import``/``ImportFrom`` node;
* :attr:`SyntaxIndex.keyword_calls`: every ``Call`` with keyword
  arguments;
* :attr:`SyntaxIndex.functions`: a :class:`FunctionSyntax` per
  function node.

Imports and keyword calls come in ``ast.walk`` order (breadth first),
so a name bound twice resolves to the binding ``ast.walk`` meets last.
A function's shallow nodes come statement by statement, each statement
depth first with its last child first, and stop at nested defs,
lambdas and classes; the call paths the passes print depend on that
order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TypeVar, Union

FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Nodes with a scope of their own: a function's shallow walk stops there.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)
_BINDING = (ast.Store, ast.Del)
#: The node types that need more than filing under their function.  The
#: traversal tests a node's exact type against this set first (the
#: parser makes no subclasses), then sorts the few hits with isinstance.
_SPECIAL = frozenset(
    (*_SCOPES, *_IMPORTS, ast.Call, ast.Assign, ast.Name, ast.ExceptHandler)
)

_Node = TypeVar("_Node", bound=ast.AST)


def dotted_chain(node: ast.expr) -> "Optional[List[str]]":
    """``a.b.c`` as ``["a", "b", "c"]``, or None for non-name chains."""
    parts: "List[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_lock_value(node: ast.expr) -> bool:
    """Is ``node`` a ``threading.Lock()`` / ``RLock()`` construction?"""
    if not isinstance(node, ast.Call):
        return False
    chain = dotted_chain(node.func)
    if chain and chain[-1] in ("Lock", "RLock"):
        return True
    # dataclasses.field(default_factory=threading.Lock)
    if chain and chain[-1] == "field":
        for keyword in node.keywords:
            if keyword.arg == "default_factory":
                inner = dotted_chain(keyword.value)
                if inner and inner[-1] in ("Lock", "RLock"):
                    return True
    return False


@dataclass(frozen=True)
class FunctionSyntax:
    """What one function's body holds, without its nested scopes.

    ``lock_attrs`` is filled for a method defined directly in a class
    body: the ``X`` of every ``self.X = <lock>`` assignment anywhere
    inside it, nested defs included.
    """

    shallow: "Tuple[ast.AST, ...]"
    local_names: "FrozenSet[str]"
    lock_attrs: "FrozenSet[str]"


class _Scope:
    """A function's facts while the traversal collects them."""

    __slots__ = ("shallow", "names", "locks")

    def __init__(self, node: "Optional[FuncNode]") -> None:
        self.shallow: "List[ast.AST]" = []
        self.names: "Set[str]" = set()
        self.locks: "Set[str]" = set()
        if node is not None:
            arguments = node.args
            for arg in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs
            ):
                self.names.add(arg.arg)
            if arguments.vararg:
                self.names.add(arguments.vararg.arg)
            if arguments.kwarg:
                self.names.add(arguments.kwarg.arg)

    def freeze(self) -> FunctionSyntax:
        return FunctionSyntax(
            tuple(self.shallow), frozenset(self.names), frozenset(self.locks)
        )


#: Where a node sits: its parent's link and its index among the
#: parent's children; None for the module.
_Link = Optional[Tuple["_Link", int]]

#: The traversal's stack entry: the node, the function whose shallow
#: walk it belongs to, the class-body method it is inside, its link.
_Entry = Tuple[ast.AST, Optional[_Scope], Optional[_Scope], _Link]

#: Marks a class's methods on the stack: each becomes its own method scope.
_CLASS_MEMBER = _Scope(None)


def _walk_order(found: "List[Tuple[_Link, _Node]]") -> "List[_Node]":
    """``found`` in ``ast.walk`` order: by depth, then left to right."""
    keyed: "List[Tuple[int, List[int], _Node]]" = []
    for link, node in found:
        path: "List[int]" = []
        while link is not None:
            link, index = link
            path.append(index)
        path.reverse()
        keyed.append((len(path), path, node))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [node for _, _, node in keyed]


class SyntaxIndex:
    """One file's imports, keyword calls and per-function syntax."""

    def __init__(self, tree: ast.Module) -> None:
        imports: "List[Tuple[_Link, Union[ast.Import, ast.ImportFrom]]]" = []
        calls: "List[Tuple[_Link, ast.Call]]" = []
        scopes: "Dict[ast.AST, _Scope]" = {}
        stack: "List[_Entry]" = [(tree, None, None, None)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, scope, method, link = pop()
            if type(node) not in _SPECIAL:
                if scope is not None:
                    scope.shallow.append(node)
            elif isinstance(node, ast.Name):
                if scope is not None:
                    scope.shallow.append(node)
                    if isinstance(node.ctx, _BINDING):
                        scope.names.add(node.id)
            elif isinstance(node, _SCOPES):
                if scope is not None and not isinstance(node, ast.Lambda):
                    scope.names.add(node.name)
                self._push_scope(node, method, link, scopes, stack)
                continue
            else:
                self._special(node, scope, method, link, imports, calls)
            index = 0
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            push((item, scope, method, (link, index)))
                            index += 1
                elif isinstance(value, ast.AST):
                    push((value, scope, method, (link, index)))
                    index += 1
        #: Every ``Import``/``ImportFrom`` node, in ``ast.walk`` order.
        self.imports = _walk_order(imports)
        #: Every ``Call`` with keyword arguments, in ``ast.walk`` order.
        self.keyword_calls = _walk_order(calls)
        #: Each function node's :class:`FunctionSyntax`, every def in
        #: the tree included.
        self.functions: "Dict[ast.AST, FunctionSyntax]" = {
            node: scope.freeze() for node, scope in scopes.items()
        }

    @staticmethod
    def _special(
        node: ast.AST,
        scope: "Optional[_Scope]",
        method: "Optional[_Scope]",
        link: _Link,
        imports: "List[Tuple[_Link, Union[ast.Import, ast.ImportFrom]]]",
        calls: "List[Tuple[_Link, ast.Call]]",
    ) -> None:
        """Record an import, keyword call, lock assignment or handler."""
        if isinstance(node, _IMPORTS):
            imports.append((link, node))
        elif isinstance(node, ast.Call):
            if node.keywords:
                calls.append((link, node))
        elif isinstance(node, ast.Assign):
            if method is not None and is_lock_value(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        method.locks.add(target.attr)
        if scope is not None:
            scope.shallow.append(node)
            if isinstance(node, _IMPORTS):
                for alias in node.names:
                    scope.names.add((alias.asname or alias.name).split(".", 1)[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                scope.names.add(node.name)

    @staticmethod
    def _push_scope(
        node: ast.AST,
        method: "Optional[_Scope]",
        link: _Link,
        scopes: "Dict[ast.AST, _Scope]",
        stack: "List[_Entry]",
    ) -> None:
        """Push a def's, lambda's or class's children.

        A function's body starts its own shallow walk, statement by
        statement in order; everything else under a scope node belongs
        to no function's walk.
        """
        own: "Optional[_Scope]" = None
        if isinstance(node, FUNC_NODES):
            own = scopes[node] = _Scope(node)
            if method is _CLASS_MEMBER:
                method = own
        body: "List[_Entry]" = []
        index = 0
        for name in node._fields:
            value = getattr(node, name, None)
            items = value if isinstance(value, list) else [value]
            for item in items:
                if not isinstance(item, ast.AST):
                    continue
                child_link = (link, index)
                index += 1
                if own is not None and name == "body":
                    body.append((item, own, method, child_link))
                elif (
                    isinstance(node, ast.ClassDef)
                    and method is None
                    and isinstance(item, FUNC_NODES)
                ):
                    stack.append((item, None, _CLASS_MEMBER, child_link))
                else:
                    stack.append((item, None, method, child_link))
        body.reverse()
        stack.extend(body)
