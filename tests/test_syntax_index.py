"""The syntax index against the walks it replaced, node for node.

Every lint pass reads one :class:`~repro.lint.syntax.SyntaxIndex` per
file instead of walking the tree again.  This oracle keeps the
per-pass walkers the index replaced as reference functions and checks,
over every module of ``src/repro`` and of the benchmark's pinned lint
corpus (``perfbench/corpus.tar.gz``, extracted read-only), that the
index holds exactly what they produce: the same nodes in the same
order, since the passes' messages name call paths found in that order.

It also checks the index's lifetime: one ``lint_targets`` call builds
each file's index once, and the two interprocedural passes read the
same object.
"""

import ast
import tarfile
from pathlib import Path

import pytest

from repro.lint import callgraph, exncheck, parcheck
from repro.lint.allcheck import lint_targets
from repro.lint.loader import load_source
from repro.lint.syntax import FUNC_NODES, SyntaxIndex, is_lock_value

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "perfbench" / "corpus.tar.gz"


# -- the reference walkers ---------------------------------------------------


def reference_imports(tree):
    """The import walk of the call-graph collector and of dimcheck."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def reference_keyword_calls(tree):
    """exncheck's field-binding walk."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.keywords
    ]


def _walk_shallow(stmt):
    stack = [stmt]
    while stack:
        current = stack.pop()
        if isinstance(current, (*FUNC_NODES, ast.Lambda, ast.ClassDef)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def reference_shallow(node):
    """exncheck's walk of a function body without nested scopes."""
    for stmt in node.body:
        yield from _walk_shallow(stmt)


def reference_local_names(node):
    """The call-graph's names bound inside a function."""
    names = set()
    arguments = node.args
    for arg in (
        list(arguments.posonlyargs)
        + list(arguments.args)
        + list(arguments.kwonlyargs)
    ):
        names.add(arg.arg)
    if arguments.vararg:
        names.add(arguments.vararg.arg)
    if arguments.kwarg:
        names.add(arguments.kwarg.arg)
    stack = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, (*FUNC_NODES, ast.Lambda, ast.ClassDef)):
            if isinstance(current, (*FUNC_NODES, ast.ClassDef)):
                names.add(current.name)
            continue
        if isinstance(current, ast.Name) and isinstance(
            current.ctx, (ast.Store, ast.Del)
        ):
            names.add(current.id)
        elif isinstance(current, (ast.Import, ast.ImportFrom)):
            for alias in current.names:
                names.add((alias.asname or alias.name).split(".", 1)[0])
        elif isinstance(current, ast.ExceptHandler) and current.name:
            names.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return names


def reference_lock_attrs(method):
    """The call-graph's ``self.X = Lock()`` scan of one method."""
    found = set()
    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Assign) and is_lock_value(stmt.value):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    found.add(target.attr)
    return found


# -- the oracle --------------------------------------------------------------


def _same_nodes(observed, expected):
    return len(observed) == len(expected) and all(
        a is b for a, b in zip(observed, expected)
    )


def check_file(path):
    source = load_source(str(path), path.read_text(encoding="utf-8"))
    tree = source.tree
    index = source.syntax
    assert _same_nodes(index.imports, reference_imports(tree)), path
    assert _same_nodes(index.keyword_calls, reference_keyword_calls(tree)), path
    functions = [n for n in ast.walk(tree) if isinstance(n, FUNC_NODES)]
    assert len(index.functions) == len(functions), path
    for node in functions:
        syntax = index.functions[node]
        where = f"{path}:{node.lineno}"
        assert _same_nodes(syntax.shallow, list(reference_shallow(node))), where
        assert syntax.local_names == reference_local_names(node), where
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for member in cls.body:
                if isinstance(member, FUNC_NODES):
                    assert index.functions[member].lock_attrs == (
                        reference_lock_attrs(member)
                    ), f"{path}:{member.lineno}"


def _modules(root):
    return sorted(root.rglob("*.py"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    with tarfile.open(CORPUS) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(root, filter="data")
        else:
            archive.extractall(root)
    return root


def test_index_matches_walkers_on_the_source_tree():
    modules = _modules(ROOT / "src" / "repro")
    assert len(modules) > 100
    for path in modules:
        check_file(path)


def test_index_matches_walkers_on_the_benchmark_corpus(corpus):
    modules = _modules(corpus)
    assert len(modules) > 100
    for path in modules:
        check_file(path)


def test_index_orders_nested_scopes_like_the_walkers(tmp_path):
    path = tmp_path / "nested.py"
    path.write_text(
        "import os\n"
        "from . import a as b\n"
        "class Box:\n"
        "    lock = field(default_factory=threading.Lock)\n"
        "    def __init__(self, *args, key=None, **extra):\n"
        "        import json as j, os.path\n"
        "        self._lock = threading.RLock()\n"
        "        self.other, self.x = Lock(), 1\n"
        "        def inner(q):\n"
        "            self._guard = Lock()\n"
        "            return [y for y in q if f(y, k=1)]\n"
        "        class Local:\n"
        "            def m(self):\n"
        "                self._m = Lock()\n"
        "        try:\n"
        "            del key\n"
        "        except (ValueError, KeyError) as exc:\n"
        "            g(lambda z: h(z, w=2), exc=exc)\n"
        "        for a, (b, c) in pairs(p=1):\n"
        "            with open(a) as handle:\n"
        "                yield handle.read(n=c)\n"
        "async def run(x, /, y):\n"
        "    async with guard(t=1) as held:\n"
        "        await held.go(z=x)\n",
        encoding="utf-8",
    )
    check_file(path)


# -- the lifetime ------------------------------------------------------------


def test_one_build_per_file_shared_by_the_passes(monkeypatch):
    builds = {}
    built = SyntaxIndex.__init__

    def counting(self, tree):
        builds[id(tree)] = builds.get(id(tree), 0) + 1
        built(self, tree)

    monkeypatch.setattr(SyntaxIndex, "__init__", counting)
    seen = {}
    current = []
    for module in (parcheck, exncheck):
        run = module.lint_paths

        def wrapped(sources, run=run, name=module.__name__):
            current.append(name)
            try:
                return run(sources)
            finally:
                current.pop()

        monkeypatch.setattr(module, "lint_paths", wrapped)
    collector = callgraph.ModuleCollector.__init__

    def recording(self, source, sanctioned=False):
        seen.setdefault(source.filename, {})[current[-1]] = source.syntax
        collector(self, source, sanctioned)

    monkeypatch.setattr(callgraph.ModuleCollector, "__init__", recording)
    lint_targets([], [str(ROOT / "src" / "repro" / "risk")])
    assert builds and set(builds.values()) == {1}
    assert len(seen) == len(builds)
    for filename, by_pass in seen.items():
        assert set(by_pass) == {parcheck.__name__, exncheck.__name__}, filename
        assert by_pass[parcheck.__name__] is by_pass[exncheck.__name__], filename
