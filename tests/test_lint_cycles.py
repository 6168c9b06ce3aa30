"""A lint request leaves no cyclic garbage.

The interprocedural passes' project model points one way only
(project → modules → classes and functions → nested functions; call
edges and enclosing scopes live in project-owned lists), so every
tree, syntax index and symbol table a ``lint_targets`` call builds is
freed by reference counting when the call returns.  With the cyclic
collector disabled, a lint request followed by ``gc.collect()`` must
find nothing to reclaim.  A back-pointer or a self-referencing
closure in the model makes these tests fail with the count of
objects it stranded.

The inputs are the golden report's (the planted ``perfbench`` corpus,
one package group per request, plus the snippet package that fires
every PAR and EXN rule) and the lint package's own sources.  The PAR
and EXN passes are also checked on their own, so a failure names the
pass that leaks.
"""

import gc
from pathlib import Path

import pytest

from repro.lint import exncheck, parcheck
from repro.lint.allcheck import lint_targets
from repro.lint.loader import load_paths
from tests.test_lint_golden import SEED, SNIPPETS, workloads

LINT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro" / "lint"


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    """Each request's paths: the corpus groups, then the snippets."""
    workdir = tmp_path_factory.mktemp("lint-cycles")
    workload = workloads.Lint(SEED, False, workdir)
    workload.setup()
    package = workdir / "snippets"
    package.mkdir()
    for name, text in SNIPPETS.items():
        (package / name).write_text(text, encoding="utf-8")
    return [paths for _, paths, _, _ in workload.requests] + [[str(package)]]


def _cyclic_garbage(run):
    """Objects ``gc.collect()`` reclaims after ``run()`` with the
    collector off: what reference counting could not free."""
    run()  # warm up: first-use imports and caches are not garbage
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_golden_requests_leave_no_cycles(golden_paths):
    def run():
        for paths in golden_paths:
            lint_targets([], paths)

    assert _cyclic_garbage(run) == 0


def test_lint_package_leaves_no_cycles():
    assert _cyclic_garbage(lambda: lint_targets([], [str(LINT_PACKAGE)])) == 0


@pytest.mark.parametrize("lint_pass", [parcheck, exncheck], ids=["parcheck", "exncheck"])
def test_interprocedural_pass_leaves_no_cycles(golden_paths, lint_pass):
    sources = [load_paths(paths) for paths in golden_paths]
    sources.append(load_paths([str(LINT_PACKAGE)]))

    def run():
        for group in sources:
            lint_pass.lint_paths(group)

    assert _cyclic_garbage(run) == 0
