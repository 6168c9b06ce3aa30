"""Import layering: a process loads only the code it uses.

The package roots resolve their names on first use (PEP 562), numpy is
bound inside the functions that fold, sample or read traces, and the
engine imports the process-pool modules when it builds a pool.  Each
check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")

#: The run observatory, which evaluation code must not load.
OBSERVATORY = {"repro.obs.ledger", "repro.obs.runs", "repro.obs.diff", "repro.obs.profile"}
#: What only a process pool needs.
POOL = {"multiprocessing", "concurrent.futures.process"}


def run_python(code: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


def modules_after(statement: str) -> "set[str]":
    result = run_python(f"import sys\n{statement}\nprint(*sys.modules)")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_core_loads_no_numpy_engine_or_observatory():
    modules = modules_after("import repro.core")
    assert "numpy" not in modules
    assert not {m for m in modules if m.split(".")[:2] == ["repro", "engine"]}
    assert not modules & OBSERVATORY
    assert not modules & POOL


@pytest.mark.parametrize("module", ["repro.cli", "repro.risk"])
def test_cli_and_risk_load_no_numpy(module):
    modules = modules_after(f"import {module}")
    assert "numpy" not in modules
    assert not modules & POOL


def test_cli_loads_no_engine_or_spec_reader():
    # list-designs, lint and runs never evaluate: the engine and the
    # spec reader load inside the commands that do.
    modules = modules_after("import repro.cli")
    assert not {m for m in modules if m.split(".")[:2] == ["repro", "engine"]}
    assert "repro.serialization" not in modules


def test_lint_loads_no_numpy():
    # Linting a spec builds its ensemble (to report DEP000 on a broken
    # one) but never folds it.
    modules = modules_after(
        "from repro.cli import main\n"
        "assert main(['lint', 'examples/specs/risk_ensemble.json']) == 0"
    )
    assert "numpy" not in modules
    assert "repro.risk.ensemble" in modules


def test_first_fold_loads_numpy():
    result = run_python(
        """
        import sys
        from repro import casestudy
        from repro.risk import EnsembleMember, ScenarioEnsemble, assess_risk
        from repro.scenarios import FailureScenario
        from repro.workload import cello

        ensemble = ScenarioEnsemble("one", [EnsembleMember.per_year(
            "array", FailureScenario.array_failure("primary-array"), 0.5)])
        assert "numpy" not in sys.modules
        assess_risk(casestudy.baseline_design(), cello(), ensemble,
                    casestudy.case_study_requirements())
        assert "numpy" in sys.modules
        """
    )
    assert result.returncode == 0, result.stderr


def test_optimize_runs_without_numpy():
    # ``sys.modules['numpy'] = None`` makes any numpy import raise.
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from repro.cli import main\n"
        "raise SystemExit(main(['optimize']))"
    )
    blocked = run_python(code)
    assert blocked.returncode == 0, blocked.stderr
    normal = run_python(code.replace("sys.modules['numpy'] = None", "pass"))
    assert blocked.stdout == normal.stdout
