"""Examples run end to end as standalone scripts.

CI only lints ``examples/``; these run the two that drive the
telemetry API and the one that drives :mod:`repro.portfolio`, each in
a fresh interpreter from a scratch directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script",
    ["traced_evaluation.py", "run_observatory.py", "multi_object_portfolio.py"],
)
def test_example_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
