"""The golden lint report: every diagnostic of a fixed input, exactly.

The input is the benchmark's planted lint corpus (``perfbench``'s
pinned ``src/repro`` tree with seeded bugs, linted one package group
at a time as the ``lint`` workload does), a small package of snippets
that fire every PAR rule and EXN001-EXN004 across module boundaries,
and the repository's example specs.  EXN and PAR messages name call
paths, so the report pins the order in which the passes walk trees
and resolve calls, not only what they find.

``tests/data/lint_golden.json`` holds the full report: code, file
relative to the input's root, line, column, message and hint, in
report order.  A change to the analyzers that alters any of it fails
here; a deliberate change regenerates the file with::

    PYTHONPATH=src python tests/test_lint_golden.py --write

``perfbench/`` is imported read-only; the corpus is extracted under the
test's ``tmp_path``.
"""

import json
import sys
from pathlib import Path

from repro.lint.allcheck import lint_targets

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "lint_golden.json"
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

SEED = 3

#: A package whose modules fire PAR001-PAR005 and EXN001-EXN004, with
#: findings reached through calls across modules and methods.
SNIPPETS = {
    "__init__.py": "",
    "errors.py": (
        "class ReproError(Exception):\n"
        "    pass\n"
        "class DeviceError(ReproError):\n"
        "    pass\n"
        "class CapacityExceededError(DeviceError):\n"
        "    pass\n"
        "class QuotaError(ReproError):\n"
        "    def __init__(self, need, have):\n"
        "        super().__init__(f'{need} > {have}')\n"
        "        self.need = need\n"
        "        self.have = have\n"
        "class EngineFault(Exception):\n"
        "    pass\n"
    ),
    "helpers.py": (
        "import os\n"
        "import time\n"
        "import uuid\n"
        "from .errors import DeviceError, EngineFault, QuotaError\n"
        "\n"
        "_STATE = {}\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "def guard(x):\n"
        "    if x < 0:\n"
        "        raise QuotaError(x, 0)\n"
        "    return x\n"
        "\n"
        "def parse(raw):\n"
        "    if not raw:\n"
        "        raise DeviceError('bad spec')\n"
        "    return raw\n"
        "\n"
        "def fail():\n"
        "    raise EngineFault('broken')\n"
        "\n"
        "class Nonce:\n"
        "    def fresh_token(self):\n"
        "        return uuid.uuid4().hex\n"
        "\n"
        "def order(x):\n"
        "    return [item for item in {1, 2, x}]\n"
        "\n"
        "def remember(key):\n"
        "    _STATE[key] = os.environ.get('SEED')\n"
        "    print(key)\n"
    ),
    "tasks.py": (
        "import json\n"
        "import threading\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from . import helpers\n"
        "from .errors import CapacityExceededError, DeviceError, ReproError\n"
        "from .helpers import Nonce, guard, order, parse, remember, stamp\n"
        "\n"
        "def task(x, *, label=None):\n"
        "    remember(x)\n"
        "    token = Nonce().fresh_token()\n"
        "    out = order(x)\n"
        "    return json.dumps({'t': stamp(), 'g': guard(x), 'k': token, 'o': out})\n"
        "\n"
        "def other(x):\n"
        "    return helpers.stamp() + x\n"
        "\n"
        "def sweep(pool, items):\n"
        "    futures = [pool.submit(task, i, label='run') for i in items]\n"
        "    futures.append(pool.submit(other, 1))\n"
        "    futures.append(pool.submit(lambda: 1))\n"
        "    futures.append(pool.submit(task, (i for i in items)))\n"
        "    return futures\n"
        "\n"
        "def load(raw):\n"
        "    try:\n"
        "        return parse(raw)\n"
        "    except Exception:\n"
        "        return None\n"
        "\n"
        "def fetch(raw):\n"
        "    try:\n"
        "        return parse(raw)\n"
        "    except CapacityExceededError:\n"
        "        return None\n"
        "\n"
        "def collect(levels):\n"
        "    errors = []\n"
        "    for level in levels:\n"
        "        try:\n"
        "            load(level)\n"
        "            parse(level)\n"
        "        except BaseException as exc:\n"
        "            errors.append(f'level {level}: {exc}')\n"
        "    return errors\n"
        "\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.counts = {}\n"
        "    def bump(self, name):\n"
        "        with self._lock:\n"
        "            self.counts[name] = self.counts.get(name, 0) + 1\n"
        "    def peek(self):\n"
        "        return dict(self.counts)\n"
        "    def wipe(self):\n"
        "        self.counts.clear()\n"
        "\n"
        "def main():\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return sweep(pool, range(3))\n"
    ),
    "cli.py": (
        "from .helpers import fail\n"
        "from .tasks import collect\n"
        "\n"
        "def shallow():\n"
        "    return fail()\n"
        "\n"
        "def cmd_run(args):\n"
        "    collect(args)\n"
        "    return shallow()\n"
        "\n"
        "def wire(sub):\n"
        "    sub.set_defaults(func=cmd_run)\n"
    ),
}


def _rows(findings, root):
    rows = []
    for finding in findings:
        name = finding.file
        if name is not None:
            path = Path(name)
            name = (path.relative_to(root) if path.is_absolute() else path).as_posix()
        rows.append(
            {
                "code": finding.code,
                "file": name,
                "line": finding.line,
                "column": finding.column,
                "message": finding.message,
                "hint": finding.hint,
            }
        )
    return rows


def golden_report(workdir):
    """The full report over the planted corpus, the snippets and the specs."""
    workload = workloads.Lint(SEED, False, workdir)
    workload.setup()
    report = []
    for _, paths, _, _ in workload.requests:
        report.extend(_rows(lint_targets([], paths), workdir))
    package = workdir / "snippets"
    package.mkdir()
    for name, text in SNIPPETS.items():
        (package / name).write_text(text, encoding="utf-8")
    report.extend(_rows(lint_targets([], [str(package)]), workdir))
    specs = sorted(ROOT.glob("examples/specs/*.json"))
    report.extend(
        _rows(lint_targets([str(p.relative_to(ROOT)) for p in specs], []), ROOT)
    )
    return report


def test_report_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    observed = golden_report(tmp_path)
    assert len(observed) == len(expected)
    for index, (seen, want) in enumerate(zip(observed, expected)):
        assert seen == want, index
    codes = {row["code"] for row in observed}
    assert {"PAR001", "PAR002", "PAR003", "PAR004", "PAR005"} <= codes
    assert {"EXN001", "EXN002", "EXN003", "EXN004"} <= codes


if __name__ == "__main__":
    import os
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_lint_golden.py --write")
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        rows = golden_report(Path(scratch).resolve())
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} diagnostics to {GOLDEN.relative_to(ROOT)}")
