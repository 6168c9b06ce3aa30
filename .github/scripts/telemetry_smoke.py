#!/usr/bin/env python3
"""CI smoke test: the telemetry fabric, end to end, against a real run.

Drives ``repro optimize --workers 4 --progress --run-dir <out>``, then
checks the ledger round-trip: worker-PID spans in ``spans.jsonl``
(proof that trace context crossed the process pool), a finished
manifest, an OpenMetrics exposition, and progress heartbeats.

Usage: python .github/scripts/telemetry_smoke.py [out-dir]
"""

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main  # noqa: E402

WORKERS = 4


def fail(message: str) -> "sys.NoReturn":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_smoke(out_dir: str) -> None:
    code = main(
        [
            "optimize",
            "--workers",
            str(WORKERS),
            "--progress",
            "--run-dir",
            out_dir,
        ]
    )
    if code != 0:
        fail(f"optimize exited with code {code!r}")

    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("run_id", "status", "spans", "heartbeats", "wall_time_s"):
        if key not in manifest:
            fail(f"manifest.json is missing {key!r}")
    if manifest["status"] != "ok":
        fail(f"manifest status is {manifest['status']!r}, expected 'ok'")

    records = [
        json.loads(line)
        for line in (out / "spans.jsonl").read_text().splitlines()
        if line.strip()
    ]
    spans = [r for r in records if r.get("kind") == "span"]
    worker_pids = {
        r["attributes"]["pid"] for r in spans if "pid" in r.get("attributes", {})
    }
    if not worker_pids:
        fail("no worker-PID spans in spans.jsonl — capsules did not merge")
    if os.getpid() in worker_pids:
        fail("parent PID tagged as a worker PID in spans.jsonl")
    task_spans = [r for r in spans if r["name"] == "engine.task"]
    if len(task_spans) < 2:
        fail(f"expected several engine.task spans, found {len(task_spans)}")

    prom = (out / "metrics.prom").read_text()
    if not prom.rstrip().endswith("# EOF"):
        fail("metrics.prom does not end with '# EOF'")
    if "engine_tasks_total" not in prom:
        fail("metrics.prom has no engine_tasks_total counter")

    heartbeats = [
        json.loads(line)
        for line in (out / "progress.jsonl").read_text().splitlines()
        if line.strip()
    ]
    if not heartbeats:
        fail("progress.jsonl recorded no heartbeats")
    final = heartbeats[-1]
    if final.get("done") != final.get("total") or not final.get("total"):
        fail(f"final heartbeat is not a completed sweep: {final!r}")

    print(
        f"ledger ok: {manifest['spans']} spans, worker pids {sorted(worker_pids)}, "
        f"{len(heartbeats)} heartbeats, run {manifest['run_id']}"
    )
    print("telemetry smoke passed")


if __name__ == "__main__":
    run_smoke(sys.argv[1] if len(sys.argv) > 1 else "out")
