"""The repository benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

A run imports the program from ``src/``, sets the workload up from its
seed (three times; the median counts), then drives it with one
closed-loop client for at least ``--seconds`` of measured request time,
in whole cycles of the workload's request list, and checks every
output.  Each request of the list gets one latency, its median over the
cycles; ``request_p50_ms`` and ``request_tail_ms`` are percentiles over
those, so one slow repeat of one request does not move them.  It prints
a header, each metric by name and unit, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Request times are reported at nominal host speed: a fixed reference
task is timed between blocks of requests and each block is scaled by
it, because the CPU speed of a shared host drifts (see NOTES.md).
``setup_s`` and ``peak_rss_mb`` are not scaled.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` serves a fixed request list three times from the same
starting state: twice traced (see probes.py) and once untraced between
them.  It reports the per-layer metrics, fails when any exact count
differs between the two traced passes, and writes the first traced
pass's spans to ``.perfbench-work/``.
"""

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUPS = 3


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _checked(workload, index, result):
    try:
        return bool(workload.check(index, result))
    except Exception:  # a check that crashes is a failed check
        traceback.print_exc(file=sys.stderr)
        return False


#: The reference task's duration at nominal host speed, seconds.
REFERENCE_S = 0.028
#: Request time between two reference measurements, seconds.
BLOCK_S = 0.5


def reference_task():
    """Fixed pure-Python work of the program's kind: small dicts, JSON,
    hashing, sorting."""
    total = 0
    for i in range(3000):
        record = {"id": i, "name": f"item-{i}", "values": [i, 2 * i, 3 * i]}
        body = json.dumps(record, sort_keys=True)
        total += len(hashlib.sha256(body.encode()).hexdigest())
        total += sum(sorted(record["values"], reverse=True))
    return total


def host_speed():
    """This host's speed now, relative to nominal (reference timing)."""
    started = perf_counter()
    reference_task()
    return REFERENCE_S / (perf_counter() - started)


def measured_run(workload, seconds):
    """Whole request cycles until ``seconds`` of request time are measured.

    A shared host's CPU speed can drift by a third over tens of seconds, so
    the reference task is timed after every block of about ``BLOCK_S``
    of requests.  Returns ``(blocks, failed, attempted)``; a block is
    ``[cycle, work, [(request index, time), ...], host speed]``.
    """
    workload.begin_pass()
    cycle = workload.cycle_length()
    blocks, failed, index, busy = [], 0, 0, 0.0
    block = [0, 0, [], None]
    while busy < seconds or index % cycle:
        workload.prepare(index)
        started = perf_counter()
        try:
            units, result = workload.request(index)
        except Exception:  # counted as a failed operation, run goes on
            traceback.print_exc(file=sys.stderr)
            units, result = 0, None
        elapsed = perf_counter() - started
        busy += elapsed
        block[1] += units
        if result is None:
            failed += 1
        else:
            block[2].append((index, elapsed))
            if not _checked(workload, index, result):
                failed += 1
        index += 1
        if sum(t for _, t in block[2]) >= BLOCK_S or index % cycle == 0:
            block[3] = host_speed()
            blocks.append(block)
            block = [index // cycle, 0, [], None]
    return blocks, failed, index


def scaled_blocks(blocks):
    """Each block's request times at nominal host speed.

    A block's speed is the median of the five reference timings around
    it, so one noisy timing does not move its requests.
    """
    speeds = [block[3] for block in blocks]
    scaled = []
    for i, (cycle, work, times, _) in enumerate(blocks):
        speed = statistics.median(speeds[max(0, i - 2) : i + 3])
        scaled.append((cycle, work, [(k, t * speed) for k, t in times]))
    return scaled


def per_cycle_rate(blocks):
    """Median over cycles of work per second of request time."""
    cycles = {}
    for cycle, work, times, *_ in blocks:
        entry = cycles.setdefault(cycle, [0, 0.0])
        entry[0] += work
        entry[1] += sum(t for _, t in times)
    return statistics.median(work / time for work, time in cycles.values())


def request_latencies(blocks, cycle):
    """Each request of the list's median time over the cycles."""
    repeats = {}
    for _, _, times, *_ in blocks:
        for index, t in times:
            repeats.setdefault(index % cycle, []).append(t)
    return [statistics.median(ts) for ts in repeats.values()]


def import_seconds():
    """Time from starting a fresh interpreter until the benchmark and
    the program it drives are imported."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import workloads; print('ready', flush=True)"
    )
    started = perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = perf_counter() - started
    finally:
        child.stdout.close()
        child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError("the import probe interpreter failed")
    return elapsed


def fixed_pass(workload, count, recorder=None):
    """Serve requests ``0..count-1`` (after ``begin_pass``).

    Returns ``(request seconds, failed)``; with a recorder each request
    runs under its root span and the request time is the spans' total.
    """
    patches = None
    if recorder is not None:
        import probes

        patches = probes.install(
            recorder, workload.caches(), workload.factory_maps()
        )
    failed, wall = 0, 0.0
    try:
        for index in range(count):
            workload.prepare(index)
            started = perf_counter()
            try:
                if recorder is None:
                    units, result = workload.request(index)
                else:
                    units, result = recorder.request(
                        index, lambda: workload.request(index)
                    )
            except Exception:  # counted as a failed operation
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            finally:
                wall += perf_counter() - started
            if not _checked(workload, index, result):
                failed += 1
    finally:
        if patches is not None:
            patches.restore()
    if recorder is not None:
        wall = recorder.request_wall()
    return wall, failed


def _disk_size(workload):
    return sum(path.stat().st_size for path in workload.disk_paths() if path.exists())


def traced_run(workload, seed):
    """Per-layer metrics; ``(metrics, attempted, failed, mismatches)``."""
    import probes

    count = workload.cycle_length()

    def one_pass(recorder):
        workload.begin_pass()
        before = _disk_size(workload)
        wall, failed = fixed_pass(workload, count, recorder)
        return wall, failed, _disk_size(workload) - before

    # Traced, untraced, traced: the untraced pass sits between the two it
    # is compared with, so drift over the run cancels in the overhead.
    first, second = probes.Recorder(), probes.Recorder()
    wall_b, failed_b, bytes_b = one_pass(first)
    wall_a, failed_a, _ = one_pass(None)
    wall_c, failed_c, bytes_c = one_pass(second)
    metrics = probes.layer_metrics(first, count, bytes_b)
    again = probes.layer_metrics(second, count, bytes_c)
    mismatches = [
        name for name in probes.EXACT_COUNTS if metrics[name] != again[name]
    ]
    metrics["bench.tracing_overhead_pct"] = (
        ((wall_b + wall_c) / 2 - wall_a) / wall_a * 100.0
    )
    WORK.mkdir(exist_ok=True)
    first.write(str(WORK / f"spans-{workload.name}-seed{seed}.jsonl"))
    print("self time by span (first traced pass, ms per request):")
    for name, (calls, total) in sorted(
        first.self_times().items(), key=lambda item: -item[1][1]
    ):
        print(f"  {name:40s} {total * 1e3 / count:12.4f}  calls {calls}")
    return metrics, 3 * count, failed_a + failed_b + failed_c, mismatches


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (the self-test)"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setups = []
        for _ in range(SETUPS):
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
        workload.prepare_checks()

        print(f"workload {workload.name}  seed {args.seed}  loop {workloads.LOOP}")
        print(f"  why: {workload.why}")
        print(f"  flush policy: {workload.flush}")
        for line in workload.header():
            print(f"  {line}")

        mismatches = []
        if args.trace:
            metrics, attempted, failed, mismatches = traced_run(workload, args.seed)
            if mismatches:
                print(f"exact counts differ between traced passes: {mismatches}")
        else:
            blocks, failed, attempted = measured_run(workload, args.seconds)
            scaled = scaled_blocks(blocks)
            cycle = workload.cycle_length()
            raw_times = request_latencies(blocks, cycle)
            times = request_latencies(scaled, cycle)
            if not times:
                print("error: no request succeeded", file=sys.stderr)
                return 1
            imports = [import_seconds() for _ in range(SETUPS)]
            tail = workload.tail
            metrics = {
                "setup_s": statistics.median(imports) + statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "work_per_s": per_cycle_rate(scaled),
                "request_p50_ms": percentile(times, 0.50) * 1e3,
                "request_tail_ms": percentile(times, tail) * 1e3,
            }
            print(
                f"  {attempted} requests in {blocks[-1][0] + 1} cycles of "
                f"{cycle}; work_per_s is {workload.work_unit}_per_s "
                f"(median over cycles); request_tail_ms is p{round(tail * 100)} "
                "over the list of per-request medians"
            )
            print(
                f"  host speed vs nominal: median "
                f"{statistics.median(b[3] for b in blocks):.3f} over {len(blocks)} "
                f"blocks; unscaled: work_per_s {per_cycle_rate(blocks):.4f}, "
                f"request_p50_ms {percentile(raw_times, 0.50) * 1e3:.4f}, "
                f"request_tail_ms {percentile(raw_times, tail) * 1e3:.4f}"
            )
            print(
                f"  set-ups {[round(s, 4) for s in setups]} s; fresh-interpreter "
                f"imports {[round(s, 4) for s in imports]} s"
            )
        for label, ok in workload.final_checks():
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {label}")
        if set(metrics) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
            )
        print(f"  failed_ratio = {failed / attempted} ({failed} of {attempted})")
        for name in units:
            print(f"  {name} = {metrics[name]!r} {units[name]}")
        print(
            json.dumps(
                {
                    "correct": failed == 0 and not mismatches,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": metrics[name], "unit": units[name]}
                        for name in units
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
