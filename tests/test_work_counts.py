"""The performance gate: exact work counts of the benchmark workloads.

Drives each ``perfbench`` workload once, at its ``--tiny`` size and
seed 3, under the benchmark's own probes, and compares every count in
``probes.EXACT_COUNTS`` with the value committed below.  The counts
(assessments, technique cycles built, design walks, canonical bytes,
cache hits, scenario digests, parses) depend neither on the host's
speed nor on the hash seed, so unlike a timing gate this one does not
flip with load.  Any move means the program's work per request
changed; a change that moves a count on purpose (fewer parses, more
cache hits) commits the new value with it.

``perfbench/`` is imported read-only.  Everything a workload writes
goes under the test's ``tmp_path``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import probes
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

SEED = 3

#: ``{workload: {count: value}}`` of one traced cycle at ``--tiny``, seed
#: 3.  Every count of ``probes.EXACT_COUNTS`` not listed must read 0.
COMMITTED = {
    "sweep": {
        "core.assess_calls": 52.0,
        "techniques.cycle_models_per_assess": 0.19230769230769232,
    },
    "risk-warm": {
        "engine.keys.part_walks": 69.0,
        "engine.keys.design_canonical_bytes": 3996.0,
        "engine.cache.hit_ratio": 1.0,
        "serialization.canonical_json_calls": 114.0,
        "risk.aggregate.digests_per_member": 0.09268292682926829,
        "risk.aggregate.dedup_ratio": 0.09268292682926829,
    },
    "session": {
        "core.assess_calls": 26.0,
        "techniques.cycle_models_per_assess": 1.0384615384615385,
        "engine.keys.part_walks": 49.0,
        "engine.keys.design_canonical_bytes": 4395.7,
        "engine.cache.hit_ratio": 0.75,
        "engine.cache.disk_hit_ratio": 0.525,
        "engine.cache.disk_bytes_per_store": 11415.6,
        "serialization.canonical_json_calls": 40.0,
    },
    "lint": {
        "lint.parses_per_file": 1.0,
    },
}


def _observed(name, workdir):
    """The exact counts of one traced cycle of workload ``name``."""
    workload = workloads.WORKLOADS[name](SEED, True, workdir)
    workload.setup()
    workload.prepare_checks()
    workload.begin_pass()
    written_before = _disk_bytes(workload)
    recorder = probes.Recorder()
    patches = probes.install(recorder, workload.caches(), workload.factory_maps())
    try:
        for index in range(workload.cycle_length()):
            workload.prepare(index)
            recorder.request(index, lambda: workload.request(index))
    finally:
        patches.restore()
    metrics = probes.layer_metrics(
        recorder, workload.cycle_length(), _disk_bytes(workload) - written_before
    )
    return {count: metrics[count] for count in probes.EXACT_COUNTS}


def _disk_bytes(workload):
    return sum(path.stat().st_size for path in workload.disk_paths() if path.exists())


def test_exact_work_counts_match_the_committed_values(tmp_path):
    mismatches = []
    for name, committed in COMMITTED.items():
        workdir = tmp_path / name
        workdir.mkdir()
        observed = _observed(name, workdir)
        assert set(committed) <= set(observed), name
        for count, value in observed.items():
            expected = committed.get(count, 0.0)
            if value != expected:
                mismatches.append(
                    f"{name}: {count} committed {expected!r}, observed {value!r}"
                )
    assert not mismatches, "work counts moved:\n" + "\n".join(mismatches)
