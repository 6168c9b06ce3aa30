"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every metric of BENCHMARK.json prints with its unit, that
the output checks pass on real results and fail on injected wrong ones,
and that traced self times plus the unattributed residual sum to the
traced wall time.
"""

import ast
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [entry["name"] for entry in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.05"]
    assert run.main(argv + ["--trace", str(trace), "--tiny"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in wanted:
        value = result["metrics"][metric["name"]]["value"]
        assert f"  {metric['name']} = {value!r} {metric['unit']}\n" in out
        if not trace:
            assert value > 0


@pytest.fixture
def tiny(tmp_path):
    def build(name):
        workload = workloads.WORKLOADS[name](3, True, tmp_path)
        workload.setup()
        workload.prepare_checks()
        workload.begin_pass()
        return workload

    return build


@pytest.mark.parametrize("name", NAMES)
def test_self_times_and_residual_sum_to_traced_wall(tiny, name):
    workload = tiny(name)
    recorder = probes.Recorder()
    patches = probes.install(recorder, workload.caches(), workload.factory_maps())
    try:
        for index in range(workload.cycle_length()):
            recorder.request(index, lambda: workload.request(index))
    finally:
        patches.restore()
    selfs = recorder.self_times()
    wall = recorder.request_wall()
    assert sum(total for _, total in selfs.values()) == pytest.approx(wall, rel=1e-9)
    layers = {name for name in selfs if name != probes.REQUEST}
    assert layers, "no layer span was recorded"
    metrics = probes.layer_metrics(recorder, workload.cycle_length())
    attributed = sum(selfs[name][1] for name in layers)
    assert metrics["bench.unattributed_pct"] == pytest.approx(
        (wall - attributed) / wall * 100.0
    )


def test_latencies_are_per_request_medians_over_cycles():
    # Two requests a cycle, three cycles; one slow repeat of request 1.
    blocks = [
        [0, 2, [(0, 1.0), (1, 3.0)], 1.0],
        [1, 2, [(2, 1.2), (3, 30.0)], 1.0],
        [2, 2, [(4, 0.8), (5, 3.2)], 1.0],
    ]
    assert sorted(run.request_latencies(blocks, 2)) == [1.0, 3.2]


def test_probes_restore_the_program():
    module = importlib.import_module("repro.core.evaluate")
    before = module.compute_data_loss
    patches = probes.install(probes.Recorder())
    assert module.compute_data_loss is not before
    patches.restore()
    assert module.compute_data_loss is before
    assert not hasattr(ast.parse, "__wrapped__")


def _first(workload):
    units, result = workload.request(0)
    assert workload.check(0, result)
    return result


def test_sweep_check_fails_on_wrong_assessments(tiny):
    workload = tiny("sweep")
    names, outcome = _first(workload)
    ranking = outcome.ranking
    # Every entry carries the next entry's assessments.
    shifted = tuple(
        dataclasses.replace(
            entry,
            result=dataclasses.replace(
                entry.result,
                assessments=ranking[(i + 1) % len(ranking)].result.assessments,
            ),
        )
        for i, entry in enumerate(ranking)
    )
    assert not workload.check(0, (names, dataclasses.replace(outcome, ranking=shifted)))
    skipped = dataclasses.replace(outcome, skipped={names[0]: "injected"})
    assert not workload.check(0, (names, skipped))


def test_sweep_anchor_check_fails_on_wrong_table6(tiny, monkeypatch):
    workload = tiny("sweep")
    assert all(ok for _, ok in workload.final_checks())
    real = workloads.evaluate_scenarios

    def swapped(*args, **kwargs):
        results = real(*args, **kwargs)
        keys = list(results)
        return dict(zip(keys, reversed(list(results.values()))))

    monkeypatch.setattr(workloads, "evaluate_scenarios", swapped)
    assert not all(ok for _, ok in workload.final_checks())


def test_risk_check_fails_on_wrong_assessment(tiny):
    workload = tiny("risk-warm")
    spec_index, assessment = _first(workload)
    wrong = dataclasses.replace(assessment, members=assessment.members[1:])
    assert not workload.check(0, (spec_index, wrong))


def test_session_check_fails_on_wrong_result(tiny):
    workload = tiny("session")
    key, value = _first(workload)
    index = next(
        i for i, other in enumerate(workload.stream) if other[0] != key[0]
    )
    _, (_, other_value) = workload.request(index)
    assert not workload.check(0, (key, other_value))


def test_lint_check_fails_on_missing_or_extra_finding(tiny):
    workload = tiny("lint")
    diagnostics = _first(workload)
    assert len(diagnostics) == len(workload.expected) >= 1
    assert not workload.check(0, diagnostics[1:])
    assert not workload.check(0, diagnostics + diagnostics[:1])
