"""Command-line interface: evaluate storage designs from JSON specs.

Usage::

    python -m repro case-study                 # reproduce Tables 5-7
    python -m repro evaluate spec.json         # evaluate a JSON spec
    python -m repro list-designs               # named designs available
    python -m repro bench --check              # hot-path benchmarks
    python -m repro lint [all] TARGET...       # specs + code, one report

``lint`` is the only lint entry point: ``.json`` targets get the
design rules, every other target is a Python file or tree for the four
code passes (:mod:`repro.lint.allcheck`).

``case-study``, ``evaluate``, ``optimize`` and ``lint`` additionally
accept observability flags: ``--trace`` prints a per-phase span tree
plus a provenance explanation of each output metric, ``--profile``
prints an aggregated span profile (call counts, cumulative and self
time per span name), ``--metrics`` prints the run's metrics table,
``--trace-out PATH`` writes spans and metrics as JSON lines for
offline analysis, and ``--metrics-out PATH`` writes the metrics in the
OpenMetrics/Prometheus text format.  When ``lint`` emits a machine
format (``--format json``/``sarif``), the observability reports go to
stderr so stdout stays parseable.

Three more flags form the telemetry fabric: ``--run-dir PATH`` leaves
a complete run ledger behind (``manifest.json``, ``spans.jsonl``,
``metrics.prom``, ``progress.jsonl``), ``--progress`` reports live
sweep progress on stderr, and ``--serve-metrics PORT`` serves
``/metrics``, ``/healthz`` and ``/progress`` on localhost for the
duration of the run.  All telemetry output goes to stderr or files —
stdout carries only the reports themselves.

The run observatory reads those ledgers back: ``repro runs
list|show|latest|diff|gc`` indexes every ledger under one
``--runs-root``, and ``runs diff`` aligns two runs structurally — span
regressions attributed to the deepest explaining call path, metric
deltas, and task-level correctness drift (same content-addressed task
key, different result digest).  ``--fail-on-regression`` turns the
diff into a CI gate, and ``--baseline RUN`` on the evaluating
subcommands auto-diffs a fresh ``--run-dir`` ledger at exit.

A spec file looks like::

    {
      "workload": "cello",
      "design": "baseline",
      "scenarios": ["object", "array", "site"],
      "requirements": {"unavailability_per_hour": 50000,
                       "loss_per_hour": 50000}
    }

with ``workload`` and ``design`` accepting either preset names or full
dictionaries (see :mod:`repro.serialization`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .casestudy import (
    all_table7_designs,
    case_study_requirements,
    case_study_scenarios,
)
from .engine import EngineConfig
from .engine.sweep import evaluate_design_map, evaluate_scenarios_cached
from .exceptions import ReproError
from .lint.diagnostics import exit_code as lint_exit_code
from .lint.output import FORMATS as LINT_FORMATS
from .lint.output import render as render_diagnostics
from .obs import (
    MetricsRegistry,
    ProgressReporter,
    RunLedger,
    TaskLog,
    TelemetryServer,
    Tracer,
    set_metrics,
    set_progress,
    set_run_id,
    set_task_log,
    set_tracer,
    write_openmetrics,
    write_trace_jsonl,
)
from .obs import reset as reset_obs
from .obs.diff import (
    DEFAULT_ABS_THRESHOLD_MS,
    DEFAULT_EXPLAIN_FRACTION,
    DEFAULT_REL_THRESHOLD,
    diff_runs,
)
from .obs.runs import RunRecord, RunStore, resolve_run
from .reporting.obs_report import (
    metrics_report,
    profile_report,
    provenance_report,
    span_tree_report,
)
from .reporting.report import (
    cost_breakdown_report,
    dependability_report,
    utilization_report,
    whatif_report,
)
from .serialization import (
    design_from_spec,
    requirements_from_spec,
    scenario_from_spec,
    workload_from_spec,
)
from .workload.presets import cello


def _engine_config(args: argparse.Namespace) -> "Optional[EngineConfig]":
    """Build an engine config from ``--workers``/``--cache-dir``.

    None (= the engine's serial, uncached default) when neither flag
    was given, so default CLI runs stay on the historical code path.
    """
    workers = getattr(args, "workers", None) or 1
    cache_dir = getattr(args, "cache_dir", None)
    if workers <= 1 and cache_dir is None:
        return None
    return EngineConfig(
        workers=workers,
        cache_dir=cache_dir,
        memory_cache_entries=256 if cache_dir is not None else 0,
    )


def _cmd_case_study(args: argparse.Namespace) -> int:
    """Print the paper's Tables 5, 6 and the Figure 5 breakdown."""
    workload = cello()
    requirements = case_study_requirements()
    scenarios = case_study_scenarios()
    designs = all_table7_designs()
    config = _engine_config(args)

    baseline = designs["baseline"]
    results = evaluate_scenarios_cached(
        baseline, workload, scenarios, requirements, config=config
    )
    first = next(iter(results.values()))
    print(baseline.render_hierarchy())
    print()
    print(utilization_report(first.utilization, title="Table 5: normal mode utilization"))
    print()
    print(dependability_report(results, title="Table 6: worst-case RT and DL"))
    print()
    print(cost_breakdown_report(results, title="Figure 5: overall system cost"))
    print()

    hardware = [s for s in scenarios if s.scope.is_hardware]
    outcomes = evaluate_design_map(
        designs, workload, hardware, requirements, config=config
    )
    grid = {}
    labels: "List[str]" = []
    for name, outcome in outcomes.items():
        if outcome.error is not None:
            raise outcome.error
        grid[name] = outcome.value
        labels = list(outcome.value.keys())
    print(whatif_report(grid, labels, title="Table 7: what-if scenarios"))
    if getattr(args, "trace", False):
        print()
        print(provenance_report(results, title="Provenance: baseline design"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    """Evaluate the design/workload/scenarios of a JSON spec file."""
    with open(args.spec) as handle:
        spec = json.load(handle)
    workload = workload_from_spec(spec.get("workload", "cello"))
    design = design_from_spec(spec.get("design", "baseline"))
    scenario_specs = spec.get("scenarios", ["array"])
    scenarios = [scenario_from_spec(s) for s in scenario_specs]
    if "requirements" in spec:
        requirements = requirements_from_spec(spec["requirements"])
    else:
        requirements = case_study_requirements()

    results = evaluate_scenarios_cached(
        design, workload, scenarios, requirements, config=_engine_config(args)
    )
    first = next(iter(results.values()))
    print(design.render_hierarchy())
    print()
    print(f"workload: {workload.describe()}")
    print()
    print(utilization_report(first.utilization))
    print()
    print(dependability_report(results))
    print()
    print(cost_breakdown_report(results))
    for label, assessment in results.items():
        if assessment.recovery is not None:
            print()
            print(f"[{label}]")
            print(assessment.recovery.render_timeline())
    if getattr(args, "trace", False):
        print()
        print(provenance_report(results))
    if any(not a.meets_objectives for a in results.values()):
        print()
        print("WARNING: declared RTO/RPO objectives are violated")
        return 1
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    """Assess annualized risk for a spec file's scenario ensemble."""
    from .reporting.risk_report import risk_report
    from .risk import assess_risk
    from .serialization import canonical_json, ensemble_from_spec

    with open(args.spec) as handle:
        spec = json.load(handle)
    workload = workload_from_spec(spec.get("workload", "cello"))
    design = design_from_spec(spec.get("design", "baseline"))
    if "ensemble" not in spec:
        raise ReproError(
            f"spec {args.spec!r} has no 'ensemble' section; "
            "'repro risk' needs rated scenarios (see 'repro evaluate' "
            "for single-scenario worst cases)"
        )
    ensemble = ensemble_from_spec(spec["ensemble"])
    if "requirements" in spec:
        requirements = requirements_from_spec(spec["requirements"])
    else:
        requirements = case_study_requirements()

    assessment = assess_risk(
        design,
        workload,
        ensemble,
        requirements,
        years=args.years,
        samples=args.samples,
        seed=args.seed,
        config=_engine_config(args),
    )
    if args.format == "json":
        print(canonical_json(assessment.to_dict()))
    else:
        print(risk_report(assessment))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Lint design specs and Python source as one merged report.

    ``.json`` targets get the design rules; every other target is a
    Python file or tree for the four code passes.  A leading ``all``
    is accepted (``repro lint all`` alone checks the default trees).
    """
    from .lint.allcheck import DEFAULT_PATHS, lint_targets, split_targets

    targets = args.targets
    if targets[0] == "all":
        targets = targets[1:] or list(DEFAULT_PATHS)
    specs, paths = split_targets(targets)
    diagnostics = lint_targets(specs, paths, max_pragmas=args.max_pragmas)
    print(render_diagnostics(diagnostics, args.format))
    return lint_exit_code(diagnostics, strict=args.strict)


def _cmd_list_designs(_args: argparse.Namespace) -> int:
    """List the named designs a spec file can reference."""
    for name, design in all_table7_designs().items():
        print(f"{name}: {len(design.levels)} levels")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    """Search the catalog design space for the cheapest feasible design."""
    from .design import DesignSpace, candidate_designs, optimize
    from .reporting.tables import Table
    from .scenarios.failures import FailureScenario
    from .scenarios.requirements import BusinessRequirements
    from .units import format_money

    if args.spec is not None:
        with open(args.spec) as handle:
            spec = json.load(handle)
        workload = workload_from_spec(spec.get("workload", "cello"))
        scenarios = [
            scenario_from_spec(s)
            for s in spec.get("scenarios", ["array", "site"])
        ]
        if "requirements" in spec:
            requirements = requirements_from_spec(spec["requirements"])
        else:
            requirements = case_study_requirements()
    else:
        workload = cello()
        scenarios = [
            FailureScenario.array_failure("primary-array"),
            FailureScenario.site_disaster(),
        ]
        requirements = BusinessRequirements.per_hour(
            50_000, 50_000, rto=args.rto, rpo=args.rpo
        )

    candidates = candidate_designs(DesignSpace())
    outcome = optimize(
        candidates, workload, scenarios, requirements,
        config=_engine_config(args),
    )
    print(outcome.summary())
    print()
    table = Table(
        headers=["rank", "design", "feasible", "worst-case total"],
        title="Ranking (by worst-case total cost)",
    )
    for position, entry in enumerate(outcome.ranking, start=1):
        table.add_row(
            position,
            entry.name,
            "yes" if entry.feasible else "no",
            format_money(entry.objective),
        )
    print(table.render())
    return 0 if outcome.best is not None else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run registered benchmarks; record history; gate on regressions."""
    from . import bench as bench_pkg
    from .reporting.tables import Table

    infos = bench_pkg.all_benches(args.filter)
    if not infos:
        print(f"error: no benchmarks match {args.filter!r}", file=sys.stderr)
        return 2
    if args.list:
        for info in infos:
            print(f"{info.name}: {info.description}")
        return 0

    results = bench_pkg.run_suite(infos, repeats=args.repeats)
    table = Table(
        headers=["benchmark", "median ms", "mean ms", "min ms", "max ms"],
        title=f"Benchmarks ({args.repeats} repeats each)",
    )
    for result in results:
        table.add_row(
            result.name,
            f"{result.median_ms:.3f}",
            f"{result.mean_ms:.3f}",
            f"{result.min_ms:.3f}",
            f"{result.max_ms:.3f}",
        )
    print(table.render())

    if args.json_out is not None:
        import time as time_module

        stamp = time_module.time()
        payload = {"results": [result.record(stamp) for result in results]}
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote results to {args.json_out}", file=sys.stderr)
    if not args.no_history:
        count = bench_pkg.append_history(args.history, results)
        print(f"appended {count} records to {args.history}", file=sys.stderr)
    if args.update_baseline:
        bench_pkg.write_baseline(args.baseline, results)
        print(f"updated baseline {args.baseline}", file=sys.stderr)

    if args.check:
        tolerance = (
            bench_pkg.DEFAULT_TOLERANCE
            if args.tolerance is None
            else args.tolerance
        )
        min_delta = (
            bench_pkg.DEFAULT_MIN_DELTA_MS
            if args.min_delta is None
            else args.min_delta
        )
        try:
            baseline = bench_pkg.load_baseline(args.baseline)
        except FileNotFoundError:
            print(
                f"error: no baseline at {args.baseline} "
                "(run with --update-baseline first)",
                file=sys.stderr,
            )
            return 2
        reports = bench_pkg.check_regressions(
            results, baseline, tolerance=tolerance, min_delta_ms=min_delta
        )
        print()
        for report in reports:
            print(report.describe())
        regressed = [report for report in reports if report.regressed]
        if regressed:
            print(
                f"FAIL: {len(regressed)} benchmark(s) regressed beyond "
                f"{tolerance * 100:.0f}% tolerance",
                file=sys.stderr,
            )
            return 1
        print(f"OK: no regressions beyond {tolerance * 100:.0f}% tolerance")
    return 0


def _run_summary(record: RunRecord) -> "Dict[str, Any]":
    """One run's JSON summary row (``repro runs list/latest --format json``)."""
    return {
        "run_id": record.run_id,
        "directory": record.directory,
        "command": record.command,
        "status": record.status,
        "started": record.started,
        "wall_time_s": record.wall_time_s,
        "manifest_schema": record.manifest_schema,
        "model_schema_version": record.model_schema_version,
        "tasks": len(record.tasks()),
    }


def _cmd_runs(args: argparse.Namespace) -> int:
    """Inspect, compare and prune the run ledgers under a runs root."""
    from .reporting.runs_report import (
        run_diff_report,
        run_show_report,
        runs_list_report,
    )

    store = RunStore(args.runs_root)
    action = args.runs_command
    as_json = args.format == "json"

    if action == "list":
        records = store.list(
            command=args.filter_command, status=args.status, schema=args.schema
        )
        if as_json:
            payload = {
                "runs": [_run_summary(r) for r in records],
                "skipped": [
                    {"directory": directory, "reason": reason}
                    for directory, reason in store.skipped
                ],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(runs_list_report(records, store.skipped))
        return 0

    if action == "latest":
        record = store.latest(command=args.filter_command)
        if record is None:
            print(f"error: no runs under {store.root!r}", file=sys.stderr)
            return 1
        if as_json:
            print(json.dumps(_run_summary(record), indent=2))
        else:
            print(f"{record.run_id}  {record.directory}")
        return 0

    if action == "show":
        record = resolve_run(args.run, root=store.root)
        if as_json:
            print(json.dumps(record.manifest, indent=2, sort_keys=True))
        else:
            print(run_show_report(record))
        return 0

    if action == "gc":
        removed = store.gc(args.keep)
        if as_json:
            print(json.dumps({"removed": [_run_summary(r) for r in removed]}, indent=2))
        else:
            for record in removed:
                print(f"removed {record.run_id}  {record.directory}")
            print(f"removed {len(removed)} run(s), kept {args.keep} newest")
        return 0

    # action == "diff"
    rel_threshold = (
        args.fail_on_regression
        if args.fail_on_regression is not None
        else args.rel_threshold
    )
    diff = diff_runs(
        resolve_run(args.base, root=store.root),
        resolve_run(args.cand, root=store.root),
        rel_threshold=rel_threshold,
        abs_threshold_ms=args.abs_threshold_ms,
        explain_fraction=args.explain_fraction,
    )
    if args.json_out is not None:
        with open(args.json_out, "w") as handle:
            json.dump(diff.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote diff to {args.json_out}", file=sys.stderr)
    if as_json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(run_diff_report(diff))
    if args.fail_on_regression is not None and diff.has_regressions:
        print(
            f"FAIL: {len(diff.regressions)} span regression(s) beyond "
            f"{rel_threshold * 100:.0f}% / {args.abs_threshold_ms:.0f}ms",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of the evaluating subcommands."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a per-phase span tree and provenance explanations",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print an aggregated span profile (call counts, cumulative "
        "and self time per span name, hot call paths)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write spans and metrics as JSON lines to PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics (counters, gauges, histograms)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics in OpenMetrics text format to PATH",
    )
    parser.add_argument(
        "--run-dir",
        metavar="PATH",
        default=None,
        help="write a run ledger under PATH: manifest.json, spans.jsonl, "
        "metrics.prom and progress.jsonl (implies tracing and metrics)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report live sweep progress (done/total, cache hits, "
        "throughput, ETA) on stderr",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics (OpenMetrics), /healthz and /progress on "
        "127.0.0.1:PORT for the duration of the run (0 picks a free "
        "port, announced on stderr)",
    )
    parser.add_argument(
        "--baseline",
        dest="baseline_run",
        metavar="RUN",
        default=None,
        help="after the run, diff this run against RUN (a ledger "
        "directory, or a run ID under the new ledger's parent "
        "directory) and print the attribution report on stderr; "
        "requires --run-dir",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The evaluation-engine flags of the evaluating subcommands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="evaluate designs on N worker processes (default: 1, inline; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="cache evaluation results under PATH (content-addressed; "
        "reused across runs until the model changes)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for doc generation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-dependability",
        description="Evaluate storage system dependability (Keeton & "
        "Merchant, DSN 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("case-study", help="reproduce the paper's case study")
    _add_obs_flags(case)
    _add_engine_flags(case)
    case.set_defaults(func=_cmd_case_study)

    ev = sub.add_parser("evaluate", help="evaluate a JSON spec file")
    ev.add_argument("spec", help="path to the JSON spec")
    _add_obs_flags(ev)
    _add_engine_flags(ev)
    ev.set_defaults(func=_cmd_evaluate)

    risk = sub.add_parser(
        "risk",
        help="assess annualized risk for a spec file's scenario ensemble",
    )
    risk.add_argument("spec", help="JSON spec file with an 'ensemble' section")
    risk.add_argument(
        "--years",
        type=float,
        default=1.0,
        metavar="Y",
        help="assessment horizon in years (default: 1)",
    )
    risk.add_argument(
        "--samples",
        type=int,
        default=0,
        metavar="N",
        help="add a seeded Monte Carlo cross-check with N samples "
        "(default: 0, analytic only)",
    )
    risk.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="SEED",
        help="root seed for the Monte Carlo substreams (default: 0)",
    )
    risk.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="human tables, or one line of canonical JSON "
        "(byte-identical across serial/parallel/cached runs)",
    )
    _add_obs_flags(risk)
    _add_engine_flags(risk)
    risk.set_defaults(func=_cmd_risk)

    lint = sub.add_parser(
        "lint",
        help="statically check spec files and Python source",
    )
    lint.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="JSON spec files (design rules) and Python files or trees "
        "(units, dimensions, parallel safety, exception flow), merged "
        "into one report; a leading `all` is accepted",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings as well as errors",
    )
    lint.add_argument(
        "--max-pragmas",
        type=int,
        default=None,
        metavar="N",
        help="fail when a code pass's pragma count exceeds N",
    )
    lint.add_argument(
        "--format",
        choices=LINT_FORMATS,
        default="human",
        help="output format (default: human)",
    )
    _add_obs_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    ls = sub.add_parser("list-designs", help="list named designs")
    ls.set_defaults(func=_cmd_list_designs)

    opt = sub.add_parser(
        "optimize",
        help="search the catalog design space for the cheapest feasible design",
    )
    opt.add_argument(
        "spec", nargs="?", default=None,
        help="optional JSON spec supplying workload/scenarios/requirements",
    )
    opt.add_argument("--rto", default=None, help='recovery time objective, e.g. "4 hr"')
    opt.add_argument("--rpo", default=None, help='recovery point objective, e.g. "1 hr"')
    _add_obs_flags(opt)
    _add_engine_flags(opt)
    opt.set_defaults(func=_cmd_optimize)

    bench = sub.add_parser(
        "bench",
        help="run the registered hot-path benchmarks",
    )
    bench.add_argument(
        "--repeats", type=int, default=5,
        help="timed calls per benchmark after one warmup (default: 5)",
    )
    bench.add_argument(
        "--filter", metavar="SUBSTRING", default=None,
        help="only run benchmarks whose name contains SUBSTRING",
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list the registered benchmarks and exit",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="exit 1 if any benchmark regresses beyond --tolerance vs "
        "the committed baseline",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None,
        help="acceptable slowdown vs the baseline best-of-N as a "
        "fraction (default: 0.5)",
    )
    bench.add_argument(
        "--min-delta", type=float, default=None, metavar="MS",
        help="a regression must also exceed the baseline by this many "
        "milliseconds (default: 1.0)",
    )
    bench.add_argument(
        "--baseline", metavar="PATH", default="benchmarks/BENCH_baseline.json",
        help="committed baseline medians (default: %(default)s)",
    )
    bench.add_argument(
        "--history", metavar="PATH", default="BENCH_history.jsonl",
        help="JSONL trajectory to append results to (default: %(default)s)",
    )
    bench.add_argument(
        "--no-history", action="store_true",
        help="do not append to the history file",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file with this run's medians",
    )
    bench.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write this run's records as one JSON document to PATH",
    )
    bench.set_defaults(func=_cmd_bench)

    runs = sub.add_parser(
        "runs",
        help="inspect, compare and prune run ledgers (--run-dir outputs)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _add_runs_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--runs-root",
            metavar="DIR",
            default="runs",
            help="directory whose subdirectories are run ledgers "
            "(default: %(default)s)",
        )
        sub_parser.add_argument(
            "--format",
            choices=("human", "json"),
            default="human",
            help="output format (default: human)",
        )

    runs_list = runs_sub.add_parser("list", help="list the indexed runs")
    runs_list.add_argument(
        "--command",
        dest="filter_command",
        metavar="NAME",
        default=None,
        help="only runs of this subcommand (evaluate, optimize, ...)",
    )
    runs_list.add_argument(
        "--status",
        default=None,
        help="only runs with this status (ok, error, running)",
    )
    runs_list.add_argument(
        "--schema",
        metavar="VERSION",
        default=None,
        help="only runs with this manifest schema number or model "
        "schema version prefix",
    )
    _add_runs_common(runs_list)

    runs_show = runs_sub.add_parser("show", help="show one run in detail")
    runs_show.add_argument("run", help="run ID, unique ID prefix, or ledger path")
    _add_runs_common(runs_show)

    runs_latest = runs_sub.add_parser(
        "latest", help="print the most recently started run"
    )
    runs_latest.add_argument(
        "--command",
        dest="filter_command",
        metavar="NAME",
        default=None,
        help="the latest run of this subcommand only",
    )
    _add_runs_common(runs_latest)

    runs_diff = runs_sub.add_parser(
        "diff",
        help="structurally diff two runs: span regressions with "
        "deepest-path attribution, metric deltas, correctness drift",
    )
    runs_diff.add_argument("base", help="baseline run (ID, prefix, or path)")
    runs_diff.add_argument("cand", help="candidate run (ID, prefix, or path)")
    runs_diff.add_argument(
        "--rel-threshold",
        type=float,
        default=DEFAULT_REL_THRESHOLD,
        metavar="FRACTION",
        help="a span regresses when it slows by more than this fraction "
        "of its baseline (default: %(default)s)",
    )
    runs_diff.add_argument(
        "--abs-threshold-ms",
        type=float,
        default=DEFAULT_ABS_THRESHOLD_MS,
        metavar="MS",
        help="... and by more than this many milliseconds "
        "(default: %(default)s)",
    )
    runs_diff.add_argument(
        "--explain-fraction",
        type=float,
        default=DEFAULT_EXPLAIN_FRACTION,
        metavar="FRACTION",
        help="attribution descends into a child explaining at least this "
        "fraction of its parent's delta (default: %(default)s)",
    )
    runs_diff.add_argument(
        "--fail-on-regression",
        nargs="?",
        type=float,
        const=DEFAULT_REL_THRESHOLD,
        default=None,
        metavar="FRACTION",
        help="exit 1 when any span regresses; the optional FRACTION "
        "overrides --rel-threshold (bare flag: %(const)s)",
    )
    runs_diff.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the full diff as one JSON document to PATH",
    )
    _add_runs_common(runs_diff)

    runs_gc = runs_sub.add_parser(
        "gc", help="delete all but the newest N finished runs"
    )
    runs_gc.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of newest runs to keep (running runs never deleted)",
    )
    _add_runs_common(runs_gc)
    runs.set_defaults(func=_cmd_runs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    trace = getattr(args, "trace", False)
    profile = getattr(args, "profile", False)
    trace_out = getattr(args, "trace_out", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_out = getattr(args, "metrics_out", None)
    run_dir = getattr(args, "run_dir", None)
    serve_port = getattr(args, "serve_metrics", None)
    want_progress = getattr(args, "progress", False)
    tracer = (
        set_tracer(Tracer())
        if (trace or profile or trace_out or run_dir is not None)
        else None
    )
    registry = (
        set_metrics(MetricsRegistry())
        if (
            want_metrics
            or trace_out
            or metrics_out
            or run_dir is not None
            or serve_port is not None
        )
        else None
    )

    baseline_run = getattr(args, "baseline_run", None)
    if baseline_run is not None and run_dir is None:
        print("error: --baseline requires --run-dir", file=sys.stderr)
        return 2

    ledger: "Optional[RunLedger]" = None
    task_log: "Optional[TaskLog]" = None
    if run_dir is not None:
        from .engine import model_schema_version

        ledger = RunLedger(run_dir, argv=argv if argv is not None else sys.argv[1:])
        set_run_id(ledger.run_id)
        task_log = TaskLog()
        set_task_log(task_log)
        ledger.begin(
            extra={
                "command": getattr(args, "command", None),
                "model_schema_version": model_schema_version(),
                "workers": getattr(args, "workers", 1),
                "cache_dir": getattr(args, "cache_dir", None),
            }
        )

    reporter: "Optional[ProgressReporter]" = None
    if want_progress or ledger is not None or serve_port is not None:
        reporter = ProgressReporter(
            stream=sys.stderr if want_progress else None, ledger=ledger
        )
        set_progress(reporter)

    server: "Optional[TelemetryServer]" = None
    if serve_port is not None:
        server = TelemetryServer(
            serve_port, registry=registry, progress=reporter
        )
        bound_port = server.start()
        print(
            f"serving telemetry on http://127.0.0.1:{bound_port}/metrics",
            file=sys.stderr,
        )
    # Machine formats (lint --format json/sarif) own stdout; the
    # human observability reports move to stderr so stdout stays
    # parseable — the same contract evaluate/optimize keep implicitly.
    report_stream = (
        sys.stderr if getattr(args, "format", "human") != "human" else sys.stdout
    )
    try:
        try:
            code = args.func(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        if tracer is not None and trace:
            print(file=report_stream)
            print(span_tree_report(tracer), file=report_stream)
        if tracer is not None and profile:
            print(file=report_stream)
            print(profile_report(tracer), file=report_stream)
        if registry is not None and want_metrics:
            print(file=report_stream)
            print(metrics_report(registry), file=report_stream)
        if trace_out is not None:
            try:
                count = write_trace_jsonl(
                    trace_out, tracer=tracer, metrics=registry
                )
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                return 2
            print(f"wrote {count} trace records to {trace_out}", file=sys.stderr)
        if metrics_out is not None and registry is not None:
            try:
                write_openmetrics(metrics_out, registry)
            except OSError as exc:
                print(f"error: cannot write metrics: {exc}", file=sys.stderr)
                return 2
            print(f"wrote OpenMetrics to {metrics_out}", file=sys.stderr)
        if ledger is not None:
            try:
                ledger.finish(
                    tracer,
                    registry,
                    status="ok" if code == 0 else "error",
                    tasks=task_log.records if task_log is not None else None,
                )
            except OSError as exc:
                print(f"error: cannot write run ledger: {exc}", file=sys.stderr)
                return 2
            print(
                f"run ledger written to {ledger.directory} "
                f"(run {ledger.run_id})",
                file=sys.stderr,
            )
        if baseline_run is not None and ledger is not None:
            # Auto-diff the fresh ledger against the named baseline.
            # On stderr: stdout stays the evaluation report alone.
            from .reporting.runs_report import run_diff_report

            try:
                root = os.path.dirname(os.path.abspath(ledger.directory))
                diff = diff_runs(
                    resolve_run(baseline_run, root=root),
                    RunRecord.load(ledger.directory),
                )
            except ReproError as exc:
                print(f"error: cannot diff baseline: {exc}", file=sys.stderr)
                return 2
            print(file=sys.stderr)
            print(run_diff_report(diff), file=sys.stderr)
        return code
    finally:
        if server is not None:
            server.stop()
        if (
            tracer is not None
            or registry is not None
            or reporter is not None
            or ledger is not None
        ):
            reset_obs()


if __name__ == "__main__":
    sys.exit(main())
