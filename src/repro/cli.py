"""Command-line interface: evaluate storage designs from JSON specs.

Usage::

    python -m repro case-study                 # reproduce Tables 5-7
    python -m repro evaluate spec.json         # evaluate a JSON spec
    python -m repro list-designs               # named designs available
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

Two more flags form the telemetry fabric: ``--run-dir PATH`` leaves
a complete run ledger behind (``manifest.json``, ``spans.jsonl``,
``metrics.prom``, ``progress.jsonl``), and ``--progress`` reports live
sweep progress on stderr.  All telemetry output goes to stderr or
files — stdout carries only the reports themselves.

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
    NULL_METRICS,
    NULL_PROGRESS,
    NULL_TRACER,
    MetricsRegistry,
    ProgressReporter,
    RunLedger,
    TaskLog,
    Telemetry,
    Tracer,
    write_openmetrics,
    write_trace_jsonl,
)
from .obs import use as use_telemetry
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
    """CLI entry point; returns the process exit code.

    The instruments the flags ask for are installed as one telemetry
    context for the duration of the call; nothing installed here
    outlives it, on any exit path.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    run_dir = getattr(args, "run_dir", None)
    if getattr(args, "baseline_run", None) is not None and run_dir is None:
        print("error: --baseline requires --run-dir", file=sys.stderr)
        return 2
    trace_out = getattr(args, "trace_out", None)
    want_progress = getattr(args, "progress", False)
    ledgered = run_dir is not None
    traced = (
        getattr(args, "trace", False)
        or getattr(args, "profile", False)
        or trace_out
        or ledgered
    )
    measured = (
        getattr(args, "metrics", False)
        or trace_out
        or getattr(args, "metrics_out", None)
        or ledgered
    )
    telemetry = Telemetry(
        tracer=Tracer() if traced else NULL_TRACER,
        metrics=MetricsRegistry() if measured else NULL_METRICS,
        progress=(
            ProgressReporter(stream=sys.stderr if want_progress else None)
            if want_progress or ledgered
            else NULL_PROGRESS
        ),
        task_log=TaskLog() if ledgered else None,
    )
    with use_telemetry(telemetry):
        return _run_instrumented(args, argv, telemetry)


def _run_instrumented(
    args: argparse.Namespace, argv: Optional[List[str]], telemetry: Telemetry
) -> int:
    """Run the chosen subcommand under ``telemetry`` (already
    installed), then write the reports and artifacts the flags ask for."""
    tracer = telemetry.tracer
    registry = telemetry.metrics
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    run_dir = getattr(args, "run_dir", None)
    baseline_run = getattr(args, "baseline_run", None)

    ledger: "Optional[RunLedger]" = None
    if run_dir is not None:
        from .engine import model_schema_version

        try:
            ledger = RunLedger(
                run_dir, argv=argv if argv is not None else sys.argv[1:]
            )
            ledger.begin(
                extra={
                    "command": getattr(args, "command", None),
                    "model_schema_version": model_schema_version(),
                    "workers": getattr(args, "workers", 1),
                    "cache_dir": getattr(args, "cache_dir", None),
                }
            )
        except OSError as exc:
            print(f"error: cannot write run ledger: {exc}", file=sys.stderr)
            return 2
        # --run-dir always installs a reporter; its heartbeats land in
        # the ledger's progress.jsonl.
        assert isinstance(telemetry.progress, ProgressReporter)
        telemetry.progress.ledger = ledger

    # Machine formats (lint --format json/sarif) own stdout; the
    # human observability reports move to stderr so stdout stays
    # parseable — the same contract evaluate/optimize keep implicitly.
    report_stream = (
        sys.stderr if getattr(args, "format", "human") != "human" else sys.stdout
    )
    try:
        code = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if getattr(args, "trace", False):
        print(file=report_stream)
        print(span_tree_report(tracer), file=report_stream)
    if getattr(args, "profile", False):
        print(file=report_stream)
        print(profile_report(tracer), file=report_stream)
    if getattr(args, "metrics", False):
        print(file=report_stream)
        print(metrics_report(registry), file=report_stream)
    if trace_out is not None:
        try:
            count = write_trace_jsonl(trace_out, tracer=tracer, metrics=registry)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {count} trace records to {trace_out}", file=sys.stderr)
    if metrics_out is not None and registry.enabled:
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
                tasks=(
                    telemetry.task_log.records
                    if telemetry.task_log is not None
                    else None
                ),
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

if __name__ == "__main__":
    sys.exit(main())
