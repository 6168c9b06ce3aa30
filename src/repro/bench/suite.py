"""The built-in benchmarks: every hot path the framework exposes.

Importing this module populates the registry (:data:`~repro.bench.registry.BENCHES`)
with the paths the ROADMAP cares about: single/multi-scenario
evaluation, the design-space optimizer, a sensitivity sweep, the
recovery simulator, and both linters.  Timed thunks construct their
designs fresh per call — the same convention as
``benchmarks/bench_evaluate.py``, so medians are comparable with the
seeded history.
"""

from __future__ import annotations

from .registry import bench


@bench("evaluate", description="one design x one failure scenario")
def bench_evaluate():
    from .. import casestudy
    from ..core.evaluate import evaluate
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenario = casestudy.array_failure_scenario()

    def run():
        evaluate(casestudy.baseline_design(), workload, scenario, requirements)

    return run


@bench("evaluate_scenarios", description="one design x the case-study scenarios")
def bench_evaluate_scenarios():
    from .. import casestudy
    from ..core.evaluate import evaluate_scenarios
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = casestudy.case_study_scenarios()

    def run():
        evaluate_scenarios(
            casestudy.baseline_design(), workload, scenarios, requirements
        )

    return run


@bench("optimize", description="catalog design-space search, two scenarios")
def bench_optimize():
    from .. import casestudy
    from ..design import DesignSpace, candidate_designs, optimize
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = [
        casestudy.array_failure_scenario(),
        casestudy.site_failure_scenario(),
    ]

    def run():
        optimize(candidate_designs(DesignSpace()), workload, scenarios, requirements)

    return run


@bench(
    "optimize_parallel",
    description="catalog design-space search on a worker pool",
)
def bench_optimize_parallel():
    import os

    from .. import casestudy
    from ..design import DesignSpace, candidate_designs, optimize
    from ..engine import EngineConfig, warm_pool
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = [
        casestudy.array_failure_scenario(),
        casestudy.site_failure_scenario(),
    ]
    config = EngineConfig(workers=min(4, os.cpu_count() or 1))
    # Warm the shared pool outside the timed region: fork+import is a
    # one-off cost the engine amortizes across sweeps, and timing it
    # here would benchmark the OS, not the sweep.
    warm_pool(config.workers)

    def run():
        optimize(
            candidate_designs(DesignSpace()),
            workload,
            scenarios,
            requirements,
            config=config,
        )

    return run


@bench(
    "optimize_parallel_telemetry",
    description="pooled design-space search with the live telemetry fabric on",
)
def bench_optimize_parallel_telemetry():
    import io
    import os

    from .. import casestudy, obs
    from ..design import DesignSpace, candidate_designs, optimize
    from ..engine import EngineConfig, warm_pool
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenarios = casestudy.case_study_scenarios()
    # At least two workers even on a single-core box so the run crosses
    # the process boundary — worker capture, capsule transport and the
    # parent-side merge are exactly what this benchmark times.
    config = EngineConfig(workers=max(2, min(4, os.cpu_count() or 1)))
    warm_pool(config.workers)
    candidates = candidate_designs(DesignSpace())

    def run():
        # The full live fabric: worker span/metric capture merged into
        # fresh parent instruments, plus throttled progress.  The
        # per-run artifact flush (ledger finalization) is benched
        # separately in benchmarks/bench_evaluate.py.
        obs.set_tracer(obs.Tracer())
        obs.set_metrics(obs.MetricsRegistry())
        obs.set_progress(obs.ProgressReporter(stream=io.StringIO()))
        try:
            optimize(candidates, workload, scenarios, requirements, config=config)
        finally:
            obs.reset()

    return run


@bench(
    "optimize_cache_warm",
    description="many-scenario design-space search from a warm result cache",
)
def bench_optimize_cache_warm():
    from .. import casestudy
    from ..design import DesignSpace, candidate_designs, optimize
    from ..engine import EngineConfig, ResultCache
    from ..scenarios.failures import FailureScenario
    from ..units import MB
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    # A realistic audit sweep: many recovery targets per design, where
    # evaluation dwarfs key computation and the cache pays off.
    scenarios = [
        FailureScenario.object_corruption(
            object_size=1 * MB, recovery_target_age=f"{hours} hr"
        )
        for hours in (1, 2, 4, 8, 12, 24, 48, 96, 168, 336)
    ] + [
        casestudy.array_failure_scenario(),
        casestudy.site_failure_scenario(),
    ]
    config = EngineConfig(memory_cache_entries=256)
    cache = ResultCache(memory_entries=config.memory_cache_entries)
    candidates = candidate_designs(DesignSpace())
    # Populate the cache once; the timed region then measures pure
    # key-computation + lookup cost.
    optimize(candidates, workload, scenarios, requirements, config=config, cache=cache)

    def run():
        optimize(
            candidates, workload, scenarios, requirements,
            config=config, cache=cache,
        )

    return run


@bench("sensitivity.sweep", description="WAN link-count sweep, four points")
def bench_sensitivity_sweep():
    from .. import casestudy
    from ..design.sensitivity import sweep_link_count
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    scenario = casestudy.site_failure_scenario()

    def run():
        sweep_link_count([1, 2, 4, 10], workload, scenario, requirements)

    return run


@bench("recovery.simulate", description="processor-sharing replay of the baseline plan")
def bench_recovery_simulate():
    from .. import casestudy
    from ..core.demands import register_design_demands
    from ..core.recovery import plan_recovery
    from ..scenarios.failures import FailureScenario
    from ..simulation import RecoverySimulator
    from ..techniques.facts import FactsTable
    from ..workload.presets import cello

    design = casestudy.baseline_design()
    ledger = register_design_demands(design, cello(), FactsTable())
    plan = plan_recovery(
        design, ledger, FailureScenario.array_failure("primary-array"), cello()
    )
    devices = {d.name: d for d in design.devices()}
    bandwidths = {
        name: dev.max_bandwidth * dev.recovery_read_efficiency
        for name, dev in devices.items()
        if dev.max_bandwidth != float("inf")
    }
    demands = {
        name: dev.bandwidth_demand(ledger[dev]) * dev.recovery_read_efficiency
        for name, dev in devices.items()
        if dev.max_bandwidth != float("inf")
    }
    transfers = RecoverySimulator.transfers_from_plan(
        plan, devices_per_transfer=[("tape-library", "primary-array")]
    )

    def run():
        RecoverySimulator(bandwidths, demands, background_load=1.0).simulate(
            transfers
        )

    return run


@bench("lint.spec", description="design rules over the baseline spec")
def bench_lint_spec():
    from ..lint.engine import lint_spec

    spec = {
        "workload": "cello",
        "design": "baseline",
        "scenarios": ["object", "array", "site"],
        "requirements": {
            "unavailability_per_hour": 50_000,
            "loss_per_hour": 50_000,
        },
    }

    def run():
        lint_spec(spec)

    return run


@bench("lint.codelint", description="AST code lint over repro.core.evaluate")
def bench_lint_codelint():
    import inspect

    from ..core import evaluate as evaluate_module
    from ..lint import codelint
    from ..lint.loader import load_source

    source = inspect.getsource(evaluate_module)

    def run():
        codelint.lint_paths([load_source("bench/evaluate.py", source)])

    return run


@bench("lint.dimcheck", description="dimensional dataflow over repro.core.evaluate")
def bench_lint_dimcheck():
    import inspect

    from ..core import evaluate as evaluate_module
    from ..lint import dimcheck
    from ..lint.loader import load_source

    source = inspect.getsource(evaluate_module)

    def run():
        dimcheck.lint_paths([load_source("bench/evaluate.py", source)])

    return run


@bench(
    "lint.parcheck",
    description="interprocedural parallel-safety analysis over the engine package",
)
def bench_lint_parcheck():
    import inspect

    from ..engine import cache, executor, keys, sweep
    from ..lint import parcheck
    from ..lint.loader import load_source

    # The whole engine package as one project: real worker-boundary
    # roots (executor submits chunks) plus the modules reachable from
    # them — exercises collection, call-graph resolution and the BFS
    # effect propagation end to end.
    sources = [
        (f"bench/{mod.__name__.rsplit('.', 1)[-1]}.py", inspect.getsource(mod))
        for mod in (executor, sweep, cache, keys)
    ]

    def run():
        parcheck.lint_paths([load_source(*pair) for pair in sources])

    return run


@bench(
    "lint.exncheck",
    description="interprocedural exception-flow analysis over the engine package",
)
def bench_lint_exncheck():
    import inspect

    from ..engine import cache, executor, keys, sweep
    from ..lint import exncheck
    from ..lint.loader import load_source

    # The same project parcheck benchmarks: real worker-boundary roots
    # plus real try/except structure — exercises summary construction,
    # the escape-set fixpoint and the handler/pickling rules end to end.
    sources = [
        (f"bench/{mod.__name__.rsplit('.', 1)[-1]}.py", inspect.getsource(mod))
        for mod in (executor, sweep, cache, keys)
    ]

    def run():
        exncheck.lint_paths([load_source(*pair) for pair in sources])

    return run


@bench(
    "runs.diff",
    description="structural diff of two synthetic run manifests (in memory)",
)
def bench_runs_diff():
    from ..obs.diff import diff_runs
    from ..obs.runs import RunRecord

    def node(level, index, slow):
        name = f"phase{level}.op{index}"
        children = (
            [node(level + 1, child, slow) for child in range(3)]
            if level < 3
            else []
        )
        self_ms = 1.0
        if slow and level == 3 and index == 1:
            self_ms += 40.0
        cum = self_ms + sum(c["cum_ms"] for c in children)
        return {
            "name": name,
            "calls": 4,
            "cum_ms": cum,
            "self_ms": self_ms,
            "errors": 0,
            "children": children,
        }

    def flatten(tree_nodes, flat):
        for entry in tree_nodes:
            stats = flat.setdefault(
                entry["name"],
                {"calls": 0, "cum_ms": 0.0, "self_ms": 0.0, "errors": 0},
            )
            stats["calls"] += entry["calls"]
            stats["cum_ms"] += entry["cum_ms"]
            stats["self_ms"] += entry["self_ms"]
            flatten(entry["children"], flat)
        return flat

    def manifest(slow):
        tree = [node(1, root, slow) for root in range(3)]
        return {
            "manifest_schema": 2,
            "run_id": "cand" if slow else "base",
            "command": "optimize",
            "status": "ok",
            "started": "2026-01-01T00:00:00Z",
            "model_schema_version": "engine-v1:bench",
            "rollup": {
                "spans": flatten(tree, {}),
                "tree": tree,
                "total_ms": sum(entry["cum_ms"] for entry in tree),
                "span_count": 4 * 39,
            },
            "metrics": {
                "counters": {f"bench.counter.{i}": float(i) for i in range(24)},
                "gauges": {"bench.inflight": 0.0},
                "histograms": {
                    "bench.task.ms": {"count": 128, "total": 512.0}
                },
            },
            "tasks": [
                {
                    "task": f"design-{i}",
                    "label": "array",
                    "key": f"{i:064x}",
                    "digest": "e" * 64,
                    "cached": slow,
                    "ok": True,
                    "error_type": None,
                    "attempts": 1,
                }
                for i in range(128)
            ],
        }

    base = RunRecord("bench/base", manifest(False))
    cand = RunRecord("bench/cand", manifest(True))

    def run():
        diff_runs(base, cand)

    return run


@bench(
    "risk_ensemble",
    description="1000-member generated ensemble, analytic aggregation",
)
def bench_risk_ensemble():
    from .. import casestudy
    from ..risk import assess_risk, object_corruption_grid
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    design = casestudy.baseline_design()
    ensemble = object_corruption_grid(1000, total_rate_per_year=12.0)

    def run():
        assess_risk(design, workload, ensemble, requirements)

    return run


@bench(
    "risk_ensemble_cache_warm",
    description="the same 1000-member ensemble from a warm result cache",
)
def bench_risk_ensemble_cache_warm():
    from .. import casestudy
    from ..engine import EngineConfig, ResultCache
    from ..risk import assess_risk, object_corruption_grid
    from ..workload.presets import cello

    workload = cello()
    requirements = casestudy.case_study_requirements()
    design = casestudy.baseline_design()
    ensemble = object_corruption_grid(1000, total_rate_per_year=12.0)
    config = EngineConfig(memory_cache_entries=256)
    cache = ResultCache(memory_entries=config.memory_cache_entries)
    # Populate the cache once; the timed region then measures dedup,
    # key computation and the compound-Poisson fold.
    assess_risk(design, workload, ensemble, requirements, config=config, cache=cache)

    def run():
        assess_risk(
            design, workload, ensemble, requirements,
            config=config, cache=cache,
        )

    return run
