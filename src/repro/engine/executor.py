"""Parallel, fault-tolerant execution of evaluation tasks.

:func:`map_evaluations` is the one entry point: give it a list of
:class:`EvaluationTask` (or :class:`PortfolioTask`) and an
:class:`EngineConfig`, get back one :class:`TaskOutcome` per task **in
input order** — regardless of the completion order of the workers, so
parallel runs are bit-identical to serial ones.

The execution strategy, in order of preference:

1. **cache** — tasks whose content key has a cached result never run;
2. **inline** — ``workers <= 1`` (the default), no pool, no pickling:
   exactly the code path the serial callers always had;
3. **process pool** — tasks are resolved in the parent (design
   factories are closures and cannot cross a process boundary; the
   built designs can), chunked to amortize dispatch overhead, and
   shipped to a reusable :class:`~concurrent.futures.ProcessPoolExecutor`.

Failure handling mirrors the framework's error taxonomy: a task raising
:class:`~repro.exceptions.ReproError` is a *modeling* outcome (an
infeasible candidate) — reported, never retried.  A worker crash, an
unexpected exception or a per-task timeout is an *execution* failure —
retried with exponential backoff up to ``retries`` times, then reported
as failed.  The sweep as a whole never hangs and never raises for a
single bad task.
"""

from __future__ import annotations

import dataclasses
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.evaluate import evaluate_scenarios
from ..core.hierarchy import StorageDesign
from ..core.results import Assessment
from ..exceptions import CacheKeyError, EngineError, ReproError
from ..obs.context import (
    TelemetryCapsule,
    TraceContext,
    current_context,
    merge_capsule,
)
from ..obs.telemetry import current, get_metrics, get_tracer, use
from ..scenarios.failures import FailureScenario
from ..scenarios.requirements import BusinessRequirements
from ..techniques.facts import FactsTable
from ..workload.spec import Workload
from .cache import ResultCache
from .keys import PartMemo, result_digest, task_key

if TYPE_CHECKING:
    from ..portfolio import Portfolio, PortfolioAssessment

#: A design factory: builds a fresh design (fresh devices) per call.
DesignFactory = Any


@dataclass(frozen=True)
class EngineConfig:
    """How a sweep runs.  The default is bit-identical to pre-engine code:
    serial, uncached, no timeouts.

    ``task_timeout`` is wall-clock seconds per task, enforced inside
    worker processes (and only meaningful with ``workers > 1`` — inline
    execution cannot be preempted).  ``chunk_size=None`` picks a chunk
    size that gives each worker a handful of chunks.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    memory_cache_entries: int = 0
    task_timeout: Optional[float] = None
    retries: int = 2
    retry_backoff: float = 0.05
    chunk_size: Optional[int] = None

    @property
    def caching(self) -> bool:
        return self.memory_cache_entries > 0 or self.cache_dir is not None


@dataclass(frozen=True)
class EvaluationTask:
    """One (design, workload, scenarios, requirements) evaluation.

    The design comes either as a built :class:`StorageDesign` or as a
    zero-argument ``factory`` (the design-space convention: candidates
    are built on demand rather than held all at once).  Factories are
    resolved in the parent process before dispatch.
    """

    name: str
    workload: Workload
    scenarios: Tuple[FailureScenario, ...]
    requirements: BusinessRequirements
    design: Optional[StorageDesign] = None
    factory: Optional[DesignFactory] = field(default=None, compare=False)
    strict_utilization: bool = True

    def resolve(self) -> "EvaluationTask":
        """The same task with the factory (unpicklable) replaced by the
        design it builds (picklable)."""
        if self.design is not None:
            return self if self.factory is None else dataclasses.replace(
                self, factory=None
            )
        if self.factory is None:
            raise EngineError(f"task {self.name!r} has neither design nor factory")
        return dataclasses.replace(self, design=self.factory(), factory=None)

    def key_payload(self) -> "Dict[str, Any]":
        """The cache-key input (call on a *resolved* task)."""
        return {
            "kind": "evaluation",
            "design": self.design,
            "workload": self.workload,
            "scenarios": self.scenarios,
            "requirements": self.requirements,
            "strict_utilization": self.strict_utilization,
        }

    def run(self, facts: Optional[FactsTable] = None) -> "Dict[str, Assessment]":
        """Evaluate the design, reading technique facts from ``facts``
        (the engine's per-call or per-chunk table; fresh when None)."""
        if self.design is None:
            raise EngineError(f"task {self.name!r} was not resolved before run()")
        return evaluate_scenarios(
            self.design,
            self.workload,
            self.scenarios,
            self.requirements,
            strict_utilization=self.strict_utilization,
            facts=facts,
        )


@dataclass(frozen=True)
class PortfolioTask:
    """One portfolio evaluation (several data objects on shared devices).

    Portfolio tasks are evaluated inline in the parent — they are few
    (one per scenario) while design sweeps are many.
    """

    name: str
    portfolio: "Portfolio"
    scenario: FailureScenario
    requirements: BusinessRequirements
    strict_utilization: bool = True

    def resolve(self) -> "PortfolioTask":
        return self

    def key_payload(self) -> "Dict[str, Any]":
        return {
            "kind": "portfolio",
            "portfolio": self.portfolio,
            "scenario": self.scenario,
            "requirements": self.requirements,
            "strict_utilization": self.strict_utilization,
        }

    def run(self) -> "PortfolioAssessment":
        return self.portfolio.evaluate(
            self.scenario,
            self.requirements,
            strict_utilization=self.strict_utilization,
        )


EngineTask = Union[EvaluationTask, PortfolioTask]


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is
    None on success.  ``retryable`` distinguishes execution failures
    (worker crash, timeout — retried before landing here) from modeling
    outcomes (:class:`~repro.exceptions.ReproError` — the task *ran*,
    the candidate is infeasible).
    """

    name: str
    value: Any = None
    error: Optional[BaseException] = None
    cached: bool = False
    attempts: int = 1
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class _TaskTimeout(Exception):
    """Internal: a task exceeded the per-task timeout inside a worker."""


def _run(task: EngineTask, facts: Optional[FactsTable]) -> Any:
    """Run one task; only evaluation tasks read technique facts."""
    if isinstance(task, EvaluationTask):
        return task.run(facts)
    return task.run()


def _run_with_timeout(
    task: EngineTask, timeout: Optional[float], facts: Optional[FactsTable]
) -> Any:
    """Run one task, preempting it after ``timeout`` seconds.

    Uses ``SIGALRM``/``setitimer``, which only works on the main thread
    of a process — exactly where pool workers run tasks.  Called on any
    other thread (or with no timeout), it runs the task unguarded.  A
    preempted task leaves no partial entry in ``facts``: entries are
    stored only once computed.
    """
    if timeout is None or threading.current_thread() is not threading.main_thread():
        return _run(task, facts)

    def _on_alarm(signum: int, frame: Any) -> None:
        raise _TaskTimeout(f"task {task.name!r} exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _run(task, facts)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_one(
    task: EngineTask,
    timeout: Optional[float],
    facts: Optional[FactsTable],
) -> "Tuple[str, Any, Optional[BaseException], bool]":
    """``(name, value, error, retryable)`` for one task, never raising."""
    try:
        return task.name, _run_with_timeout(task, timeout, facts), None, False
    except ReproError as exc:
        return task.name, None, exc, False
    except _TaskTimeout as exc:
        return task.name, None, exc, True
    except Exception as exc:  # lint: allow-broad-except
        # An unexpected bug in the model: transported to the parent as
        # a failed outcome instead of poisoning the whole pool.
        return task.name, None, exc, True


def _execute_one_traced(
    task: EngineTask,
    timeout: Optional[float],
    facts: FactsTable,
) -> "Tuple[str, Any, Optional[BaseException], bool]":
    """:func:`_execute_one` wrapped in an ``engine.task`` span.

    The wrapper span exists in *both* the serial inline path and the
    worker-side chunk path, so a merged parallel trace has the same
    span structure as a serial one (the byte-stability contract
    ``repro.obs.profile.span_skeleton`` checks).  ``_execute_one``
    never raises, so failures are recorded as attributes here.
    """
    with get_tracer().span("engine.task", task=task.name) as span:
        row = _execute_one(task, timeout, facts)
        error = row[2]
        if error is not None:
            span.set(
                error_type=type(error).__name__, error_message=str(error)
            )
    return row


def _execute_chunk(  # lint: worker-boundary
    tasks: "List[EngineTask]",
    timeout: Optional[float],
    ctx: Optional[TraceContext] = None,
) -> "Tuple[List[Tuple[str, Any, Optional[BaseException], bool]], Optional[TelemetryCapsule]]":
    """The unit of work shipped to a pool worker.

    With a :class:`~repro.obs.context.TraceContext`, the worker runs
    the chunk under fresh capturing instruments and returns everything
    they recorded as a telemetry capsule alongside the rows; without
    one (telemetry off in the parent) capture is skipped entirely and
    the capsule is None.  The chunk's tasks share one technique-facts
    table, which dies with the chunk.
    """
    facts = FactsTable()
    if ctx is None or not ctx.enabled:
        return [_execute_one(task, timeout, facts) for task in tasks], None
    with use(ctx.capture()) as telemetry:
        rows = [_execute_one_traced(task, timeout, facts) for task in tasks]
    return rows, TelemetryCapsule.pack(telemetry, ctx.base)


# One pool per worker count, reused across sweeps: fork+import costs far
# more than a typical sweep, so per-call pools would erase the speedup.
_POOL: "Optional[ProcessPoolExecutor]" = None
_POOL_WORKERS: int = 0
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS != workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = ProcessPoolExecutor(max_workers=workers)
            _POOL_WORKERS = workers
        return _POOL


def warm_pool(workers: int) -> None:
    """Pre-fork the shared pool so the first sweep doesn't pay for it.

    Waits for every worker to come up (each runs a trivial task), so a
    benchmark's timed region measures evaluation, not process start.
    """
    if workers <= 1:
        return
    pool = _get_pool(workers)
    for future in [pool.submit(int, 0) for _ in range(workers)]:
        future.result()


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests and atexit paths)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
            _POOL = None
            _POOL_WORKERS = 0


def _discard_pool() -> None:
    """Drop a broken pool so the next ``_get_pool`` builds a fresh one."""
    shutdown_pool()


def _pickles(task: EngineTask) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:  # lint: allow-broad-except
        # pickle raises anything the object's reduction raises; any
        # failure means "run this one inline".
        return False


def _chunked(
    items: "List[Tuple[int, EngineTask]]", size: int
) -> "List[List[Tuple[int, EngineTask]]]":
    return [items[start : start + size] for start in range(0, len(items), size)]


def _retry_inline(
    task: EngineTask, config: EngineConfig, first_error: BaseException
) -> TaskOutcome:
    """Re-run a failed task in the parent with exponential backoff."""
    metrics = get_metrics()
    progress = current().progress
    error: BaseException = first_error
    attempts = 1
    while attempts <= config.retries:
        time.sleep(config.retry_backoff * (2 ** (attempts - 1)))
        metrics.inc("engine.retries")
        progress.advance(retries=1)
        attempts += 1
        # Keep enforcing the per-task timeout (works on the parent's
        # main thread too): a genuinely hung task must never block the
        # sweep just because its worker died first.  A retry gets a
        # fresh facts table (None), sharing nothing with the failed try.
        name, value, error_now, retryable = _execute_one(
            task, config.task_timeout, None
        )
        if error_now is None:
            return TaskOutcome(name=name, value=value, attempts=attempts)
        error = error_now
        if not retryable:
            return TaskOutcome(
                name=name, error=error, attempts=attempts, retryable=False
            )
    return TaskOutcome(
        name=task.name, error=error, attempts=attempts, retryable=True
    )


def _run_pool(
    pending: "List[Tuple[int, EngineTask]]",
    config: EngineConfig,
    outcomes: "List[Optional[TaskOutcome]]",
) -> None:
    """Execute ``(index, task)`` pairs on the pool, filling ``outcomes``.

    Tasks in a chunk whose worker dies or whose chunk blows the parent
    budget are retried *individually inline* — correctness first; the
    pool keeps serving the healthy chunks.
    """
    metrics = get_metrics()
    progress = current().progress
    workers = min(config.workers, len(pending))
    chunk_size = config.chunk_size
    if chunk_size is None:
        # Aim for ~4 chunks per worker so stragglers rebalance.
        chunk_size = max(1, len(pending) // (workers * 4) or 1)
    chunks = _chunked(pending, chunk_size)
    metrics.inc("engine.chunks", len(chunks))

    budget: Optional[float] = None
    if config.task_timeout is not None:
        budget = config.task_timeout * chunk_size + 5.0

    # One context describes the whole sweep; workers capture telemetry
    # only when the parent has live instruments.
    ctx = current_context()

    pool = _get_pool(workers)
    futures = []
    for chunk in chunks:
        tasks = [task for _, task in chunk]
        futures.append(
            (chunk, pool.submit(_execute_chunk, tasks, config.task_timeout, ctx))
        )

    # Futures are consumed in submission order (= input order), so
    # capsule merges — and therefore gauge last-writes and the merged
    # span skeleton — are deterministic and match a serial run.
    for chunk, future in futures:
        try:
            rows, capsule = future.result(timeout=budget)
        except (BrokenProcessPool, FutureTimeoutError, OSError) as exc:
            # The whole chunk is suspect: drop the pool and redo each
            # task inline with retries.
            _discard_pool()
            chunk_failed = 0
            for index, task in chunk:
                outcomes[index] = _retry_inline(task, config, exc)
                outcome = outcomes[index]
                if outcome is not None and outcome.error is not None:
                    chunk_failed += 1
            progress.advance(done=len(chunk), failed=chunk_failed)
            continue
        if capsule is not None:
            merge_capsule(capsule)
        chunk_failed = 0
        for (index, task), (name, value, error, retryable) in zip(chunk, rows):
            if error is None:
                outcomes[index] = TaskOutcome(name=name, value=value)
            elif retryable and config.retries > 0:
                outcomes[index] = _retry_inline(task, config, error)
            else:
                outcomes[index] = TaskOutcome(
                    name=name, error=error, retryable=retryable
                )
            resolved_outcome = outcomes[index]
            if resolved_outcome is not None and resolved_outcome.error is not None:
                chunk_failed += 1
        progress.advance(done=len(chunk), failed=chunk_failed)


def _record_failures(
    map_span: Any,
    outcomes: "List[Optional[TaskOutcome]]",
    keys: "List[Optional[str]]",
) -> None:
    """Count failed outcomes and attach diagnosis records to the sweep span.

    Each failed task contributes to ``engine.tasks_failed`` and to a
    per-exception-type ``engine.tasks_failed.<Type>`` counter, and a
    compact record (task name, cache key, error, attempts) lands on the
    ``engine.map`` span — which the run ledger persists to
    ``spans.jsonl``, so a failed sweep can be diagnosed post-hoc
    without re-running it.
    """
    metrics = get_metrics()
    failures: "List[Dict[str, Any]]" = []
    for index, outcome in enumerate(outcomes):
        if outcome is None or outcome.error is None:
            continue
        error_type = type(outcome.error).__name__
        metrics.inc("engine.tasks_failed")
        metrics.inc(f"engine.tasks_failed.{error_type}")
        failures.append(
            {
                "task": outcome.name,
                "key": keys[index],
                "error_type": error_type,
                "error": str(outcome.error),
                "attempts": outcome.attempts,
                "retryable": outcome.retryable,
            }
        )
    if failures:
        map_span.set(failed=len(failures), failures=failures)


def map_evaluations(
    tasks: "Sequence[EngineTask]",
    config: Optional[EngineConfig] = None,
    cache: Optional[ResultCache] = None,
    label: str = "sweep",
) -> "List[TaskOutcome]":
    """Run every task; return one outcome per task, in input order.

    The workhorse behind ``optimize``, ``run_whatif``, sensitivity
    sweeps and the CLI.  Never raises for a task-level failure — check
    each outcome's ``error``.  Pass an explicit ``cache`` to share one
    across calls; otherwise a cache is built from the config (and the
    memory tier then lives only for this call).  ``label`` names the
    sweep in progress reports (``[designs] 37/120 ...``).
    """
    config = config or EngineConfig()
    telemetry = current()
    metrics = telemetry.metrics
    tracer = telemetry.tracer
    progress = telemetry.progress
    task_log = telemetry.task_log
    metrics.set_gauge("engine.workers", config.workers)
    metrics.inc("engine.tasks", len(tasks))

    if cache is None and config.caching:
        cache = ResultCache(
            memory_entries=config.memory_cache_entries,
            cache_dir=config.cache_dir,
        )

    progress.begin(len(tasks), label=label)
    with tracer.span(
        "engine.map", tasks=len(tasks), workers=config.workers
    ) as map_span:
        outcomes: "List[Optional[TaskOutcome]]" = [None] * len(tasks)
        keys: "List[Optional[str]]" = [None] * len(tasks)
        pending: "List[Tuple[int, EngineTask]]" = []
        # Shared payload parts (one workload, one scenario tuple) are
        # digested once for the whole call, not once per task, and the
        # immutable ones once for the cache's lifetime.
        memo: PartMemo = {}
        values = None if cache is None else cache.part_digests

        cache_hits = 0
        resolve_failures = 0
        # Keys are needed by the cache and by the run observatory's
        # task log (which joins two runs' work items by content key),
        # so they are computed whenever either consumer is live.
        want_keys = cache is not None or task_log is not None
        for index, task in enumerate(tasks):
            try:
                resolved = task.resolve()
            except ReproError as exc:
                # A factory that cannot even build its design is a
                # modeling outcome, same as an evaluation-time one.
                outcomes[index] = TaskOutcome(name=task.name, error=exc)
                resolve_failures += 1
                continue
            if want_keys:
                try:
                    key = task_key(resolved.key_payload(), memo, values)
                except CacheKeyError:
                    metrics.inc("engine.cache.unkeyable")
                    key = None
                if key is not None:
                    keys[index] = key
                    if cache is not None:
                        hit, value = cache.get(key)
                        if hit:
                            outcomes[index] = TaskOutcome(
                                name=task.name, value=value, cached=True
                            )
                            cache_hits += 1
                            continue
            pending.append((index, resolved))
        if cache_hits or resolve_failures:
            progress.advance(
                done=cache_hits + resolve_failures,
                cached=cache_hits,
                failed=resolve_failures,
            )

        if pending:
            # Tasks run in this process share one technique-facts
            # table; it lives only as long as this call.
            facts = FactsTable()
            if config.workers <= 1:
                for index, resolved in pending:
                    name, value, error, retryable = _execute_one_traced(
                        resolved, None, facts
                    )
                    outcomes[index] = TaskOutcome(
                        name=name, value=value, error=error, retryable=retryable
                    )
                    progress.advance(done=1, failed=1 if error is not None else 0)
            else:
                parallel: "List[Tuple[int, EngineTask]]" = []
                inline: "List[Tuple[int, EngineTask]]" = []
                for pair in pending:
                    (parallel if _pickles(pair[1]) else inline).append(pair)
                if inline:
                    metrics.inc("engine.tasks_inline", len(inline))
                    for index, resolved in inline:
                        name, value, error, retryable = _execute_one_traced(
                            resolved, None, facts
                        )
                        outcomes[index] = TaskOutcome(
                            name=name, value=value, error=error, retryable=retryable
                        )
                        progress.advance(
                            done=1, failed=1 if error is not None else 0
                        )
                if parallel:
                    _run_pool(parallel, config, outcomes)

        if cache is not None:
            for index, outcome in enumerate(outcomes):
                if (
                    outcome is not None
                    and outcome.ok
                    and not outcome.cached
                    and keys[index] is not None
                ):
                    key = keys[index]
                    assert key is not None
                    cache.put(key, outcome.value)

        _record_failures(map_span, outcomes, keys)
        if task_log is not None:
            # One record per task, in input order: the manifest's
            # ``tasks`` field, joining this run to any other run of the
            # same work by content key and separating correctness drift
            # from performance drift by result digest.
            for index, outcome in enumerate(outcomes):
                if outcome is None:
                    continue
                task_log.record(
                    task=outcome.name,
                    label=label,
                    key=keys[index],
                    digest=result_digest(outcome.value) if outcome.ok else None,
                    cached=outcome.cached,
                    ok=outcome.ok,
                    error_type=(
                        None
                        if outcome.error is None
                        else type(outcome.error).__name__
                    ),
                    attempts=outcome.attempts,
                )
        final = [outcome for outcome in outcomes if outcome is not None]
        if len(final) != len(tasks):
            raise EngineError("engine lost track of a task outcome")
    progress.finish()
    return final
