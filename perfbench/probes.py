"""Benchmark-side tracing: spans at the program's layer boundaries.

The traced run wraps the public functions of each layer *at the names
through which callers reach them* (``repro.core.evaluate.compute_data_loss``,
``repro.engine.executor.task_key``, ...), so no program source changes.
Spans stay in memory — name, start, end, parent and a request id shared
within a request — and are written out when the run ends.  A layer's
self time is its span's duration minus the time its child spans cover;
the self time of the per-request root span is the part of the request
that no layer span covers (``bench.unattributed_pct``).
"""

from __future__ import annotations

import ast
import importlib
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

REQUEST = "bench.request"


class Recorder:
    """In-memory span store plus the counters measured at the same
    boundaries."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 = root), request id]``
        self.spans: "List[List[Any]]" = []
        self.counts: "Counter[str]" = Counter()
        self.design_bytes: "List[int]" = []
        self.parsed_files: "set[str]" = set()
        self._stack: "List[int]" = []
        self._request: Optional[int] = None
        self._design_pending = False

    @property
    def active(self) -> bool:
        """True while a request runs."""
        return self._request is not None

    def request(self, request_id: int, thunk: "Callable[[], Any]") -> Any:
        """Run one request under a root span; returns its result."""
        self._request = request_id
        try:
            return self._timed(REQUEST, thunk, (), {})
        finally:
            self._request = None

    def _timed(
        self, name: str, fn: "Callable[..., Any]", args: Any, kwargs: Any
    ) -> Any:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._request]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(
        self,
        fn: "Callable[..., Any]",
        name: str,
        on_result: "Optional[Callable[[Any, Tuple[Any, ...]], None]]" = None,
    ) -> "Callable[..., Any]":
        """``fn`` under a span; ``on_result(result, args)`` counts outcomes."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Calls outside a request (set-up, output checks) are the
            # benchmark's own work, not the program's: left unrecorded.
            if recorder._request is None:
                return fn(*args, **kwargs)
            result = recorder._timed(name, fn, args, kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- reductions ---------------------------------------------------

    def self_times(self) -> "Dict[str, Tuple[int, float]]":
        """``{span name: (calls, total self seconds)}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: "Dict[str, List[float]]" = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[index]
        return {name: (int(calls), total) for name, (calls, total) in totals.items()}

    def request_wall(self) -> float:
        """Total duration of the request root spans, seconds."""
        return sum(end - start for name, start, end, _, _ in self.spans if name == REQUEST)

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: "List[Tuple[Any, str, Any]]" = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(
        self,
        recorder: Recorder,
        owner: Any,
        attr: str,
        name: str,
        on_result: "Optional[Callable[[Any, Tuple[Any, ...]], None]]" = None,
    ) -> None:
        self.set(owner, attr, recorder.wrap(getattr(owner, attr), name, on_result))

    def set_item(self, mapping: "Dict[str, Any]", key: str, value: Any) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


_MISSING = object()


class _KeysJson:
    """Stands in for ``json`` inside :mod:`repro.engine.keys` so the size
    of a design's canonical form is read off the dump the key is hashed
    from, instead of being recomputed."""

    def __init__(self, recorder: Recorder, real: Any) -> None:
        self._recorder = recorder
        self._real = real

    def dumps(self, obj: Any, *args: Any, **kwargs: Any) -> str:
        body = self._real.dumps(obj, *args, **kwargs)
        if self._recorder._design_pending:
            self._recorder._design_pending = False
            self._recorder.design_bytes.append(len(body))
        return body

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def install(
    recorder: Recorder,
    caches: "Iterable[Any]" = (),
    factories: "Iterable[Dict[str, Any]]" = (),
) -> Patches:
    """Wrap every layer boundary; returns the patches to restore.

    ``caches`` are the :class:`~repro.engine.cache.ResultCache` objects
    the workload passes to the program; ``factories`` are the mappings
    of design factories it hands to the design layer.
    """
    from repro.core.hierarchy import StorageDesign
    from repro.techniques.timeline import CycleModel

    # Modules by full name: some packages re-export a function under the
    # name of its submodule (``repro.core.evaluate``).
    (
        serialization, core_evaluate, engine_cache, executor, keys, sweep,
        codelint, dimcheck, exncheck, parcheck, lint_engine, aggregate,
    ) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "serialization", "core.evaluate", "engine.cache", "engine.executor",
            "engine.keys", "engine.sweep", "lint.codelint", "lint.dimcheck",
            "lint.exncheck", "lint.parcheck", "lint.engine", "risk.aggregate",
        )
    )

    patches = Patches()
    counts = recorder.counts
    wrap = patches.wrap

    for attr, name in (
        ("validate_design", "core.validate"),
        ("register_design_demands", "core.demands"),
        ("compute_utilization", "core.utilization"),
        ("compute_data_loss", "core.dataloss"),
        ("plan_recovery", "core.recovery"),
        ("compute_costs", "core.cost"),
    ):
        wrap(recorder, core_evaluate, attr, name)
    wrap(recorder, executor, "evaluate_scenarios", "core.evaluate")

    real_cycle_init = CycleModel.__init__

    def counted_cycle_init(self: Any, *args: Any, **kwargs: Any) -> None:
        if recorder.active:
            counts["techniques.cycle_models"] += 1
        real_cycle_init(self, *args, **kwargs)

    patches.set(CycleModel, "__init__", counted_cycle_init)

    wrap(recorder, sweep, "map_evaluations", "engine.executor")
    wrap(recorder, aggregate, "map_evaluations", "engine.executor")
    wrap(recorder, executor, "task_key", "engine.keys.task_key")

    real_fingerprint = keys.fingerprint

    def counted_fingerprint(obj: Any) -> Any:
        if recorder.active:
            counts["engine.keys.part_walks"] += 1
            recorder._design_pending = isinstance(obj, StorageDesign)
        return real_fingerprint(obj)

    patches.set(keys, "fingerprint", counted_fingerprint)
    patches.set(keys, "json", _KeysJson(recorder, keys.json))

    for cache in caches:
        _wrap_cache(recorder, patches, cache)

    wrap(recorder, keys, "canonical_json", "serialization.canonical_json")
    wrap(recorder, aggregate, "canonical_json", "serialization.canonical_json")
    wrap(recorder, engine_cache, "assessment_to_dict", "serialization.encode")
    wrap(recorder, engine_cache, "assessment_from_dict", "serialization.decode")
    for attr in ("workload_from_spec", "requirements_from_spec", "ensemble_from_spec"):
        wrap(recorder, serialization, attr, "serialization.spec")
    wrap(recorder, serialization, "design_from_spec", "design.build")
    for mapping in factories:
        for key, factory in list(mapping.items()):
            patches.set_item(mapping, key, recorder.wrap(factory, "design.build"))

    def count_members(result: Any, args: Any) -> None:
        counts["risk.members"] += len(result.members)
        counts["risk.unique_scenarios"] += result.unique_scenarios

    wrap(recorder, aggregate, "assess_risk", "risk.aggregate", count_members)
    wrap(recorder, aggregate, "scenario_digest", "risk.aggregate.scenario_digest")
    wrap(recorder, aggregate, "compound_poisson_distribution", "risk.distributions.fold")
    wrap(recorder, aggregate, "cross_check", "risk.montecarlo.cross_check")

    for module, name in (
        (codelint, "lint.codelint"),
        (dimcheck, "lint.dimcheck"),
        (parcheck, "lint.parcheck"),
        (exncheck, "lint.exncheck"),
    ):
        wrap(recorder, module, "lint_paths", name)
    wrap(recorder, lint_engine, "lint_files", "lint.spec")

    real_parse = ast.parse

    def parse(source: Any, filename: str = "<unknown>", *args: Any, **kwargs: Any) -> Any:
        if recorder.active:
            recorder.parsed_files.add(filename)
        return real_parse(source, filename, *args, **kwargs)

    patches.set(ast, "parse", recorder.wrap(parse, "lint.parse"))
    return patches


def _wrap_cache(recorder: Recorder, patches: Patches, cache: Any) -> None:
    """Instance-level probes on one :class:`ResultCache` and its disk tier."""
    counts = recorder.counts

    def note_get(result: Any, args: Any) -> None:
        counts["engine.cache.gets"] += 1
        if result[0]:
            counts["engine.cache.hits"] += 1

    patches.wrap(recorder, cache, "get", "engine.cache.get", note_get)
    patches.wrap(recorder, cache, "put", "engine.cache.put")
    disk = cache.disk
    if disk is None:
        return

    def note_disk_get(result: Any, args: Any) -> None:
        if result is not None:
            counts["engine.cache.disk_hits"] += 1

    def note_disk_put(result: Any, args: Any) -> None:
        counts["engine.cache.disk_stores"] += 1

    patches.wrap(recorder, disk, "get", "engine.cache.get", note_disk_get)
    patches.wrap(recorder, disk, "put", "engine.cache.put", note_disk_put)
    real_load = disk._load_index

    def load_index() -> Any:
        if disk._index is not None or not recorder.active:
            return real_load()
        return recorder._timed("engine.cache.index_load", real_load, (), {})

    patches.set(disk, "_load_index", load_index)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: Recorder, requests: int, disk_bytes_written: int = 0
) -> "Dict[str, float]":
    """The per-layer metrics of one traced pass.

    Times are self milliseconds per request; counts are totals over
    the pass; ratios carry their base in the name.
    """
    selfs = recorder.self_times()
    counts = recorder.counts

    def per_request_ms(name: str) -> float:
        return _ratio(selfs.get(name, (0, 0.0))[1] * 1e3, requests)

    assess_calls = selfs.get("core.dataloss", (0, 0.0))[0]
    wall = recorder.request_wall()
    metrics: "Dict[str, float]" = {
        "core.validate_ms": per_request_ms("core.validate"),
        "core.demands_ms": per_request_ms("core.demands"),
        "core.utilization_ms": per_request_ms("core.utilization"),
        "core.dataloss_ms": per_request_ms("core.dataloss"),
        "core.recovery_ms": per_request_ms("core.recovery"),
        "core.cost_ms": per_request_ms("core.cost"),
        "core.evaluate_ms": per_request_ms("core.evaluate"),
        "core.assess_calls": float(assess_calls),
        "techniques.cycle_models_per_assess": _ratio(
            counts["techniques.cycle_models"], assess_calls
        ),
        "design.build_ms": per_request_ms("design.build"),
        "engine.keys.task_key_ms": per_request_ms("engine.keys.task_key"),
        "engine.keys.part_walks": float(counts["engine.keys.part_walks"]),
        "engine.keys.design_canonical_bytes": _ratio(
            sum(recorder.design_bytes), len(recorder.design_bytes)
        ),
        "engine.cache.hit_ratio": _ratio(
            counts["engine.cache.hits"], counts["engine.cache.gets"]
        ),
        "engine.cache.disk_hit_ratio": _ratio(
            counts["engine.cache.disk_hits"], counts["engine.cache.gets"]
        ),
        "engine.cache.get_ms": per_request_ms("engine.cache.get"),
        "engine.cache.put_ms": per_request_ms("engine.cache.put"),
        "engine.cache.index_load_ms": _ratio(
            selfs.get("engine.cache.index_load", (0, 0.0))[1] * 1e3,
            selfs.get("engine.cache.index_load", (0, 0.0))[0],
        ),
        "engine.cache.disk_bytes_per_store": _ratio(
            disk_bytes_written, counts["engine.cache.disk_stores"]
        ),
        "engine.executor.overhead_ms": per_request_ms("engine.executor"),
        "serialization.canonical_json_calls": float(
            selfs.get("serialization.canonical_json", (0, 0.0))[0]
        ),
        "serialization.canonical_json_ms": per_request_ms("serialization.canonical_json"),
        "serialization.encode_ms": per_request_ms("serialization.encode"),
        "serialization.decode_ms": per_request_ms("serialization.decode"),
        "serialization.spec_ms": per_request_ms("serialization.spec"),
        "risk.aggregate.assess_ms": per_request_ms("risk.aggregate"),
        "risk.aggregate.digests_per_member": _ratio(
            selfs.get("risk.aggregate.scenario_digest", (0, 0.0))[0],
            counts["risk.members"],
        ),
        "risk.aggregate.scenario_digest_ms": per_request_ms(
            "risk.aggregate.scenario_digest"
        ),
        "risk.aggregate.dedup_ratio": _ratio(
            counts["risk.unique_scenarios"], counts["risk.members"]
        ),
        "risk.distributions.fold_ms": per_request_ms("risk.distributions.fold"),
        "risk.montecarlo.cross_check_ms": per_request_ms("risk.montecarlo.cross_check"),
        "lint.parses_per_file": _ratio(
            selfs.get("lint.parse", (0, 0.0))[0], len(recorder.parsed_files)
        ),
        "lint.parse_ms": per_request_ms("lint.parse"),
        "lint.codelint_ms": per_request_ms("lint.codelint"),
        "lint.dimcheck_ms": per_request_ms("lint.dimcheck"),
        "lint.parcheck_ms": per_request_ms("lint.parcheck"),
        "lint.exncheck_ms": per_request_ms("lint.exncheck"),
        "lint.spec_ms": per_request_ms("lint.spec"),
        "bench.unattributed_pct": _ratio(
            selfs.get(REQUEST, (0, 0.0))[1] * 100.0, wall
        ),
    }
    return metrics


#: Counts that must repeat bit-for-bit across two traced passes at one
#: seed, so later changes can claim them by name.
EXACT_COUNTS = (
    "core.assess_calls",
    "techniques.cycle_models_per_assess",
    "engine.keys.part_walks",
    "engine.keys.design_canonical_bytes",
    "engine.cache.hit_ratio",
    "engine.cache.disk_hit_ratio",
    "engine.cache.disk_bytes_per_store",
    "serialization.canonical_json_calls",
    "risk.aggregate.digests_per_member",
    "risk.aggregate.dedup_ratio",
    "lint.parses_per_file",
)
