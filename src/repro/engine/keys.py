"""Canonical content-addressed task keys.

An evaluation is a pure function of its inputs: the design, the
workload, the failure scenarios and the business requirements.  This
module reduces that input tuple to a deterministic hexadecimal key so
results can be cached and never computed twice:

* :func:`fingerprint` walks an arbitrary framework object graph
  (dataclasses, plain ``repro`` classes, enums, containers) into a
  JSON-able structure with **sorted keys everywhere** and stable
  reference numbering for shared objects (two levels storing on the
  same array fingerprint as one array plus a reference, not two
  arrays);
* :func:`model_schema_version` digests the *source code* of every
  module whose behavior feeds an assessment, so cache entries
  self-invalidate whenever the core model changes — no manual version
  bump to forget;
* :func:`task_key` combines both into the content hash used by the
  result cache.

The walk dispatches on a plan computed once per type (its kind and,
for a dataclass, its sorted compare fields).  Two identity memos let
a part's digest be reused instead of re-walked: a :data:`PartMemo`
lives for one ``map_evaluations`` call and takes any part, while a
:class:`ValueMemo` lives as long as its
:class:`~repro.engine.cache.ResultCache` and takes only deeply
immutable parts — a workload, a scenario tuple, requirements — never
a design, whose levels can still be added between two calls.

Anything with no deterministic serialization (an open file, a lambda,
a foreign extension type) raises
:class:`~repro.exceptions.CacheKeyError`; the engine treats such tasks
as uncacheable rather than guessing.

The purity assumption itself is enforced statically:
:mod:`repro.lint.parcheck` (run by ``repro lint``) propagates inferred
effects — nondeterminism, global mutation, I/O, unordered iteration —
from the engine's worker boundaries and fails CI when evaluation code
breaks the contract this module's keys depend on (DESIGN.md §11).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.results import Assessment
from ..exceptions import CacheKeyError
from ..serialization import assessment_to_dict, canonical_json

#: Bumped manually on cache-layout changes that the source digest does
#: not capture (e.g. a new fingerprint encoding).
SCHEMA_TAG = "engine-v1"

#: The parts of the package whose source defines evaluation results.
#: Relative to ``src/repro``; directories are walked recursively.
_MODEL_SOURCE_PATHS: "Tuple[str, ...]" = (
    "core",
    "devices",
    "techniques",
    "workload",
    "scenarios",
    "simulation",
    "units.py",
    "casestudy.py",
    "serialization.py",
)

_schema_version: Optional[str] = None


def model_schema_version() -> str:
    """A digest of the evaluation model's own source code.

    Computed once per process: SHA-256 over the bytes of every model
    source file, in sorted relative-path order, prefixed with
    :data:`SCHEMA_TAG`.  Any change to the model — a fixed formula, a
    new device parameter — yields a different version, so persistent
    cache entries written before the change can never be returned after
    it.
    """
    global _schema_version
    if _schema_version is not None:
        return _schema_version
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    try:
        source_files: "List[Path]" = []
        for entry in _MODEL_SOURCE_PATHS:
            path = package_root / entry
            if path.is_dir():
                source_files.extend(path.rglob("*.py"))
            elif path.is_file():
                source_files.append(path)
        for path in sorted(source_files, key=lambda p: str(p.relative_to(package_root))):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
        _schema_version = f"{SCHEMA_TAG}:{digest.hexdigest()[:16]}"
    except OSError:
        # Source unavailable (e.g. a frozen distribution): fall back to
        # the manual tag alone. Persistent caches lose automatic
        # invalidation but stay functional.
        _schema_version = SCHEMA_TAG
    return _schema_version


# Plan kinds, one per branch of the walk.  :func:`_plan` tries them in
# this order, which is the walk's precedence: an ``IntEnum`` is a
# scalar, a namedtuple a sequence, a dataclass *class* a foreign object.
_SCALAR, _ENUM, _SEQUENCE, _MAPPING, _SET, _DATACLASS, _OBJECT, _FOREIGN = range(8)

#: The exact types most nodes have: walked without a plan lookup.
_EXACT_SCALARS = frozenset({type(None), bool, int, float, str})


class _Plan(NamedTuple):
    """How the walk treats every instance of one type."""

    kind: int
    #: The type's ``__qualname__``: the ``$type`` / ``$enum`` tag.
    name: str
    #: Dataclasses: the sorted names of the ``compare=True`` fields.
    fields: "Tuple[str, ...]"
    #: Instances cannot change once built, given members that cannot
    #: either: scalars, enums, tuples, frozensets, frozen dataclasses.
    frozen: bool


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    """The walk plan of ``cls``, computed once per type.

    The cache is unbounded but holds one immutable plan per type ever
    walked, and a process walks a few dozen types.
    """
    name = cls.__qualname__
    if cls is type(None) or issubclass(cls, (bool, int, float, str)):
        return _Plan(_SCALAR, name, (), True)
    if issubclass(cls, enum.Enum):
        return _Plan(_ENUM, name, (), True)
    if issubclass(cls, (list, tuple)):
        return _Plan(_SEQUENCE, name, (), issubclass(cls, tuple))
    if issubclass(cls, dict):
        return _Plan(_MAPPING, name, (), False)
    if issubclass(cls, (set, frozenset)):
        return _Plan(_SET, name, (), issubclass(cls, frozenset))
    if not issubclass(cls, type) and is_dataclass(cls):
        names = tuple(sorted(f.name for f in fields(cls) if f.compare))
        frozen = bool(getattr(cls, "__dataclass_params__").frozen)
        return _Plan(_DATACLASS, name, names, frozen)
    module = getattr(cls, "__module__", "")
    if module == "repro" or module.startswith("repro."):
        return _Plan(_OBJECT, name, (), False)
    return _Plan(_FOREIGN, name, (), False)


class _Fingerprinter:
    """One fingerprint traversal: assigns stable reference numbers.

    Reference numbers are assigned in first-visit order, which is
    itself deterministic because every container is walked in sorted
    (or declared) order — so two structurally equal graphs always
    produce identical fingerprints, shared substructure included.
    Unordered containers (sets, dicts with non-string keys) are walked
    in the order of their members' standalone canonical forms, so their
    numbering does not follow ``PYTHONHASHSEED`` or insertion order.
    """

    def __init__(self) -> None:
        self._refs: "Dict[int, int]" = {}

    def walk(self, obj: Any) -> Any:
        """The JSON-able canonical form of ``obj``."""
        cls = type(obj)
        if cls in _EXACT_SCALARS:
            return obj
        kind, name, names, _ = _plan(cls)
        if kind == _SCALAR:
            return obj
        if kind == _DATACLASS or kind == _OBJECT:
            marker = id(obj)
            ref = self._refs.get(marker)
            if ref is not None:
                return {"$ref": ref}
            # Number the object *before* walking its state so reference
            # cycles terminate.
            ref = self._refs[marker] = len(self._refs)
            if kind == _DATACLASS:
                state = {field: self.walk(getattr(obj, field)) for field in names}
            else:
                state = {
                    key: self.walk(value) for key, value in sorted(vars(obj).items())
                }
            return {"$type": name, "$id": ref, "state": state}
        if kind == _SEQUENCE:
            return [self.walk(item) for item in obj]
        if kind == _ENUM:
            return {"$enum": name, "value": obj.value}
        if kind == _MAPPING:
            if all(isinstance(key, str) for key in obj):
                return {key: self.walk(value) for key, value in sorted(obj.items())}
            ordered = sorted(obj.items(), key=lambda entry: _standalone(entry[0]))
            return {
                "$dict": [[self.walk(key), self.walk(value)] for key, value in ordered]
            }
        if kind == _SET:
            return {"$set": [self.walk(item) for item in sorted(obj, key=_standalone)]}
        module = getattr(cls, "__module__", "")
        raise CacheKeyError(
            f"cannot fingerprint {name!r} (module "
            f"{module or '?'}): no deterministic serialization"
        )


def _standalone(obj: Any) -> str:
    """The canonical text of ``obj`` walked on its own: the sort key of
    an unordered container's members."""
    return canonical_json(_Fingerprinter().walk(obj))


def fingerprint(obj: Any) -> Any:
    """A deterministic JSON-able image of a framework object graph.

    Two calls on structurally equal inputs produce equal structures —
    across processes, interpreters and hash seeds.  Raises
    :class:`~repro.exceptions.CacheKeyError` for objects with no
    deterministic serialization.
    """
    return _Fingerprinter().walk(obj)


def _is_value(obj: Any) -> bool:
    """Whether ``obj`` is deeply immutable, so its digest can outlive a
    call: scalars, enums, and tuples, frozensets and frozen dataclasses
    made only of such values.  Stops at the first mutable node."""
    cls = type(obj)
    if cls in _EXACT_SCALARS:
        return True
    kind, _, names, frozen = _plan(cls)
    if not frozen:
        return False
    if kind == _SEQUENCE or kind == _SET:
        members = obj
    elif kind == _DATACLASS:
        members = [getattr(obj, name) for name in names]
    else:
        return True
    for member in members:
        if type(member) not in _EXACT_SCALARS and not _is_value(member):
            return False
    return True


#: Identity-keyed digest memo for one call: ``id -> (obj, digest)``.
#: The strong reference to ``obj`` pins its id for the memo's lifetime.
PartMemo = Dict[int, Tuple[Any, str]]


class ValueMemo:
    """Identity-keyed digests of deeply immutable parts, for as long as
    the owning :class:`~repro.engine.cache.ResultCache` lives.

    Only parts :func:`_is_value` admits enter: a workload, a scenario
    tuple, a requirements record.  Their digests cannot go stale, so
    requests that reuse one object skip its walk.  Designs, lists,
    dicts and sets never enter, so a design mutated between two calls
    is walked again.  Each entry holds a strong reference to its object
    (pinning the id).  Past :attr:`MAX_ENTRIES` the least recently used
    entry is dropped, so parts built fresh for every request (a risk
    member's one-scenario tuple) cannot push out the ones every request
    shares.  The bound is small because the memo keeps those fresh
    parts alive until they age out, and every full garbage collection
    traverses them.
    """

    MAX_ENTRIES = 256

    def __init__(self) -> None:
        self._entries: "OrderedDict[int, Tuple[Any, str]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: Any) -> Optional[str]:
        entry = self._entries.get(id(obj))
        if entry is None or entry[0] is not obj:
            return None
        self._entries.move_to_end(id(obj))
        return entry[1]

    def put(self, obj: Any, digest: str) -> None:
        entries = self._entries
        entries[id(obj)] = (obj, digest)
        if len(entries) > self.MAX_ENTRIES:
            entries.popitem(last=False)


def part_digest(
    obj: Any, memo: Optional[PartMemo] = None, values: Optional[ValueMemo] = None
) -> str:
    """The digest of one task-payload part, memoized by identity.

    A sweep's tasks share their workload, scenario tuple and
    requirements *objects*; with a ``memo`` those parts are
    fingerprinted once per call instead of once per task, and with a
    cache's ``values`` memo the immutable ones once per cache.
    Memoization never changes the digest — it only skips re-walking an
    object already walked.
    """
    if memo is not None:
        entry = memo.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
    digest = None if values is None else values.get(obj)
    if digest is None:
        # Plain dumps, not canonical_json: the fingerprint walk already
        # emits every mapping in sorted order, so re-sorting here would
        # only burn time.  The walk builds a fresh tree in which object
        # cycles are already ``$ref``s, so the cycle check is skipped too.
        body = json.dumps(
            fingerprint(obj),
            separators=(",", ":"),
            ensure_ascii=True,
            check_circular=False,
        )
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if values is not None and _is_value(obj):
            values.put(obj, digest)
    if memo is not None:
        memo[id(obj)] = (obj, digest)
    return digest


def is_assessment_map(value: Any) -> bool:
    """Whether ``value`` is an evaluation result: a non-empty
    ``{str: Assessment}`` map, the one shape that is digested and
    persisted."""
    return (
        isinstance(value, dict)
        and bool(value)
        and all(isinstance(key, str) for key in value)
        and all(isinstance(item, Assessment) for item in value.values())
    )


def result_digest(value: Any) -> Optional[str]:
    """A content digest of one task result, or None if undigestable.

    The digest covers the *outputs* of an evaluation — the assessment
    record of every scenario, minus the provenance block (whose
    wall-clock phase timings legitimately differ between two runs of
    the same work).  Two runs producing the same digest for the same
    task key therefore computed the same answer; a differing digest
    under an equal key is correctness drift, however fast or slow the
    runs were.  Any other result shape returns None — "not
    comparable", never a guessed hash.
    """
    if not is_assessment_map(value):
        return None
    encoded: "Dict[str, Any]" = {}
    for label, assessment in sorted(value.items()):
        record = assessment_to_dict(assessment)
        record.pop("provenance", None)
        encoded[label] = record
    try:
        body = canonical_json(encoded)
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def task_key(
    payload: Any, memo: Optional[PartMemo] = None, values: Optional[ValueMemo] = None
) -> str:
    """The content-addressed cache key of one evaluation task.

    The payload's top-level parts are digested independently (sorted by
    part name) and combined with the model schema version under
    SHA-256: equal inputs under an unchanged model always map to the
    same key, and *any* model change maps everything to fresh keys.
    Pass one ``memo`` dict across the tasks of a call, and the cache's
    :class:`ValueMemo` as ``values``, to digest shared parts only once.
    """
    if isinstance(payload, dict) and all(isinstance(k, str) for k in payload):
        parts = {
            name: part_digest(value, memo, values)
            for name, value in sorted(payload.items())
        }
    else:
        parts = {"payload": part_digest(payload, memo, values)}
    body = canonical_json({"schema": model_schema_version(), "parts": parts})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
