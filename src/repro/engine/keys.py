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
import hashlib
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

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
    "portfolio.py",
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


class _Fingerprinter:
    """One fingerprint traversal: assigns stable reference numbers.

    Reference numbers are assigned in first-visit order, which is
    itself deterministic because every container is walked in sorted
    (or declared) order — so two structurally equal graphs always
    produce identical fingerprints, shared substructure included.
    """

    def __init__(self) -> None:
        self._refs: "Dict[int, int]" = {}
        self._next_ref = 0

    def walk(self, obj: Any) -> Any:
        """The JSON-able canonical form of ``obj``."""
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, enum.Enum):
            return {"$enum": type(obj).__qualname__, "value": obj.value}
        if isinstance(obj, (list, tuple)):
            return [self.walk(item) for item in obj]
        if isinstance(obj, dict):
            return self._walk_mapping(obj)
        if isinstance(obj, (set, frozenset)):
            walked = [self.walk(item) for item in obj]
            return {"$set": sorted(walked, key=canonical_json)}
        if is_dataclass(obj) and not isinstance(obj, type):
            return self._walk_object(
                obj,
                {f.name: getattr(obj, f.name) for f in fields(obj) if f.compare},
            )
        module = getattr(type(obj), "__module__", "")
        if module == "repro" or module.startswith("repro."):
            return self._walk_object(obj, vars(obj))
        raise CacheKeyError(
            f"cannot fingerprint {type(obj).__qualname__!r} (module "
            f"{module or '?'}): no deterministic serialization"
        )

    def _walk_mapping(self, mapping: "Dict[Any, Any]") -> Any:
        if all(isinstance(key, str) for key in mapping):
            return {key: self.walk(value) for key, value in sorted(mapping.items())}
        entries = [[self.walk(key), self.walk(value)] for key, value in mapping.items()]
        entries.sort(key=lambda entry: canonical_json(entry[0]))
        return {"$dict": entries}

    def _walk_object(self, obj: Any, state: "Dict[str, Any]") -> Any:
        marker = id(obj)
        if marker in self._refs:
            return {"$ref": self._refs[marker]}
        # Number the object *before* walking its state so reference
        # cycles terminate.
        ref = self._refs[marker] = self._next_ref
        self._next_ref += 1
        return {
            "$type": type(obj).__qualname__,
            "$id": ref,
            "state": {key: self.walk(value) for key, value in sorted(state.items())},
        }


def fingerprint(obj: Any) -> Any:
    """A deterministic JSON-able image of a framework object graph.

    Two calls on structurally equal inputs produce equal structures —
    across processes, interpreters and hash seeds.  Raises
    :class:`~repro.exceptions.CacheKeyError` for objects with no
    deterministic serialization.
    """
    return _Fingerprinter().walk(obj)


#: Identity-keyed digest memo for one sweep: ``id -> (obj, digest)``.
#: The strong reference to ``obj`` pins its id for the memo's lifetime.
PartMemo = Dict[int, Tuple[Any, str]]


def part_digest(obj: Any, memo: Optional[PartMemo] = None) -> str:
    """The digest of one task-payload part, memoized by identity.

    A sweep's tasks share their workload, scenario tuple and
    requirements *objects*; with a memo those parts are fingerprinted
    once per sweep instead of once per task.  Memoization never changes
    the digest — it only skips re-walking an object already walked.
    """
    if memo is not None:
        entry = memo.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
    # Plain dumps, not canonical_json: the fingerprint walk already
    # emits every mapping in sorted order, so re-sorting here would
    # only burn time.
    body = json.dumps(fingerprint(obj), separators=(",", ":"), ensure_ascii=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if memo is not None:
        memo[id(obj)] = (obj, digest)
    return digest


def result_digest(value: Any) -> Optional[str]:
    """A content digest of one task result, or None if undigestable.

    The digest covers the *outputs* of an evaluation — the assessment
    record of every scenario, minus the provenance block (whose
    wall-clock phase timings legitimately differ between two runs of
    the same work).  Two runs producing the same digest for the same
    task key therefore computed the same answer; a differing digest
    under an equal key is correctness drift, however fast or slow the
    runs were.  Result shapes without a canonical serialization (e.g.
    portfolio assessments) return None —
    "not comparable", never a guessed hash.
    """
    if not isinstance(value, dict) or not value:
        return None
    encoded: "Dict[str, Any]" = {}
    for label, assessment in sorted(value.items()):
        if not isinstance(label, str) or not isinstance(assessment, Assessment):
            return None
        record = assessment_to_dict(assessment)
        record.pop("provenance", None)
        encoded[label] = record
    try:
        body = canonical_json(encoded)
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def task_key(payload: Any, memo: Optional[PartMemo] = None) -> str:
    """The content-addressed cache key of one evaluation task.

    The payload's top-level parts are digested independently (sorted by
    part name) and combined with the model schema version under
    SHA-256: equal inputs under an unchanged model always map to the
    same key, and *any* model change maps everything to fresh keys.
    Pass one ``memo`` dict across the tasks of a sweep to digest shared
    parts only once.
    """
    if isinstance(payload, dict) and all(isinstance(k, str) for k in payload):
        parts = {
            name: part_digest(value, memo)
            for name, value in sorted(payload.items())
        }
    else:
        parts = {"payload": part_digest(payload, memo)}
    body = canonical_json({"schema": model_schema_version(), "parts": parts})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
