"""Two-tier result cache for evaluation tasks.

Results are cached by the content-addressed keys of
:mod:`repro.engine.keys` in up to two tiers:

* an in-process **memory tier** — a bounded LRU mapping keys to live
  result objects, free to hit, lost at process exit;
* an optional **disk tier** — an append-only JSONL file under the
  configured cache directory, surviving across runs.  Records hold an
  evaluation's ``{scenario: Assessment}`` map round-tripped through
  :mod:`repro.serialization`, so a restored assessment renders,
  explains and compares exactly like the original.

The disk format is deliberately append-only: concurrent writers can
interleave whole lines without locking, a torn final line is skipped on
load, and "last record wins" makes re-stores idempotent.  All cache
traffic is observable through the ``engine.cache.*`` metrics.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.results import Assessment
from ..exceptions import EngineError, ReproError
from ..obs import get_metrics
from ..serialization import assessment_from_dict, assessment_to_dict
from .keys import ValueMemo, is_assessment_map


#: The ``codec`` tag of every disk record: the one result shape the
#: cache persists is an evaluation's ``{scenario: Assessment}`` map.
#: A record with any other tag (written by some other build) is a miss.
_CODEC_TAG = "assessments"


def _encode(value: "Dict[str, Assessment]") -> "Dict[str, Any]":
    return {name: assessment_to_dict(item) for name, item in value.items()}


def _decode(payload: "Dict[str, Any]") -> "Dict[str, Assessment]":
    return {name: assessment_from_dict(item) for name, item in payload.items()}


class MemoryCache:
    """A bounded LRU over live result objects.

    ``max_entries <= 0`` disables the tier entirely (every operation is
    a cheap no-op), which keeps the engine's default configuration
    bit-identical to the pre-engine serial code paths.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        if self.max_entries <= 0:
            return None
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return None
        return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        if self.max_entries <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


class DiskCache:
    """The persistent JSONL tier.

    One record per line: ``{"key": ..., "codec": ..., "payload": ...}``.
    The index (key → latest record) loads lazily on first access;
    malformed lines — a torn write from a killed process — are counted
    and skipped, never fatal.
    """

    FILENAME = "results.jsonl"

    def __init__(self, cache_dir: "os.PathLike[str]"):
        self.path = Path(cache_dir) / self.FILENAME
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise EngineError(
                f"cache directory {str(cache_dir)!r} is unusable: {exc}"
            ) from exc
        self._index: "Optional[Dict[str, Dict[str, Any]]]" = None

    def _load_index(self) -> "Dict[str, Dict[str, Any]]":
        if self._index is not None:
            return self._index
        index: "Dict[str, Dict[str, Any]]" = {}
        skipped = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        key = record["key"]
                        if "codec" not in record or "payload" not in record:
                            raise KeyError("codec/payload")
                    except (ValueError, TypeError, KeyError):
                        skipped += 1
                        continue
                    index[key] = record
        if skipped:
            get_metrics().inc("engine.cache.corrupt_records", skipped)
        self._index = index
        return index

    def get(self, key: str) -> Optional[Any]:
        record = self._load_index().get(key)
        if record is None:
            return None
        if record["codec"] != _CODEC_TAG:
            return None
        try:
            return _decode(record["payload"])
        # A record the current model cannot rebuild (schema digest
        # collisions are the only path here) degrades to a miss:
        # ReproError covers the decoder's own validation, the rest are
        # the shapes a stale/corrupt JSON payload produces.  A bug in
        # the decoder itself must propagate, not masquerade as a miss.
        except (ReproError, ValueError, TypeError, KeyError, AttributeError):
            get_metrics().inc("engine.cache.corrupt_records")
            return None

    def put(self, key: str, value: Any) -> bool:
        """Persist ``value``; returns False unless it is an assessments map."""
        if not is_assessment_map(value):
            return False
        record = {"key": key, "codec": _CODEC_TAG, "payload": _encode(value)}
        # No sort_keys: the payload's own key order is meaningful (an
        # assessments map keeps its scenario input order) and already
        # deterministic.
        data = (json.dumps(record) + "\n").encode("utf-8")
        # One O_APPEND write syscall per record: concurrent writers
        # (two engine processes sharing a cache dir) interleave at
        # record granularity, never mid-line, so the last-wins index
        # stays parseable.  A buffered open("a") + write() can flush a
        # large record in several chunks and tear it.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        if self._index is not None:
            self._index[key] = record
        return True


class ResultCache:
    """The two tiers behind one get/put interface.

    Lookup order is memory then disk; a disk hit is promoted into
    memory so repeated lookups in one process pay the decode cost once.
    ``part_digests`` remembers the key digests of the immutable payload
    parts (workload, scenario tuple, requirements) the cache has seen,
    so requests that reuse those objects do not walk them again.
    Emits ``engine.cache.hits`` / ``engine.cache.misses`` /
    ``engine.cache.disk_hits`` / ``engine.cache.stores``.
    """

    def __init__(
        self,
        memory_entries: int = 0,
        cache_dir: "Optional[os.PathLike[str]]" = None,
    ):
        self.memory = MemoryCache(memory_entries)
        self.disk = DiskCache(cache_dir) if cache_dir is not None else None
        self.part_digests = ValueMemo()

    def get(self, key: str) -> "Tuple[bool, Any]":
        """``(hit, value)`` — the flag disambiguates a cached None."""
        metrics = get_metrics()
        value = self.memory.get(key)
        if value is not None:
            metrics.inc("engine.cache.hits")
            return True, value
        if self.disk is not None:
            value = self.disk.get(key)
            if value is not None:
                metrics.inc("engine.cache.hits")
                metrics.inc("engine.cache.disk_hits")
                self.memory.put(key, value)
                return True, value
        metrics.inc("engine.cache.misses")
        return False, None

    def put(self, key: str, value: Any) -> None:
        self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)
        get_metrics().inc("engine.cache.stores")
