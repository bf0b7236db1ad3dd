"""Content-addressed stage checkpoints: in-memory and on-disk caches.

A :class:`~repro.pipeline.Pipeline` asks its cache for each stage's key
before running it; a hit replays the checkpointed outputs and the stage is
skipped entirely.  Keys are chained (stage name + version + config subset +
inputs, see :meth:`repro.pipeline.Pipeline.stage_key`): seed inputs enter
by content fingerprint (:mod:`repro.pipeline.fingerprint`) and a produced
input enters as its producer's key.  So a re-run with one changed parameter
re-executes only the stages whose key actually changed, and everything
downstream of them.  Keys from versions before chaining differ, so an
existing cache directory misses once and is then rewritten.

Two implementations:

* :class:`MemoryStageCache` — a bounded LRU for same-process reuse
  (parameter grids, repeated fits in a service).
* :class:`DiskStageCache` — a directory of checkpoint files for
  cross-process / cross-session resume (``graphint pipeline run --resume``).
  Entries are written atomically (payload first, then the JSON meta record
  as the commit marker — the same crash-safety idiom as the model-artifact
  manifest), and the payload format is pickle: the cache is a *local,
  trusted* checkpoint store scoped to one machine and one library version,
  not an exchange format like :mod:`repro.serve.artifacts`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import tempfile
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Dict, List, Optional, Union

import numpy as np

from repro.exceptions import PipelineError
from repro.utils.validation import check_positive_int


def _clone_generators(value: object) -> object:
    """Deep-copy every :class:`numpy.random.Generator` inside ``value``.

    Checkpointed outputs are otherwise stored and replayed *by reference*
    (stages treat their inputs as read-only), but generators are the one
    output a downstream stage legitimately mutates by drawing from them.
    Snapshotting them on ``put`` and handing out fresh copies on ``get``
    keeps every replay starting from the pristine stream position — the
    disk cache gets this for free from its pickle round-trip.  Containers
    are rebuilt only along paths that actually hold a generator, so arrays
    and graphs are never copied.
    """
    if isinstance(value, np.random.Generator):
        return copy.deepcopy(value)
    if isinstance(value, dict):
        cloned = {key: _clone_generators(item) for key, item in value.items()}
        if all(cloned[key] is value[key] for key in value):
            return value
        return cloned
    if isinstance(value, (list, tuple)):
        cloned_items = [_clone_generators(item) for item in value]
        if all(new is old for new, old in zip(cloned_items, value)):
            return value
        return type(value)(cloned_items)
    return value


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Corrupt checkpoints renamed aside (``*.corrupt``) on a failed load.
    quarantines: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantines": self.quarantines,
        }


@dataclass
class CacheEntryMeta:
    """Descriptive record kept next to each checkpoint (for ``inspect``)."""

    key: str
    stage: str
    outputs: List[str] = field(default_factory=list)
    seconds: float = 0.0
    created_unix: float = 0.0
    #: On-disk payload size in bytes; 0 for in-memory entries (outputs are
    #: stored by reference there, so no serialised size exists).
    payload_bytes: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "stage": self.stage,
            "outputs": list(self.outputs),
            "seconds": float(self.seconds),
            "created_unix": float(self.created_unix),
            "payload_bytes": int(self.payload_bytes),
        }


class StageCache(ABC):
    """Checkpoint store the pipeline consults before running each stage."""

    def __init__(self) -> None:
        self.counters = CacheStats()

    @abstractmethod
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Return the checkpointed outputs for ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: str, outputs: Dict[str, object], meta: CacheEntryMeta) -> None:
        """Checkpoint ``outputs`` under ``key``."""

    @abstractmethod
    def entries(self) -> List[CacheEntryMeta]:
        """Describe every stored checkpoint (newest last)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every checkpoint (counters are kept)."""

    def _occupancy(self) -> Dict[str, object]:
        """Implementation-specific occupancy figures merged into stats()."""
        return {}

    def stats(self) -> Dict[str, object]:
        """Uniform counters + occupancy snapshot of this cache.

        Every implementation reports the same counter keys (``hits``,
        ``misses``, ``stores``, ``evictions``) plus its own occupancy —
        entry count and capacity for :class:`MemoryStageCache`; entry
        count, byte total, budget and policy for :class:`DiskStageCache`.
        """
        data: Dict[str, object] = self.counters.as_dict()
        data.update(self._occupancy())
        return data


class MemoryStageCache(StageCache):
    """A bounded in-process LRU of stage checkpoints.

    Outputs are stored by reference (no copy): stages treat their inputs as
    read-only, so replaying a reference is safe and free.
    """

    def __init__(self, max_entries: int = 32) -> None:
        super().__init__()
        self.max_entries = check_positive_int(max_entries, "max_entries")
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._meta: Dict[str, CacheEntryMeta] = {}
        self._lock = Lock()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            if key not in self._entries:
                self.counters.misses += 1
                return None
            self._entries.move_to_end(key)
            self.counters.hits += 1
            return {
                name: _clone_generators(value)
                for name, value in self._entries[key].items()
            }

    def put(self, key: str, outputs: Dict[str, object], meta: CacheEntryMeta) -> None:
        with self._lock:
            self._entries[key] = {
                name: _clone_generators(value) for name, value in outputs.items()
            }
            self._entries.move_to_end(key)
            self._meta[key] = meta
            self.counters.stores += 1
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._meta.pop(evicted, None)
                self.counters.evictions += 1

    def entries(self) -> List[CacheEntryMeta]:
        with self._lock:
            return [self._meta[key] for key in self._entries]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._meta.clear()

    def _occupancy(self) -> Dict[str, object]:
        with self._lock:
            return {"entries": len(self._entries), "max_entries": self.max_entries}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Eviction orders :class:`DiskStageCache` understands.
DISK_CACHE_POLICIES = ("lru", "lfu")


class DiskStageCache(StageCache):
    """A directory of stage checkpoints for cross-session resume.

    Layout: one ``<key>.pkl`` payload plus one ``<key>.json`` meta record
    per checkpoint.  The meta record is written last via tmp+rename — it is
    the entry's commit marker, so a crash mid-write leaves an orphan
    payload that is ignored (and overwritten) rather than a half-readable
    checkpoint.

    Economics: ``budget_bytes`` caps the cache's on-disk footprint.  Opening
    the cache, and every ``put`` after committing its entry, evicts committed
    entries in ``policy`` order (``"lru"`` — least recently *used*,
    ``"lfu"`` — least frequently used) until the total fits, so the cache
    never exceeds its budget once open — a full UCR sweep can share one
    bounded directory.  Sizes, hit counts and recency live in a persisted
    ``_index.json`` ledger (written atomically, like every other file
    here); a corrupt or missing index is rebuilt from the meta records, it
    can never poison correctness because ``get`` trusts only the payload +
    meta pair on disk.
    """

    PAYLOAD_SUFFIX = ".pkl"
    META_SUFFIX = ".json"
    INDEX_NAME = "_index.json"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        budget_bytes: Optional[int] = None,
        policy: str = "lru",
    ) -> None:
        super().__init__()
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise PipelineError(
                f"stage cache path {self.directory} exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        if policy not in DISK_CACHE_POLICIES:
            raise PipelineError(
                f"cache policy must be one of {list(DISK_CACHE_POLICIES)}, "
                f"got {policy!r}"
            )
        self.policy = policy
        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes < 1:
                raise PipelineError(
                    f"budget_bytes must be a positive byte count or None, "
                    f"got {budget_bytes}"
                )
        self.budget_bytes = budget_bytes
        self._lock = Lock()
        self._index: Dict[str, Dict[str, object]] = self._load_index()
        self._clock = max(
            (int(record.get("access", 0)) for record in self._index.values()),
            default=0,
        )
        # A resumed run that replays every stage never puts: shrink now.
        if budget_bytes is not None and self._evict_to_locked(budget_bytes):
            self._save_index()

    # ------------------------------------------------------------------ #
    def _payload_path(self, key: str) -> Path:
        return self.directory / f"{key}{self.PAYLOAD_SUFFIX}"

    def _meta_path(self, key: str) -> Path:
        return self.directory / f"{key}{self.META_SUFFIX}"

    def _index_path(self) -> Path:
        return self.directory / self.INDEX_NAME

    # ------------------------------------------------------------------ #
    # the economics ledger (sizes, hits, recency)
    # ------------------------------------------------------------------ #
    def _entry_size(self, key: str) -> int:
        size = 0
        for path in (self._payload_path(key), self._meta_path(key)):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return size

    def _rebuild_index(self) -> Dict[str, Dict[str, object]]:
        """Reconstruct the ledger from the committed meta records.

        Hit counts and recency are lost (reset to the creation order), but
        sizes — what the budget enforcement needs — come straight from the
        files, so a corrupt index degrades economics precision, never
        correctness.
        """
        index: Dict[str, Dict[str, object]] = {}
        for order, entry in enumerate(self.entries(), start=1):
            index[entry.key] = {
                "size": self._entry_size(entry.key),
                "hits": 0,
                "access": order,
                "stage": entry.stage,
                "created_unix": entry.created_unix,
            }
        return index

    def _load_index(self) -> Dict[str, Dict[str, object]]:
        try:
            with self._index_path().open("r", encoding="utf-8") as handle:
                raw = json.load(handle)
            entries = raw["entries"]
            index: Dict[str, Dict[str, object]] = {}
            for key, record in entries.items():
                index[str(key)] = {
                    "size": int(record["size"]),
                    "hits": int(record.get("hits", 0)),
                    "access": int(record.get("access", 0)),
                    "stage": str(record.get("stage", "")),
                    "created_unix": float(record.get("created_unix", 0.0)),
                }
            return index
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, AttributeError):
            return self._rebuild_index()

    def _save_index(self) -> None:
        payload = json.dumps(
            {"version": 1, "entries": self._index}, indent=2, sort_keys=True
        ).encode("utf-8")
        try:
            self._write_atomic(self._index_path(), lambda handle: handle.write(payload))
        except OSError:  # pragma: no cover - read-only directory etc.
            pass  # the ledger is advisory; the next load rebuilds it

    def _touch(self, key: str, *, hit: bool) -> None:
        record = self._index.get(key)
        if record is None:
            # Entry written by another process sharing the directory (or a
            # pre-index version): adopt it into the ledger.
            record = {
                "size": self._entry_size(key),
                "hits": 0,
                "access": 0,
                "stage": "",
                "created_unix": 0.0,
            }
            self._index[key] = record
        self._clock += 1
        record["access"] = self._clock
        if hit:
            record["hits"] = int(record["hits"]) + 1

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, object]]:
        meta_path = self._meta_path(key)
        payload_path = self._payload_path(key)
        if not (meta_path.exists() and payload_path.exists()):
            self.counters.misses += 1
            return None
        try:
            with payload_path.open("rb") as handle:
                outputs = pickle.load(handle)
        except Exception:  # noqa: BLE001 - a corrupt checkpoint is a miss
            # A checkpoint that cannot be replayed must never poison the
            # run; quarantining it (rename to *.corrupt) turns what would
            # be a silent re-read-and-re-miss on every future run into a
            # one-time event that leaves the bytes behind for diagnosis.
            self._quarantine(key)
            self.counters.misses += 1
            return None
        if not isinstance(outputs, dict):
            self._quarantine(key)
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        with self._lock:
            self._touch(key, hit=True)
            self._save_index()
        return outputs

    def _quarantine(self, key: str) -> None:
        """Move a corrupt checkpoint aside so it is never re-read.

        Payload and meta are renamed to ``*.corrupt`` (atomic within the
        directory, best-effort if a concurrent clear already removed them)
        and the key leaves the advisory ledger.  The ``.corrupt`` suffix
        matches neither ``*.pkl`` nor ``*.json``, so ``entries()``,
        ``clear()`` and eviction never look at a quarantined file again —
        but the bytes stay on disk for diagnosis instead of being silently
        re-read and re-missed on every future run.
        """
        quarantined = False
        for path in (self._payload_path(key), self._meta_path(key)):
            try:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
                quarantined = True
            except OSError:
                pass
        if quarantined:
            self.counters.quarantines += 1
        with self._lock:
            if self._index.pop(key, None) is not None:
                self._save_index()

    def put(self, key: str, outputs: Dict[str, object], meta: CacheEntryMeta) -> None:
        # Unique tmp names (mkstemp): two processes sharing the directory
        # may store the same key concurrently, and a fixed tmp path would
        # let one writer truncate the other's half-written bytes and then
        # commit a corrupt payload behind a valid meta marker.
        self._write_atomic(
            self._payload_path(key), lambda handle: pickle.dump(dict(outputs), handle, protocol=4)
        )
        try:
            payload_bytes = self._payload_path(key).stat().st_size
        except OSError:  # pragma: no cover - raced by a concurrent clear
            payload_bytes = 0
        meta = dataclasses.replace(meta, payload_bytes=int(payload_bytes))
        meta_bytes = json.dumps(meta.as_dict(), indent=2, sort_keys=True).encode("utf-8")
        self._write_atomic(self._meta_path(key), lambda handle: handle.write(meta_bytes))
        self.counters.stores += 1
        with self._lock:
            self._touch(key, hit=False)
            record = self._index[key]
            record["size"] = int(payload_bytes) + len(meta_bytes)
            record["stage"] = meta.stage
            record["created_unix"] = float(meta.created_unix)
            if self.budget_bytes is not None:
                self._evict_to_locked(self.budget_bytes)
            self._save_index()

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    def _eviction_order(self) -> List[str]:
        if self.policy == "lfu":
            # Least frequently used first; recency breaks ties, so a cold
            # cache degenerates to LRU instead of alphabetical chance.
            sort_key = lambda key: (  # noqa: E731 - tiny local ordering
                int(self._index[key]["hits"]),
                int(self._index[key]["access"]),
            )
        else:
            sort_key = lambda key: int(self._index[key]["access"])  # noqa: E731
        return sorted(self._index, key=sort_key)

    def _evict_to_locked(self, budget: int) -> int:
        evicted = 0
        total = sum(int(record["size"]) for record in self._index.values())
        for key in self._eviction_order():
            if total <= budget:
                break
            record = self._index.pop(key)
            total -= int(record["size"])
            for path in (self._payload_path(key), self._meta_path(key)):
                try:
                    path.unlink()
                except OSError:
                    pass
            self.counters.evictions += 1
            evicted += 1
        return evicted

    def evict_to(self, budget: int) -> int:
        """Evict entries in policy order until the total fits ``budget``.

        Returns the number of entries removed.  A cache with a
        ``budget_bytes`` evicts to it when it opens and after every
        ``put``; calling this directly shrinks a cache on demand.
        """
        if int(budget) < 0:
            raise PipelineError(f"budget must be >= 0, got {budget}")
        with self._lock:
            evicted = self._evict_to_locked(int(budget))
            self._save_index()
        return evicted

    def total_bytes(self) -> int:
        """Current on-disk footprint of every committed entry (ledger view)."""
        with self._lock:
            return sum(int(record["size"]) for record in self._index.values())

    def _occupancy(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._index),
                "total_bytes": sum(
                    int(record["size"]) for record in self._index.values()
                ),
                "budget_bytes": self.budget_bytes,
                "policy": self.policy,
            }

    def _write_atomic(self, path: Path, write) -> None:
        descriptor, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                write(handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def entries(self) -> List[CacheEntryMeta]:
        records: List[CacheEntryMeta] = []
        for meta_path in sorted(self.directory.glob(f"*{self.META_SUFFIX}")):
            try:
                with meta_path.open("r", encoding="utf-8") as handle:
                    raw = json.load(handle)
                if str(raw["key"]) != meta_path.stem:
                    continue  # foreign JSON file, not a checkpoint we wrote
                records.append(
                    CacheEntryMeta(
                        key=str(raw["key"]),
                        stage=str(raw["stage"]),
                        outputs=[str(name) for name in raw.get("outputs", [])],
                        seconds=float(raw.get("seconds", 0.0)),
                        created_unix=float(raw.get("created_unix", 0.0)),
                        payload_bytes=int(raw.get("payload_bytes", 0)),
                    )
                )
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                continue  # orphan/corrupt meta: not a committed entry
        records.sort(key=lambda record: record.created_unix)
        return records

    def clear(self) -> None:
        """Drop every *committed* checkpoint plus leftover tmp files.

        Deliberately conservative: only `<key>.pkl` / `<key>.json` pairs
        whose meta record parses and names its own file stem are removed,
        so pointing a cache at a directory that also holds unrelated
        ``.json`` / ``.pkl`` files (a results folder, a repo root) never
        deletes anything that is not a checkpoint this class wrote.
        """
        for entry in self.entries():
            for path in (self._payload_path(entry.key), self._meta_path(entry.key)):
                try:
                    path.unlink()
                except OSError:
                    pass
        for leftover in self.directory.glob("*.tmp"):
            name = leftover.name
            if f"{self.PAYLOAD_SUFFIX}." in name or f"{self.META_SUFFIX}." in name:
                try:
                    leftover.unlink()
                except OSError:
                    pass
        with self._lock:
            self._index.clear()
            try:
                self._index_path().unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self.entries())


def resolve_stage_cache(
    cache: Union[None, str, Path, StageCache],
    *,
    budget_bytes: Optional[int] = None,
    policy: str = "lru",
) -> Optional[StageCache]:
    """Normalise the ``stage_cache=`` argument every pipeline API accepts.

    ``None`` disables checkpointing, a path selects a
    :class:`DiskStageCache` rooted there (``budget_bytes`` / ``policy``
    configure its eviction economics), and a :class:`StageCache` instance
    is used as-is (shared instances are how a parameter grid reuses
    upstream stages across fits) — combining an instance with the economics
    keywords is rejected, since the instance already fixed its own budget.
    """
    if cache is None:
        if budget_bytes is not None:
            raise PipelineError(
                "cache budget given but checkpointing is disabled (stage_cache=None)"
            )
        return None
    if isinstance(cache, StageCache):
        if budget_bytes is not None:
            raise PipelineError(
                "budget_bytes cannot be combined with a StageCache instance; "
                "configure the budget on the instance instead"
            )
        return cache
    if isinstance(cache, (str, Path)):
        return DiskStageCache(cache, budget_bytes=budget_bytes, policy=policy)
    raise PipelineError(
        f"stage_cache must be None, a directory path, or a StageCache, "
        f"got {type(cache).__name__}"
    )
