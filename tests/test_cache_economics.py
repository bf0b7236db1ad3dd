"""DiskStageCache economics (budgets, eviction policies, the ledger) and
crash consistency.

The contract under test:

* after **any** ``put`` on a budgeted cache, the committed footprint never
  exceeds ``budget_bytes`` (property-tested with randomised payload sizes);
* LRU evicts the least recently touched entry, LFU keeps the hottest one;
* the ``_index.json`` ledger is advisory — corrupting or deleting it, or
  killing a writer mid-``put``, degrades to a cache miss and a rebuilt
  ledger, never to a wrong replay;
* concurrent readers sharing the directory see evictions as plain misses.
"""

import json
import os

import numpy as np
import pytest

from repro.exceptions import PipelineError
from repro.pipeline import (
    DISK_CACHE_POLICIES,
    DiskStageCache,
    MemoryStageCache,
    resolve_stage_cache,
)
from repro.pipeline.cache import CacheEntryMeta


def _put(cache, key, n_bytes=1000, stage="s"):
    cache.put(
        key,
        {"blob": np.zeros(max(1, n_bytes // 8))},
        CacheEntryMeta(key=key, stage=stage, outputs=["blob"]),
    )


def _disk_footprint(directory) -> int:
    return sum(
        path.stat().st_size
        for path in directory.iterdir()
        if path.suffix in (".pkl", ".json") and path.name != DiskStageCache.INDEX_NAME
    )


class TestBudgetEnforcement:
    def test_budget_never_exceeded_after_any_put(self, tmp_path):
        """Property: randomised put sequence, footprint <= budget throughout."""
        rng = np.random.default_rng(42)
        budget = 30_000
        cache = DiskStageCache(tmp_path, budget_bytes=budget, policy="lru")
        for step in range(40):
            _put(cache, f"key{step}", n_bytes=int(rng.integers(100, 12_000)))
            assert cache.total_bytes() <= budget
            assert _disk_footprint(tmp_path) <= budget
        assert cache.counters.evictions > 0
        assert cache.stats()["evictions"] == cache.counters.evictions

    def test_oversized_single_entry_is_evicted_immediately(self, tmp_path):
        cache = DiskStageCache(tmp_path, budget_bytes=2_000)
        _put(cache, "huge", n_bytes=50_000)
        assert cache.total_bytes() <= 2_000
        assert cache.get("huge") is None

    def test_lru_evicts_least_recently_touched(self, tmp_path):
        cache = DiskStageCache(tmp_path, budget_bytes=25_000, policy="lru")
        _put(cache, "old", n_bytes=10_000)
        _put(cache, "warm", n_bytes=10_000)
        assert cache.get("old") is not None  # refresh recency of "old"
        _put(cache, "new", n_bytes=10_000)  # must push out "warm"
        assert cache.get("warm") is None
        assert cache.get("old") is not None
        assert cache.get("new") is not None

    def test_lfu_keeps_the_hot_entry(self, tmp_path):
        cache = DiskStageCache(tmp_path, budget_bytes=25_000, policy="lfu")
        _put(cache, "hot", n_bytes=10_000)
        _put(cache, "cold", n_bytes=10_000)
        for _ in range(3):
            assert cache.get("hot") is not None
        _put(cache, "new", n_bytes=10_000)
        assert cache.get("hot") is not None
        assert cache.get("cold") is None

    def test_evict_to_shrinks_an_unbounded_cache(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        for index in range(4):
            _put(cache, f"key{index}", n_bytes=5_000)
        before = cache.total_bytes()
        evicted = cache.evict_to(before // 2)
        assert evicted >= 1
        assert cache.total_bytes() <= before // 2
        with pytest.raises(PipelineError):
            cache.evict_to(-1)

    def test_reopening_with_a_smaller_budget_evicts_before_any_put(self, tmp_path):
        unbounded = DiskStageCache(tmp_path)
        for index in range(5):
            _put(unbounded, f"key{index}", n_bytes=10_000)
        budget = unbounded.total_bytes() // 3
        # A resumed run that replays every stage only reads; the directory
        # must still be within the new budget.
        reopened = DiskStageCache(tmp_path, budget_bytes=budget)
        assert reopened.total_bytes() <= budget
        assert _disk_footprint(tmp_path) <= budget
        assert reopened.counters.evictions >= 1
        assert reopened.get("key4") is not None  # LRU keeps the newest
        assert reopened.get("key0") is None

    def test_stats_reports_occupancy_and_counters(self, tmp_path):
        cache = DiskStageCache(tmp_path, budget_bytes=50_000, policy="lfu")
        _put(cache, "k")
        cache.get("k")
        cache.get("absent")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == cache.total_bytes() > 0
        assert stats["budget_bytes"] == 50_000
        assert stats["policy"] == "lfu"
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1
        # MemoryStageCache exposes the same interface.
        memory = MemoryStageCache(max_entries=8)
        assert memory.stats()["entries"] == 0
        assert memory.stats()["max_entries"] == 8

    def test_validation(self, tmp_path):
        assert set(DISK_CACHE_POLICIES) == {"lru", "lfu"}
        with pytest.raises(PipelineError):
            DiskStageCache(tmp_path, policy="fifo")
        with pytest.raises(PipelineError):
            DiskStageCache(tmp_path, budget_bytes=0)
        with pytest.raises(PipelineError):
            resolve_stage_cache(None, budget_bytes=1000)
        with pytest.raises(PipelineError):
            resolve_stage_cache(MemoryStageCache(), budget_bytes=1000)
        bounded = resolve_stage_cache(tmp_path / "c", budget_bytes=1000, policy="lfu")
        assert bounded.budget_bytes == 1000 and bounded.policy == "lfu"


class TestCrashConsistency:
    def test_corrupt_index_rebuilds_from_meta_files(self, tmp_path):
        cache = DiskStageCache(tmp_path, budget_bytes=100_000)
        _put(cache, "a", n_bytes=2_000)
        _put(cache, "b", n_bytes=2_000)
        (tmp_path / DiskStageCache.INDEX_NAME).write_text("{ not json !")
        reopened = DiskStageCache(tmp_path, budget_bytes=100_000)
        assert reopened.stats()["entries"] == 2
        assert reopened.get("a") is not None
        assert reopened.get("b") is not None
        assert reopened.total_bytes() == _disk_footprint(tmp_path)

    def test_missing_index_rebuilds(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        _put(cache, "a")
        os.unlink(tmp_path / DiskStageCache.INDEX_NAME)
        reopened = DiskStageCache(tmp_path)
        assert reopened.get("a") is not None
        assert reopened.total_bytes() > 0

    def test_index_listing_wrong_keys_degrades_to_rebuild(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        _put(cache, "real")
        (tmp_path / DiskStageCache.INDEX_NAME).write_text(
            json.dumps({"version": 1, "entries": {"ghost": {"size": "NaN!"}}})
        )
        reopened = DiskStageCache(tmp_path)
        assert reopened.get("real") is not None
        assert "ghost" not in reopened._index

    def test_kill_mid_put_leaves_only_a_miss(self, tmp_path):
        """A payload without its meta marker (writer died between the two
        atomic renames) must read as a miss, and a later put must recover."""
        cache = DiskStageCache(tmp_path)
        _put(cache, "done")
        # Simulate the crash: payload committed, meta never written.
        (tmp_path / "half.pkl").write_bytes(b"\x80\x04K\x01.")
        # And the earlier window: an orphan tmp file from _write_atomic.
        (tmp_path / "other.pkl.abc123.tmp").write_bytes(b"partial")
        reopened = DiskStageCache(tmp_path)
        assert reopened.get("half") is None
        assert reopened.get("done") is not None
        _put(reopened, "half", n_bytes=500)
        assert reopened.get("half") is not None
        reopened.clear()  # clear also sweeps the orphan tmp file
        assert not (tmp_path / "other.pkl.abc123.tmp").exists()

    def test_truncated_payload_is_a_miss_then_recoverable(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        _put(cache, "key", n_bytes=4_000)
        payload = tmp_path / "key.pkl"
        payload.write_bytes(payload.read_bytes()[:100])  # torn write
        reopened = DiskStageCache(tmp_path)
        assert reopened.get("key") is None
        _put(reopened, "key", n_bytes=400)
        assert reopened.get("key") is not None

    def test_concurrent_reader_sees_eviction_as_a_miss(self, tmp_path):
        writer = DiskStageCache(tmp_path, budget_bytes=15_000, policy="lru")
        reader = DiskStageCache(tmp_path)
        _put(writer, "first", n_bytes=10_000)
        assert reader.get("first") is not None
        _put(writer, "second", n_bytes=10_000)  # evicts "first"
        assert reader.get("first") is None
        assert reader.get("second") is not None

    def test_concurrent_writer_entries_are_adopted_into_the_ledger(self, tmp_path):
        ours = DiskStageCache(tmp_path, budget_bytes=1_000_000)
        theirs = DiskStageCache(tmp_path)
        _put(theirs, "foreign", n_bytes=3_000)
        assert ours.get("foreign") is not None  # adopted on first touch
        assert ours.total_bytes() >= 3_000
