"""Tests for the serving LRU cache: accounting, eviction, byte tracking,
and the artifact kinds a plan cache accepts."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.plan.cache import CacheStats, LRUCache, PlanCache


class TestCacheStats:
    def test_initially_zero(self):
        stats = CacheStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=2)
        snap = stats.snapshot()
        stats.hits += 5
        assert snap.hits == 2


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.insertions == 1

    def test_get_or_build_builds_once(self):
        cache = LRUCache(4)
        calls = []

        def builder():
            calls.append(1)
            return "value"

        assert cache.get_or_build("k", builder) == "value"
        assert cache.get_or_build("k", builder) == "value"
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_a_builder_may_reenter_its_own_cache(self):
        # The build runs under the cache's lock; the lock is re-entrant,
        # so a builder that reads or fills the same cache does not
        # deadlock (a worker thread turns a deadlock into a failure).
        cache = LRUCache(4)

        def builder():
            assert cache.get("inner") is None
            cache.put("inner", 1)
            return cache.get("inner") + 1

        thread = threading.Thread(
            target=lambda: cache.get_or_build("outer", builder), daemon=True
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "re-entrant build deadlocked"
        assert cache.get("outer") == 2
        assert cache.stats.insertions == 2

    def test_a_failed_build_inserts_nothing_and_frees_the_lock(self):
        cache = LRUCache(4)

        def broken():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", broken)
        assert "k" not in cache
        assert cache.stats.insertions == 0
        # Another thread can take the lock and build the key.
        built = []
        thread = threading.Thread(
            target=lambda: built.append(cache.get_or_build("k", lambda: 7)),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "a failed build kept the lock"
        assert built == [7]

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == 1

    def test_contains_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # must NOT refresh a
        cache.put("c", 3)  # evicts a, the true LRU
        assert cache.stats.lookups == 0
        assert "a" not in cache

    def test_capacity_one_thrashes(self):
        cache = LRUCache(1)
        for i in range(5):
            cache.get_or_build(i, lambda i=i: i * 10)
        assert len(cache) == 1
        assert cache.stats.misses == 5
        assert cache.stats.evictions == 4

    def test_replace_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.stats.evictions == 0
        assert cache.get("a") == 2

    def test_byte_tracking(self):
        cache = LRUCache(2, size_of=len)
        cache.put("a", "xxxx")
        cache.put("b", "yy")
        assert cache.nbytes == 6
        cache.put("c", "z")  # evicts a
        assert cache.nbytes == 3
        cache.put("b", "yyyyyy")  # replace updates bytes
        assert cache.nbytes == 7
        cache.clear()
        assert cache.nbytes == 0
        assert len(cache) == 0

    def test_clear_preserves_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.stats.hits == 1
        assert cache.get("a") is None

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            LRUCache(0)


class TestPlanCacheKinds:
    def test_unknown_capacity_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact kind"):
            PlanCache({"wieght": 4})  # the typo this validation exists for

    def test_unknown_shared_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact kind"):
            PlanCache({"plan": 4}, shared={"kernels": LRUCache(4)})

    def test_kernel_is_no_longer_a_kind(self):
        # No backend compiles kernels, so nothing may hold a segment of them.
        with pytest.raises(ConfigError, match="unknown artifact kind"):
            PlanCache({"kernel": 4})

    @pytest.mark.parametrize("kind", sorted(PlanCache.KNOWN_KINDS))
    def test_every_known_kind_is_a_segment_built_or_mounted(self, kind):
        built = PlanCache({kind: 2})
        built.put((kind, "x"), ("artifact",))
        assert built.kinds() == (kind,)
        assert built.get((kind, "x")) == ("artifact",)
        assert built.segment(kind).stats.hits == 1
        mounted = LRUCache(2)
        shared = PlanCache({}, shared={kind: mounted})
        shared.put((kind, "y"), ("artifact",))
        assert shared.segment(kind) is mounted
        assert mounted.peek((kind, "y")) == ("artifact",)

    @pytest.mark.parametrize("kind", sorted(PlanCache.KNOWN_KINDS))
    def test_only_verified_kinds_catch_a_corrupt_entry(self, kind):
        # A verified segment discards a corrupt entry and counts it in its
        # own ``poisoned``: the count a pool's ``poisoned_discards`` sums.
        cache = PlanCache({kind: 2})
        cache.put((kind, "x"), ("artifact",))
        segment = cache.segment(kind)
        if kind not in PlanCache.VERIFIED_KINDS:
            with pytest.raises(ConfigError):
                segment.corrupt((kind, "x"))
            assert cache.get((kind, "x")) == ("artifact",)
            return
        assert segment.corrupt((kind, "x"))
        assert cache.get((kind, "x")) is None
        assert segment.stats.poisoned == 1
        assert cache.total_stats().poisoned == 1
        assert len(segment) == 0
