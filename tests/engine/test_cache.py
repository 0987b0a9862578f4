"""Unit tests for the bounded LRU the engine's trial cache sits on."""

from repro.engine import LRUCache, MISSING


class TestBasics:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get_or_miss("a") == 1
        assert len(cache) == 1

    def test_put_refreshes_value(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get_or_miss("a") == 2
        assert len(cache) == 1


class TestGetOrMiss:
    def test_miss_returns_sentinel(self):
        cache = LRUCache(4)
        assert cache.get_or_miss("nope") is MISSING
        assert cache.stats()["misses"] == 1

    def test_cached_falsy_values_hit(self):
        cache = LRUCache(4)
        for key, falsy in (("n", None), ("z", 0), ("t", ()), ("s", "")):
            cache.put(key, falsy)
        for key, falsy in (("n", None), ("z", 0), ("t", ()), ("s", "")):
            got = cache.get_or_miss(key)
            assert got is not MISSING
            assert got == falsy
        stats = cache.stats()
        assert stats["hits"] == 4 and stats["misses"] == 0

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", None)
        cache.put("b", 2)
        assert cache.get_or_miss("a") is None  # "b" is now the oldest
        cache.put("c", 3)                      # evicts "b"
        assert cache.get_or_miss("a") is None
        assert cache.get_or_miss("b") is MISSING

    def test_sentinel_shared_across_caches(self):
        # one module-level sentinel: callers compare with `is`
        a, b = LRUCache(2), LRUCache(2)
        assert a.get_or_miss("x") is b.get_or_miss("x") is MISSING


class TestEviction:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get_or_miss("a") is MISSING
        assert cache.get_or_miss("b") == 2
        assert cache.get_or_miss("c") == 3

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get_or_miss("a")  # "b" is now the oldest
        cache.put("c", 3)       # evicts "b"
        assert cache.get_or_miss("a") == 1
        assert cache.get_or_miss("b") is MISSING

    def test_capacity_never_exceeded(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3


class TestStats:
    def test_hit_miss_eviction_tallies(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get_or_miss("a")
        cache.get_or_miss("zz")
        cache.put("c", 3)
        stats = cache.stats()
        assert stats == {
            "size": 2,
            "capacity": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }
