"""Unit tests for the set-associative cache substrate."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheStats


def make_cache(size=1024, block=64, assoc=2, latency=1):
    return Cache("T", size, block, assoc, latency)


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(size=1024, block=64, assoc=2)
        assert cache.num_sets == 8

    def test_direct_mapped(self):
        cache = make_cache(size=512, block=64, assoc=1)
        assert cache.num_sets == 8

    def test_fully_associative(self):
        cache = make_cache(size=512, block=64, assoc=8)
        assert cache.num_sets == 1

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            make_cache(block=48)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size=64, block=64, assoc=2)


class TestAccess:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0)[0] is False

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0)
        assert cache.access(0)[0] is True

    def test_same_block_hits(self):
        cache = make_cache(block=64)
        cache.access(128)
        assert cache.access(128 + 63)[0] is True

    def test_adjacent_block_misses(self):
        cache = make_cache(block=64)
        cache.access(0)
        assert cache.access(64)[0] is False

    def test_lru_eviction(self):
        cache = make_cache(size=256, block=64, assoc=2)  # 2 sets
        set_stride = 2 * 64  # same set every 2 blocks
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(c)           # evicts a (LRU)
        assert cache.probe(a) is False
        assert cache.probe(b) is True
        assert cache.probe(c) is True

    def test_lru_updated_on_hit(self):
        cache = make_cache(size=256, block=64, assoc=2)
        set_stride = 2 * 64
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)           # a becomes MRU
        cache.access(c)           # evicts b
        assert cache.probe(a) is True
        assert cache.probe(b) is False

    def test_probe_does_not_allocate(self):
        cache = make_cache()
        cache.probe(0)
        assert cache.access(0)[0] is False

    def test_probe_does_not_count(self):
        cache = make_cache()
        cache.probe(0)
        assert cache.stats.accesses == 0

    def test_flush_invalidates(self):
        cache = make_cache()
        cache.access(0)
        cache.flush()
        assert cache.access(0)[0] is False

    def test_occupancy_never_exceeds_assoc(self):
        cache = make_cache(size=256, block=64, assoc=2)
        for addr in range(0, 64 * 64, 64):
            cache.access(addr)
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.assoc


class TestStats:
    def test_counts(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.accesses == 3
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1

    def test_miss_rate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_empty_miss_rate(self):
        assert CacheStats().miss_rate == 0.0

    def test_copy_is_independent(self):
        stats = CacheStats(10, 5)
        clone = stats.copy()
        clone.misses = 0
        assert stats.misses == 5


class TestSnapshot:
    """A checkpoint pickles the whole machine; a cache's part of it is
    its own pickle round-trip."""

    def test_roundtrip_preserves_contents(self):
        cache = make_cache()
        for addr in (0, 64, 512):
            cache.access(addr)
        state = pickle.dumps(cache)
        cache.access(4096)
        cache.flush()
        cache = pickle.loads(state)
        assert cache.probe(0) and cache.probe(64) and cache.probe(512)

    def test_roundtrip_preserves_stats(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        state = pickle.dumps(cache)
        cache.access(64)
        cache = pickle.loads(state)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_snapshot_isolated_from_later_accesses(self):
        cache = make_cache()
        cache.access(0)
        state = pickle.dumps(cache)
        cache.access(12345 * 64)
        restored = pickle.loads(state)
        assert restored.probe(12345 * 64) is False

    def test_replay_determinism(self):
        cache = make_cache(size=256, block=64, assoc=2)
        addrs = [i * 64 * 3 % 4096 for i in range(40)]
        for addr in addrs[:20]:
            cache.access(addr)
        state = pickle.dumps(cache)
        first = [cache.access(addr)[0] for addr in addrs[20:]]
        cache = pickle.loads(state)
        second = [cache.access(addr)[0] for addr in addrs[20:]]
        assert first == second


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=200))
def test_property_hits_plus_misses_equals_accesses(addrs):
    cache = make_cache(size=512, block=64, assoc=2)
    for addr in addrs:
        cache.access(addr)
    assert cache.stats.hits + cache.stats.misses == cache.stats.accesses
    assert cache.stats.misses >= 1  # first access always misses


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                max_size=100))
def test_property_immediate_repeat_always_hits(addrs):
    cache = make_cache()
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr)[0] is True
