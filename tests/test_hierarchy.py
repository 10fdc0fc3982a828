"""Unit tests for the memory hierarchy."""

import pickle

import pytest

from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    AccessResult,
    L1_LEVEL,
    L2_LEVEL,
    MEM_LEVEL,
    MemoryHierarchy,
)


def make_hierarchy(mem_latency=100):
    return MemoryHierarchy(
        il1=Cache("IL1", 1024, 64, 2, 1),
        dl1=Cache("DL1", 1024, 64, 2, 1),
        ul2=Cache("UL2", 8192, 64, 4, 10),
        mem_latency=mem_latency,
    )


class TestLoadPath:
    def test_cold_load_goes_to_memory(self):
        hierarchy = make_hierarchy()
        result = hierarchy.load(0)
        assert result.level == MEM_LEVEL
        assert result.latency == 1 + 10 + 100

    def test_warm_load_hits_l1(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0, now=0)
        result = hierarchy.load(0, now=500)  # after the fill settles
        assert result.level == L1_LEVEL
        assert result.latency == 1

    def test_hit_under_fill_waits_for_the_line(self):
        """A second access while the line is still in flight waits for the
        remaining fill latency (MSHR-merge semantics) — this is what makes
        flushing-and-refetching a load actually costly."""
        hierarchy = make_hierarchy()
        first = hierarchy.load(0, now=0)
        assert first.latency == 111
        merged = hierarchy.load(0, now=10)
        assert merged.level == L1_LEVEL
        assert merged.latency == 101  # waits out the remaining fill

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0, now=0)
        # Evict block 0 from the 2-way DL1 set by touching two conflicting
        # blocks (set stride = num_sets * block = 8 * 64); do it after all
        # fills settle so latencies are the steady-state ones.
        stride = hierarchy.dl1.num_sets * 64
        hierarchy.load(stride, now=500)
        hierarchy.load(2 * stride, now=1000)
        result = hierarchy.load(0, now=1500)
        assert result.level == L2_LEVEL
        assert result.latency == 1 + 10

    def test_flags(self):
        assert AccessResult(1, L1_LEVEL).missed_l1 is False
        assert AccessResult(11, L2_LEVEL).missed_l1 is True
        assert AccessResult(11, L2_LEVEL).missed_l2 is False
        assert AccessResult(111, MEM_LEVEL).missed_l2 is True

    def test_store_allocates(self):
        hierarchy = make_hierarchy()
        hierarchy.store(0)
        assert hierarchy.load(0).level == L1_LEVEL

    def test_ifetch_separate_from_data(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0)
        # Same address through the instruction path: IL1 cold, UL2 warm.
        result = hierarchy.ifetch(0)
        assert result.level == L2_LEVEL

    def test_requires_cache_instances(self):
        with pytest.raises(TypeError):
            MemoryHierarchy(il1=None, dl1=None, ul2=None, mem_latency=1)


class TestSnapshot:
    def test_roundtrip(self):
        hierarchy = make_hierarchy()
        hierarchy.load(0)
        hierarchy.ifetch(4096)
        state = pickle.dumps(hierarchy)  # a checkpoint's part for it
        hierarchy.load(1 << 16)
        hierarchy = pickle.loads(state)
        assert hierarchy.load(0).level == L1_LEVEL
        assert hierarchy.load(1 << 16).level == MEM_LEVEL

    def test_latency_composition_is_additive(self):
        hierarchy = make_hierarchy(mem_latency=300)
        cold = hierarchy.load(0)
        assert cold.latency == (hierarchy.dl1.latency + hierarchy.ul2.latency
                                + 300)
