"""Tests for the experiment runner machinery."""

from dataclasses import asdict

import pytest

from repro.core.controller import EpochResult
from repro.core.metrics import AvgIPC, WeightedIPC
from repro.experiments.parallel import policy_factory
from repro.experiments.runner import (
    SOLO_CACHE_MAXSIZE,
    ExperimentScale,
    RunResult,
    _LRUCache,
    baseline_factories,
    clear_solo_cache,
    compare_policies,
    make_processor,
    run_policy,
    run_policy_multi,
    select_workloads,
    solo_cache_info,
    solo_ipc,
    solo_ipcs,
)
from repro.policies.icount import ICountPolicy
from repro.policies.static_partition import StaticPartitionPolicy
from repro.workloads.mixes import get_workload
from repro.workloads.spec2000 import get_profile


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


class TestScale:
    def test_presets_build(self):
        for preset in (ExperimentScale.smoke(), ExperimentScale.bench(),
                       ExperimentScale.full()):
            assert preset.epoch_size > 0
            assert preset.epochs > 0

    def test_with_overrides(self, scale):
        assert scale.with_overrides(epochs=3).epochs == 3

    def test_hill_software_cost_scales(self):
        full = ExperimentScale.full()
        assert full.hill_software_cost == 200
        bench = ExperimentScale.bench()
        assert 1 <= bench.hill_software_cost < 200

    def test_hill_sample_period_is_papers(self):
        assert ExperimentScale.full().hill_sample_period == 40
        assert ExperimentScale.bench().hill_sample_period == 40
        assert ExperimentScale.smoke().hill_sample_period == 40


class TestScaleValidation:
    def test_rejects_bad_values(self, scale):
        for field, bad in (
            ("epoch_size", 0),
            ("epoch_size", -1024),
            ("epoch_size", 1024.0),
            ("epochs", 0),
            ("stride", -2),
            ("warmup", -1),
            ("workloads_per_group", 0),
            ("rand_hill_budget", 0),
        ):
            with pytest.raises(ValueError, match=field):
                scale.with_overrides(**{field: bad})

    def test_accepts_boundary_values(self, scale):
        assert scale.with_overrides(warmup=0).warmup == 0
        assert scale.with_overrides(workloads_per_group=None) \
            .workloads_per_group is None
        assert scale.with_overrides(workloads_per_group=1) \
            .workloads_per_group == 1


class TestSoloIPC:
    def test_cached(self, scale):
        clear_solo_cache()
        first = solo_ipc(get_profile("gzip"), scale)
        second = solo_ipc(get_profile("gzip"), scale)
        assert first == second
        assert first > 0

    def test_per_workload_vector(self, scale):
        workload = get_workload("art-mcf")
        singles = solo_ipcs(workload, scale)
        assert len(singles) == 2
        assert all(value > 0 for value in singles)

    def test_ilp_faster_than_mem(self, scale):
        assert solo_ipc(get_profile("gzip"), scale) > \
            solo_ipc(get_profile("mcf"), scale)

    def test_cache_info_counts_hits_and_misses(self, scale):
        clear_solo_cache()
        solo_ipc(get_profile("gzip"), scale)
        solo_ipc(get_profile("gzip"), scale)
        info = solo_cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.currsize == 1
        assert info.maxsize == SOLO_CACHE_MAXSIZE


class TestLRUCache:
    def test_bounded_with_lru_eviction(self):
        cache = _LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_info_counters(self):
        cache = _LRUCache(maxsize=1)
        assert cache.get("missing") is None
        cache.put("a", 1)
        cache.put("b", 2)  # evicts "a"
        cache.get("b")
        info = cache.info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.evictions == 1
        assert info.currsize == 1

    def test_clear_resets(self):
        cache = _LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.info() == (0, 0, 0, 4, 0)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            _LRUCache(maxsize=0)


class TestRunPolicy:
    def test_result_shape(self, scale):
        workload = get_workload("art-mcf")
        result = run_policy(workload, ICountPolicy(), scale)
        assert result.workload == "art-mcf"
        assert result.policy == "ICOUNT"
        assert len(result.ipcs) == 2
        assert result.cycles >= scale.epochs * scale.epoch_size
        assert len(result.epoch_history) == scale.epochs
        assert len(result.single_ipcs) == 2

    def test_metric_properties(self, scale):
        result = run_policy(get_workload("art-mcf"), ICountPolicy(), scale)
        assert result.avg_ipc == pytest.approx(sum(result.ipcs))
        assert result.weighted_ipc > 0
        assert result.harmonic_weighted_ipc >= 0
        assert result.metric_value(AvgIPC()) == pytest.approx(result.avg_ipc)
        assert result.metric_value(WeightedIPC()) == pytest.approx(
            result.weighted_ipc)

    def test_epochs_override(self, scale):
        result = run_policy(get_workload("art-mcf"), ICountPolicy(), scale,
                            epochs=2)
        assert len(result.epoch_history) == 2

    def test_compare_policies_runs_each(self, scale):
        results = compare_policies(
            get_workload("art-mcf"),
            {"ICOUNT": ICountPolicy, "STATIC": StaticPartitionPolicy},
            scale,
        )
        assert set(results) == {"ICOUNT", "STATIC"}

    def test_deterministic(self, scale):
        a = run_policy(get_workload("art-mcf"), ICountPolicy(), scale)
        b = run_policy(get_workload("art-mcf"), ICountPolicy(), scale)
        assert a.ipcs == b.ipcs


def asdict_form(result):
    """:meth:`RunResult.to_dict` as written with ``dataclasses.asdict``."""
    return {
        "workload": result.workload,
        "policy": result.policy,
        "ipcs": list(result.ipcs),
        "committed": list(result.committed),
        "cycles": result.cycles,
        "single_ipcs": None if result.single_ipcs is None
        else list(result.single_ipcs),
        "epoch_history": [asdict(epoch) for epoch in result.epoch_history],
        "reliability": result.reliability,
    }


class TestToDict:
    def test_equals_the_asdict_form_on_a_hill_run(self, scale):
        # HILL's first epoch samples a SingleIPC: a solo epoch with a
        # solo thread, then normal epochs with partition shares.
        result = run_policy(get_workload("art-mcf"),
                            policy_factory("HILL", scale)(), scale,
                            epochs=3)
        assert [epoch.kind for epoch in result.epoch_history] == [
            "solo", "normal", "normal"]
        assert result.to_dict() == asdict_form(result)

    def test_equals_the_asdict_form_on_edge_records(self):
        result = RunResult(
            workload="art-mcf", policy="HILL-WIPC", ipcs=[0.5, 0.25],
            committed=[512, 256], cycles=1024, single_ipcs=None,
            epoch_history=[
                EpochResult(epoch_id=0, kind="normal", committed=[3, 1],
                            cycles=4),
                EpochResult(epoch_id=1, kind="solo", committed=[7, 0],
                            cycles=8, shares=[20, 12], solo_thread=0),
                EpochResult(epoch_id=2, kind="normal", committed=[0, 0],
                            cycles=0, ipcs=[0.0, 0.0], shares=None),
            ],
            reliability={"retries": 1, "faults": ["rob-flip"],
                         "resumed_from": {"epoch": 2}})
        data = result.to_dict()
        assert data == asdict_form(result)
        assert data["epoch_history"][0]["shares"] is None
        assert data["reliability"] is result.reliability
        assert RunResult.from_dict(data).to_dict() == data
        # Lists are copies: mutating the dict leaves the result alone.
        data["epoch_history"][1]["shares"].append(99)
        assert result.epoch_history[1].shares == [20, 12]


class TestMultiSeed:
    def test_summary_shape(self, scale):
        results, summary = run_policy_multi(
            get_workload("art-mcf"), ICountPolicy, scale, seeds=(0, 1),
            epochs=2)
        assert len(results) == 2
        assert set(summary) == {"avg_ipc", "weighted_ipc",
                                "harmonic_weighted_ipc"}
        mean, spread = summary["avg_ipc"]
        assert mean > 0
        assert spread >= 0

    def test_seeds_actually_vary(self, scale):
        results, __ = run_policy_multi(
            get_workload("art-mcf"), ICountPolicy, scale, seeds=(0, 1),
            epochs=2)
        assert results[0].ipcs != results[1].ipcs

    def test_single_seed_zero_spread(self, scale):
        __, summary = run_policy_multi(
            get_workload("art-mcf"), ICountPolicy, scale, seeds=(0,),
            epochs=2)
        assert summary["avg_ipc"][1] == 0.0


class TestSelection:
    def test_select_workloads_subsets(self, scale):
        selected = select_workloads(("ILP2", "MEM2"), scale)
        assert len(selected) == 2 * scale.workloads_per_group

    def test_select_all_when_unlimited(self, scale):
        unlimited = scale.with_overrides(workloads_per_group=None)
        assert len(select_workloads(("ILP2",), unlimited)) == 7

    def test_baseline_factories(self):
        factories = baseline_factories()
        assert set(factories) == {"ICOUNT", "FLUSH", "DCRA"}
        for factory in factories.values():
            policy = factory()
            assert hasattr(policy, "fetch_priority")

    def test_make_processor_warm(self, scale):
        proc = make_processor(get_workload("art-mcf"), ICountPolicy(), scale)
        assert proc.cycle == scale.warmup
        cold = make_processor(get_workload("art-mcf"), ICountPolicy(), scale,
                              warm=False)
        assert cold.cycle == 0
