"""The parallel sweep engine: determinism, caching, invalidation, resume.

The acceptance contract of docs/PARALLEL.md, as tests:

* ``jobs=4`` merged JSON is byte-identical to ``jobs=1``;
* a warm re-run is pure cache hits and returns equal results;
* cache keys shift when the machine config, the epoch schedule, or the
  policy family's source code changes — and only for the affected family;
* a sweep killed mid-cell resumes from its per-epoch checkpoints and
  finishes with metrics identical to an uninterrupted run.
"""

import json
import os
import time

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    SweepCell,
    SweepEngine,
    cache_key,
    canonical_policy,
    clear_fingerprint_memo,
    code_fingerprint,
    grid_cells,
    merged_json,
    pool_map,
)
from repro.experiments.runner import ExperimentScale

WORKLOADS = ("art-mcf", "apsi-eon")
POLICIES = ("ICOUNT", "HILL")


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


def small_grid():
    return grid_cells(workloads=WORKLOADS, policies=POLICIES)


# -- grids and policy names -------------------------------------------------


class TestGrid:
    def test_grid_is_workload_major_and_canonical(self):
        cells = small_grid()
        assert [cell.label for cell in cells] == [
            "art-mcf/ICOUNT/s0", "art-mcf/HILL-WIPC/s0",
            "apsi-eon/ICOUNT/s0", "apsi-eon/HILL-WIPC/s0",
        ]

    def test_equivalent_spellings_share_cells(self, scale):
        assert canonical_policy("hill") == "HILL-WIPC"
        a = SweepCell(workload="art-mcf", policy=canonical_policy("HILL"))
        b = SweepCell(workload="art-mcf",
                      policy=canonical_policy("hill-wipc"))
        assert cache_key(a, scale) == cache_key(b, scale)

    def test_unknown_names_fail_fast(self):
        with pytest.raises(ValueError):
            canonical_policy("GRADIENT-DESCENT")
        with pytest.raises(KeyError):
            grid_cells(workloads=("no-such-workload",))

    def test_groups_and_limit(self):
        cells = grid_cells(groups=("MEM2",), policies=("ICOUNT",),
                           workloads_per_group=2)
        assert len(cells) == 2


# -- determinism ------------------------------------------------------------


class TestDeterminism:
    def test_parallel_merged_json_byte_identical_to_serial(self, scale,
                                                           tmp_path):
        cells = small_grid()
        serial = SweepEngine(scale, jobs=1,
                             cache_dir=str(tmp_path / "c1"))
        fanned = SweepEngine(scale, jobs=4,
                             cache_dir=str(tmp_path / "c4"))
        doc1 = merged_json(cells, serial.run_cells(cells), scale)
        doc4 = merged_json(cells, fanned.run_cells(cells), scale)
        assert doc1 == doc4
        assert serial.stats["misses"] == fanned.stats["misses"] == 4

    def test_results_follow_request_order_not_completion_order(self, scale,
                                                               tmp_path):
        cells = small_grid()
        engine = SweepEngine(scale, jobs=2, cache_dir=str(tmp_path / "c"))
        results = engine.run_cells(cells)
        again = engine.run_cells(list(reversed(cells)))
        assert results == list(reversed(again))

    def test_cached_results_carry_no_execution_metadata(self, scale,
                                                        tmp_path):
        engine = SweepEngine(scale, cache_dir=str(tmp_path / "c"),
                             resume_dir=str(tmp_path / "r"))
        (result,) = engine.run_cells([small_grid()[0]])
        assert result.reliability is None


# -- the cache --------------------------------------------------------------


class TestCache:
    def test_warm_rerun_is_all_hits_and_fast(self, scale, tmp_path):
        cells = small_grid()
        cache_dir = str(tmp_path / "cache")
        cold = SweepEngine(scale, jobs=1, cache_dir=cache_dir)
        t0 = time.time()
        first = cold.run_cells(cells)
        cold_wall = time.time() - t0

        warm = SweepEngine(scale, jobs=1, cache_dir=cache_dir)
        t0 = time.time()
        second = warm.run_cells(cells)
        warm_wall = time.time() - t0

        assert warm.stats == {"hits": len(cells), "misses": 0, "resumed": 0}
        assert merged_json(cells, first, scale) == \
            merged_json(cells, second, scale)
        # The ISSUE acceptance bar is <10% of cold wall-clock; in practice
        # a warm read is a handful of JSON loads.
        assert warm_wall < 0.5 * cold_wall

    def test_key_depends_on_config_and_schedule(self, scale):
        cell = small_grid()[0]
        base = cache_key(cell, scale)
        assert cache_key(cell, scale.with_overrides(epoch_size=2048)) != base
        bigger = scale.with_overrides(
            config=scale.config.with_overrides(rename_int=64))
        assert cache_key(cell, bigger) != base
        assert cache_key(cell, ExperimentScale.smoke()) == base
        seeded = SweepCell(workload=cell.workload, policy=cell.policy,
                           seed=7)
        assert cache_key(seeded, scale) != base
        # A cell pinning its own epochs still derives SingleIPCs over the
        # scale's window, so that window is part of the key too.
        pinned = SweepCell(workload=cell.workload, policy=cell.policy,
                           epochs=1)
        assert cache_key(pinned, scale.with_overrides(epochs=2)) \
            != cache_key(pinned, scale.with_overrides(epochs=5))

    def test_code_fingerprint_invalidates_only_its_family(self, scale,
                                                          tmp_path,
                                                          monkeypatch):
        fake = tmp_path / "fake_policy.py"
        fake.write_text("TUNING = 1\n")
        monkeypatch.setitem(parallel._POLICY_SOURCES, "DCRA",
                            ("policies/dcra.py",
                             os.path.relpath(str(fake),
                                             parallel._package_root())))
        # Drop memo entries built from the patched source map, even if an
        # assertion below fails — later tests hash the real tree.
        try:
            clear_fingerprint_memo()
            dcra = SweepCell(workload="art-mcf", policy="DCRA")
            icount = SweepCell(workload="art-mcf", policy="ICOUNT")
            dcra_before = cache_key(dcra, scale)
            icount_before = cache_key(icount, scale)

            fake.write_text("TUNING = 2\n")
            clear_fingerprint_memo()
            assert cache_key(dcra, scale) != dcra_before
            assert cache_key(icount, scale) == icount_before
        finally:
            clear_fingerprint_memo()

    def test_corrupt_entries_count_as_misses(self, scale, tmp_path):
        cell = small_grid()[0]
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(scale, cache_dir=cache_dir)
        (result,) = engine.run_cells([cell])

        cache = ResultCache(cache_dir)
        path = cache._path(cache_key(cell, scale))
        with open(path, "w") as handle:
            handle.write("{torn")
        assert cache.get(cache_key(cell, scale)) is None

        retry = SweepEngine(scale, cache_dir=cache_dir)
        (again,) = retry.run_cells([cell])
        assert retry.stats["misses"] == 1
        assert again.to_dict() == result.to_dict()

    def test_info_and_clear(self, scale, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(scale, cache_dir=cache_dir)
        engine.run_cells(small_grid())
        cache = ResultCache(cache_dir)
        stats = cache.info()
        assert stats.entries == 4 and stats.bytes > 0
        assert cache.clear() == 4
        assert cache.info().entries == 0

    def test_use_cache_false_writes_nothing(self, scale, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(scale, cache_dir=cache_dir, use_cache=False)
        engine.run_cells([small_grid()[0]])
        assert ResultCache(cache_dir).info().entries == 0


# -- kill and resume --------------------------------------------------------


class TestResume:
    def test_killed_cell_resumes_with_identical_metrics(self, scale,
                                                        tmp_path):
        from repro.reliability.guard import (RunInterrupted,
                                             run_policy_resilient, run_slug)
        from repro.workloads.mixes import get_workload

        cell = SweepCell(workload="art-mcf",
                         policy=canonical_policy("HILL"))
        resume_dir = str(tmp_path / "resume")
        cell_dir = os.path.join(
            resume_dir, run_slug(cell.workload, cell.policy, cell.seed))

        # Simulate the kill: the same resilient run the worker would do,
        # stopped deterministically after 3 epochs with state on disk.
        factory = parallel.policy_factory(cell.policy, scale)
        with pytest.raises(RunInterrupted):
            run_policy_resilient(get_workload(cell.workload), factory(),
                                 scale, run_dir=cell_dir, resume=True,
                                 sanitize_partitions=False, stop_after=3)
        assert os.path.isdir(cell_dir)

        engine = SweepEngine(scale, cache_dir=str(tmp_path / "cache"),
                             resume_dir=resume_dir)
        (resumed,) = engine.run_cells([cell])
        assert engine.stats["resumed"] == 1

        fresh_engine = SweepEngine(scale,
                                   cache_dir=str(tmp_path / "cache2"))
        (fresh,) = fresh_engine.run_cells([cell])
        assert resumed.to_dict() == fresh.to_dict()

    def test_finished_cells_come_from_cache_after_a_kill(self, scale,
                                                         tmp_path):
        cells = small_grid()
        cache_dir = str(tmp_path / "cache")
        first = SweepEngine(scale, cache_dir=cache_dir)
        first.run_cells(cells[:2])  # "the sweep died after two cells"

        second = SweepEngine(scale, cache_dir=cache_dir)
        second.run_cells(cells)
        assert second.stats == {"hits": 2, "misses": 2, "resumed": 0}


# -- events and pool_map ----------------------------------------------------


class TestEventsAndPool:
    def test_event_stream_shape(self, scale, tmp_path):
        events_path = str(tmp_path / "logs" / "events.jsonl")
        engine = SweepEngine(scale, jobs=2,
                             cache_dir=str(tmp_path / "cache"),
                             events_path=events_path)
        cells = small_grid()
        engine.run_cells(cells)
        # A fresh engine's warm pass reads the disk cache and logs it;
        # (re-running on the same engine serves the in-memory map, which
        # is not an event).
        warm = SweepEngine(scale, jobs=2,
                           cache_dir=str(tmp_path / "cache"),
                           events_path=events_path)
        warm.run_cells(cells)

        with open(events_path) as handle:
            events = [json.loads(line) for line in handle]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep-start"
        assert kinds.count("cell-start") == len(cells)
        assert kinds.count("cell-done") == len(cells)
        assert kinds.count("cell-cached") == len(cells)
        assert kinds.count("sweep-done") == 2
        done = [e for e in events if e["event"] == "cell-done"]
        assert done[-1]["done"] == done[-1]["total"] == len(cells)
        assert all("ts" in event for event in events)
        assert any("eta_s" in event for event in done)

    def test_pool_map_preserves_order(self):
        tasks = [(value,) for value in range(7)]
        assert pool_map(_square, tasks, jobs=3) == \
            pool_map(_square, tasks, jobs=1) == \
            [value * value for value in range(7)]

    def test_jobs_must_be_positive(self, scale):
        with pytest.raises(ValueError):
            SweepEngine(scale, jobs=0)


def _square(value):
    return value * value


class TestFingerprint:
    def test_families_share_substrate_but_differ(self):
        icount = code_fingerprint("ICOUNT")
        dcra = code_fingerprint("DCRA")
        hill = code_fingerprint("HILL")
        assert len({icount, dcra, hill}) == 3
        assert code_fingerprint("HILL-IPC") == hill
        assert code_fingerprint("hill") == hill


# -- supervision satellites -------------------------------------------------


class TestCacheCorruptionHandling:
    def test_corrupt_entry_is_moved_aside_with_a_warning(self, scale,
                                                         tmp_path, capsys):
        cell = small_grid()[0]
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, cache_dir=cache_dir).run_cells([cell])

        cache = ResultCache(cache_dir)
        key = cache_key(cell, scale)
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write('{"result": "not a dict"}')

        assert cache.get(key) is None
        err = capsys.readouterr().err
        assert "corrupt cache entry" in err
        assert "treated as a miss" in err
        assert not os.path.exists(path)
        assert os.path.exists(path[:-len(".json")] + ".corrupt")
        # The moved-aside entry can never shadow the re-simulated result.
        assert cache.get(key) is None

    def test_info_counts_corrupt_entries_and_clear_can_target_them(
            self, scale, tmp_path, capsys):
        cells = small_grid()[:2]
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, cache_dir=cache_dir).run_cells(cells)
        cache = ResultCache(cache_dir)
        key = cache_key(cells[0], scale)
        with open(cache._path(key), "w") as handle:
            handle.write("not json")
        assert cache.get(key) is None  # sidelines it as .corrupt
        capsys.readouterr()

        stats = cache.info()
        assert stats.entries == 1
        assert stats.corrupt == 1
        assert stats.corrupt_bytes > 0

        # --corrupt-only removes the sidelined entry, keeps the result.
        assert cache.clear(corrupt_only=True) == 1
        stats = cache.info()
        assert (stats.entries, stats.corrupt, stats.corrupt_bytes) \
            == (1, 0, 0)
        assert cache.get(cache_key(cells[1], scale)) is not None

        # A plain clear removes valid and sidelined entries alike.
        with open(cache._path(key), "w") as handle:
            handle.write("still not json")
        assert cache.get(key) is None
        capsys.readouterr()
        assert cache.clear() == 2
        assert cache.info().entries == 0


class TestCacheDigest:
    def _seed_cache(self, scale, tmp_path):
        cache_dir = str(tmp_path / "cache")
        (cell,) = grid_cells(workloads=("art-mcf",),
                             policies=("ICOUNT",), epochs=2)
        engine = SweepEngine(scale, jobs=1, cache_dir=cache_dir)
        engine.run_cells([cell])
        cache = ResultCache(cache_dir)
        (path,) = [os.path.join(dirpath, name)
                   for dirpath, _dirnames, names in
                   os.walk(cache.objects_dir)
                   for name in names if name.endswith(".json")]
        return cache, cell, path

    def test_tampered_payload_is_sidelined(self, scale, tmp_path,
                                           capsys):
        cache, cell, path = self._seed_cache(scale, tmp_path)
        with open(path) as handle:
            document = json.load(handle)
        key = document["key"]
        assert cache.get(key) is not None  # digest verifies clean

        document["result"]["avg_ipc"] = 99.0  # the payload lies now
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(key) is None
        err = capsys.readouterr().err
        assert "corrupt cache entry" in err
        assert "does not match payload digest" in err
        assert os.path.exists(path[:-len(".json")] + ".corrupt")
        info = cache.info()
        assert info.entries == 0 and info.corrupt == 1

    def test_entry_filed_under_wrong_key_is_sidelined(self, scale,
                                                      tmp_path, capsys):
        cache, cell, path = self._seed_cache(scale, tmp_path)
        with open(path) as handle:
            document = json.load(handle)
        key = document["key"]
        document["key"] = "0" * 64  # filed under someone else's name
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(key) is None
        assert "filed under key" in capsys.readouterr().err
        assert cache.info().corrupt == 1


class TestCacheConcurrency:
    def test_put_survives_a_racing_clear(self, scale, tmp_path):
        import shutil

        cell = small_grid()[0]
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, cache_dir=cache_dir).run_cells([cell])
        cache = ResultCache(cache_dir)
        key = cache_key(cell, scale)
        result = cache.get(key)
        assert result is not None

        # A concurrent engine's clear() can rip the bucket directory out
        # from under a put(); put recreates it instead of raising.
        shutil.rmtree(cache.objects_dir)
        cache.put(key, cell, result)
        assert cache.get(key) == result

    def test_duplicate_put_on_the_same_key_is_a_silent_noop(
            self, scale, tmp_path):
        cell = small_grid()[0]
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, cache_dir=cache_dir).run_cells([cell])
        cache = ResultCache(cache_dir)
        key = cache_key(cell, scale)
        result = cache.get(key)
        cache.put(key, cell, result)
        cache.put(key, cell, result)
        assert cache.info().entries == 1
        assert cache.get(key) == result


class TestPureCacheMerge:
    def test_empty_task_list_short_circuits(self):
        assert pool_map(_square, [], jobs=4) == []

    def test_fully_cached_sweep_never_builds_a_pool(self, scale, tmp_path,
                                                    monkeypatch):
        cells = small_grid()
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, jobs=1, cache_dir=cache_dir).run_cells(cells)

        def boom(*args, **kwargs):
            raise AssertionError("a fully cached sweep built a pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        warm = SweepEngine(scale, jobs=4, cache_dir=cache_dir)
        results = warm.run_cells(cells)
        assert warm.stats == {"hits": len(cells), "misses": 0,
                              "resumed": 0}
        assert all(result is not None for result in results)


class TestMergedQuarantineSection:
    def test_quarantined_key_is_always_present(self, scale, tmp_path):
        cells = small_grid()[:1]
        engine = SweepEngine(scale, cache_dir=str(tmp_path / "c"))
        results = engine.run_cells(cells)
        doc = json.loads(merged_json(cells, results, scale))
        assert doc["quarantined"] == []
