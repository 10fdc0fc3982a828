"""Persisted SingleIPC runs: keys, the ``solos/`` store, and the paths
that read and write it.

The weighted metrics divide each thread's IPC by its stand-alone
SingleIPC, so every simulated cell also needs one ICOUNT solo run per
benchmark.  The result cache stores those values next to the cell
results, and every executor (serial, process pool, supervised, service
worker) is handed the known ones instead of deriving them again:

* the store round-trips values exactly and sidelines corrupt entries;
* ``use_cache=False`` leaves no ``solos/`` behind;
* extending a cached grid derives no solo and changes no byte;
* the key follows the profile's parameters and the solo window;
* leases carry solos, workers seed them, and the daemon refuses an
  upload that contradicts one it holds.
"""

import json
import math
import os
from dataclasses import replace

import pytest

from repro.experiments.parallel import (
    ResultCache,
    SweepCell,
    SweepEngine,
    Supervision,
    _execute_cell,
    cell_solo_keys,
    grid_cells,
    merged_json,
    solo_key,
)
from repro.experiments.runner import (
    ExperimentScale,
    clear_solo_cache,
    solo_cache_info,
    solo_ipc,
)
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.worker import _http, run_worker
from repro.workloads.mixes import get_workload
from repro.workloads.spec2000 import get_profile

BASE = {"groups": ["MEM2"], "policies": ["ICOUNT", "DCRA"]}
EXTENDED = {"groups": ["MEM2"], "policies": ["ICOUNT", "DCRA", "HILL"]}
ONE_CELL = {"workloads": ["art-mcf"], "policies": ["ICOUNT"],
            "seeds": [0], "epochs": 2}
SCALE_SPEC = {"scale": "smoke"}


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


@pytest.fixture(autouse=True)
def fresh_solo_lru():
    """Start and end every test with an empty in-process solo LRU, so
    values seeded here (some deliberately fake) never leak."""
    clear_solo_cache()
    yield
    clear_solo_cache()


@pytest.fixture(scope="module")
def uncached_extended():
    """Merged JSON of the extended grid with no cache at all."""
    scale = ExperimentScale.smoke()
    cells, results = SweepEngine(scale, use_cache=False).sweep(**EXTENDED)
    clear_solo_cache()
    return merged_json(cells, results, scale)


def prefill(scale, cache_dir):
    SweepEngine(scale, cache_dir=cache_dir).sweep(**BASE)
    clear_solo_cache()


def stored_solo_paths(cache_dir):
    root = os.path.join(cache_dir, "solos")
    return sorted(os.path.join(dirpath, name)
                  for dirpath, _dirs, names in os.walk(root)
                  for name in names)


#: Ways a stored solo goes bad: raw bytes, or overrides applied to a
#: valid document (``DROP`` removes the field).
DROP = object()
CORRUPT_SOLOS = {
    "torn": "{torn",
    "wrong-key": {"key": "0" * 64},
    "no-key": {"key": DROP},
    "no-value": {"value": DROP},
    "nan": {"value": float("nan")},
    "inf": {"value": float("inf")},
    "zero": {"value": 0.0},
    "negative": {"value": -0.5},
    "string": {"value": "0.5"},
}


def corrupt_document(key, spec):
    if isinstance(spec, str):
        return spec
    document = {"key": key, "profile": "art", "value": 0.5}
    document.update(spec)
    return json.dumps({name: value for name, value in document.items()
                       if value is not DROP})


# -- the store --------------------------------------------------------------


class TestSoloStore:
    def test_round_trip_is_exact_and_separate_from_results(self, scale,
                                                           tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        profile = get_profile("art")
        key = solo_key(profile, scale)
        assert cache.get_solo(key) is None
        value = 0.1 + 0.2  # not exactly representable in short decimal
        cache.put_solo(key, profile.name, value)
        assert cache.get_solo(key) == value
        path = os.path.join(cache.directory, "solos", key[:2],
                            key + ".json")
        with open(path) as handle:
            assert json.load(handle) == {"key": key, "profile": "art",
                                         "value": value}
        info = cache.info()
        assert info.solos == 1
        assert info.entries == 0 and info.corrupt == 0

    @pytest.mark.parametrize("spec", sorted(CORRUPT_SOLOS))
    def test_corrupt_entry_is_sidelined_as_a_miss(self, scale, tmp_path,
                                                  capsys, spec):
        cache = ResultCache(str(tmp_path / "cache"))
        key = solo_key(get_profile("art"), scale)
        path = cache._solo_path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write(corrupt_document(key, CORRUPT_SOLOS[spec]))
        assert cache.get_solo(key) is None
        assert "corrupt solo entry" in capsys.readouterr().err
        assert not os.path.exists(path)
        assert os.path.exists(path[:-len(".json")] + ".corrupt")
        assert cache.info().corrupt == 1 and cache.info().solos == 0
        assert cache.get_solo(key) is None  # still a miss, now silent

    def test_invalid_values_are_never_written(self, scale, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = solo_key(get_profile("art"), scale)
        for bad in (float("nan"), float("inf"), 0.0, -1.0, None):
            cache.put_solo(key, "art", bad)
        assert cache.info().solos == 0

    def test_clear_covers_solos_but_counts_results_only(self, scale,
                                                        tmp_path):
        cache_dir = str(tmp_path / "cache")
        prefill(scale, cache_dir)
        cache = ResultCache(cache_dir)
        assert cache.info().entries == 4 and cache.info().solos == 4
        # Sideline one solo: clear(corrupt_only) removes it and leaves
        # every valid entry; the count it returns is of results.
        victim = stored_solo_paths(cache_dir)[0]
        with open(victim, "w") as handle:
            handle.write("{torn")
        key = os.path.basename(victim)[:-len(".json")]
        assert cache.get_solo(key) is None
        assert cache.info().corrupt == 1
        assert cache.clear(corrupt_only=True) == 0
        info = cache.info()
        assert (info.entries, info.solos, info.corrupt) == (4, 3, 0)
        assert cache.clear() == 4
        info = cache.info()
        assert (info.entries, info.solos, info.corrupt) == (0, 0, 0)
        assert stored_solo_paths(cache_dir) == []

    def test_use_cache_false_writes_no_solos(self, scale, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SweepEngine(scale, cache_dir=cache_dir, use_cache=False).sweep(
            **BASE)
        assert not os.path.exists(os.path.join(cache_dir, "solos"))
        assert ResultCache(cache_dir).info().solos == 0

    def test_engine_stores_the_results_single_ipcs(self, scale, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = SweepEngine(scale, cache_dir=cache_dir)
        cells, results = engine.sweep(**BASE)
        cache = ResultCache(cache_dir)
        for cell, result in zip(cells, results):
            assert [cache.get_solo(key)
                    for key in cell_solo_keys(cell, scale)] \
                == result.single_ipcs


# -- keys -------------------------------------------------------------------


class TestSoloKey:
    def test_changed_profile_parameter_misses_the_store(self, scale,
                                                        tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        art = get_profile("art")
        cache.put_solo(solo_key(art, scale), art.name, 0.5)
        changed = replace(art, load_frac=0.05)
        assert changed.name == art.name
        assert solo_key(changed, scale) != solo_key(art, scale)
        assert cache.get_solo(solo_key(changed, scale)) is None

    def test_key_follows_the_solo_window_config_and_seed(self, scale):
        art = get_profile("art")
        base = solo_key(art, scale)
        assert solo_key(art, ExperimentScale.smoke()) == base
        for changed in (
                scale.with_overrides(epochs=scale.epochs + 1),
                scale.with_overrides(epoch_size=2048),
                scale.with_overrides(warmup=0),
                scale.with_overrides(seed=3),
                scale.with_overrides(config=scale.config.with_overrides(
                    rename_int=64))):
            assert solo_key(art, changed) != base
        # Knobs solo runs never read leave the key alone.
        assert solo_key(art, scale.with_overrides(stride=4)) == base
        assert solo_key(art, scale.with_overrides(rand_hill_budget=3)) \
            == base

    def test_cell_keys_use_the_cells_seed(self, scale):
        cell = SweepCell(workload="art-mcf", policy="ICOUNT", seed=5)
        seeded = scale.with_overrides(seed=5)
        assert cell_solo_keys(cell, scale) == [
            solo_key(profile, seeded)
            for profile in get_workload("art-mcf").profiles]


class TestCellKeySoloWindow:
    """A cell that overrides ``epochs`` still derives its SingleIPCs over
    the scale's window, so that window belongs in the cell's key."""

    def test_cached_result_carries_its_own_windows_single_ipcs(self, scale,
                                                              tmp_path):
        cell = SweepCell(workload="art-mcf", policy="ICOUNT", epochs=1)
        cache_dir = str(tmp_path / "cache")
        short = scale.with_overrides(epochs=2)
        longer = scale.with_overrides(epochs=5)
        SweepEngine(short, cache_dir=cache_dir).run_cells([cell])
        (cached,) = SweepEngine(longer, cache_dir=cache_dir).run_cells(
            [cell])
        clear_solo_cache()
        (fresh,) = SweepEngine(longer, use_cache=False).run_cells([cell])
        assert cached.single_ipcs == fresh.single_ipcs


class TestSoloLRUKey:
    def test_same_name_different_parameters_do_not_share_a_value(self,
                                                                 scale):
        art = get_profile("art")
        changed = replace(art, load_frac=0.05)
        original = solo_ipc(art, scale)
        shadowed = solo_ipc(changed, scale)
        clear_solo_cache()
        assert shadowed == solo_ipc(changed, scale)
        assert shadowed != original


# -- the read path ------------------------------------------------------------


EXECUTORS = {
    "serial": {"jobs": 1},
    "pool": {"jobs": 2},
    "supervised": {"jobs": 2, "supervision": Supervision()},
}


class TestExtendDerivesNoSolos:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_extend_is_byte_identical_to_an_uncached_sweep(
            self, scale, tmp_path, uncached_extended, executor):
        cache_dir = str(tmp_path / "cache")
        prefill(scale, cache_dir)
        engine = SweepEngine(scale, cache_dir=cache_dir,
                             **EXECUTORS[executor])
        cells, results = engine.sweep(**EXTENDED)
        assert engine.stats["hits"] == 4 and engine.stats["misses"] == 2
        assert merged_json(cells, results, scale) == uncached_extended
        # Pool workers are other processes; the in-process count covers
        # the serial path (the marked-value test below covers the rest).
        assert solo_cache_info().misses == 0

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_every_executor_runs_on_the_stored_values(self, scale,
                                                      tmp_path, executor):
        """Overwrite the stored solos with marked values: a cell that
        derived its own SingleIPCs would report the true ones."""
        cache_dir = str(tmp_path / "cache")
        prefill(scale, cache_dir)
        cache = ResultCache(cache_dir)
        marks = {}
        for index, path in enumerate(stored_solo_paths(cache_dir)):
            key = os.path.basename(path)[:-len(".json")]
            marks[key] = 0.125 * (index + 1)
            cache.put_solo(key, "marked", marks[key])
        engine = SweepEngine(scale, cache_dir=cache_dir,
                             **EXECUTORS[executor])
        cells = grid_cells(groups=["MEM2"], policies=["HILL"],
                           workloads_per_group=scale.workloads_per_group)
        for cell, result in zip(cells, engine.run_cells(cells)):
            assert result.single_ipcs == [
                marks[key] for key in cell_solo_keys(cell, scale)]

    def test_execute_cell_seeds_only_the_known_values(self, scale):
        cell = SweepCell(workload="art-mcf", policy="ICOUNT", epochs=1)
        result, _resumed = _execute_cell(cell, scale, None,
                                         solos=[0.75, None])
        assert result.single_ipcs[0] == 0.75
        assert solo_cache_info().misses == 1  # mcf only
        assert math.isfinite(result.single_ipcs[1])

    def test_fully_cached_sweep_reads_no_solos(self, scale, tmp_path,
                                               monkeypatch):
        cache_dir = str(tmp_path / "cache")
        prefill(scale, cache_dir)

        def forbidden(self, key):
            raise AssertionError("solo read on a fully cached sweep")

        monkeypatch.setattr(ResultCache, "get_solo", forbidden)
        engine = SweepEngine(scale, cache_dir=cache_dir)
        engine.sweep(**BASE)
        assert engine.stats["misses"] == 0


# -- the service tier ---------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    handle = ServiceHandle(ServiceConfig(
        state_dir=str(tmp_path / "state"),
        cache_dir=str(tmp_path / "cache"),
        lease_timeout=5.0, max_attempts=2, tick_interval=0.02,
        retry_base_delay=0.01, retry_max_delay=0.05)).start()
    yield handle
    handle.stop(drain=False)


def lease_one(url):
    status, registered = _http("POST", url + "/v1/workers/register",
                               {"name": "fake"})
    assert status == 200
    worker = registered["worker"]
    status, task = _http("POST", "%s/v1/workers/%s/lease" % (url, worker))
    assert status == 200
    return worker, task


def store_marked_solos(cache_dir, values):
    """Store ``values`` as the one-cell grid's SingleIPCs."""
    (cell,) = grid_cells(**ONE_CELL)
    scale = protocol.scale_from_spec(SCALE_SPEC)
    cache = ResultCache(cache_dir)
    for key, value in zip(cell_solo_keys(cell, scale), values):
        if value is not None:
            cache.put_solo(key, "marked", value)


class TestServiceSolos:
    def test_lease_carries_stored_solos(self, service):
        store_marked_solos(service.service.config.cache_dir, [0.625, None])
        ServiceClient(service.url).submit(grid=ONE_CELL, scale=SCALE_SPEC)
        _worker, task = lease_one(service.url)
        assert task["solos"] == [0.625, None]

    def test_worker_seeds_leased_solos_and_derives_none(self, service):
        cache_dir = service.service.config.cache_dir
        store_marked_solos(cache_dir, [0.625, 0.375])
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        summary = run_worker(service.url, max_cells=1, idle_exit=30.0)
        assert summary["completed"] == 1
        # The worker simulates on a thread of this process.
        assert solo_cache_info().misses == 0
        client.wait(record["job"], deadline=60.0)
        document = json.loads(client.result(record["job"]))
        (row,) = document["cells"]
        assert row["result"]["single_ipcs"] == [0.625, 0.375]

    def test_daemon_stores_uploaded_solos(self, service):
        cache_dir = service.service.config.cache_dir
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        run_worker(service.url, max_cells=1, idle_exit=30.0)
        client.wait(record["job"], deadline=60.0)
        (row,) = json.loads(client.result(record["job"]))["cells"]
        (cell,) = grid_cells(**ONE_CELL)
        scale = protocol.scale_from_spec(SCALE_SPEC)
        cache = ResultCache(cache_dir)
        assert [cache.get_solo(key) for key in cell_solo_keys(cell, scale)] \
            == row["result"]["single_ipcs"]

    def test_upload_contradicting_a_stored_solo_is_rejected(self, service):
        cache_dir = service.service.config.cache_dir
        store_marked_solos(cache_dir, [0.625, None])
        client = ServiceClient(service.url)
        client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        worker, task = lease_one(service.url)
        # A worker running other code: it ignores the leased solos and
        # derives its own, which disagree with the stored 0.625.
        (cell,) = grid_cells(**ONE_CELL)
        result, resumed = _execute_cell(
            cell, protocol.scale_from_spec(task["scale"]),
            task["resume_dir"])
        status, body = _http(
            "POST", "%s/v1/workers/%s/result" % (service.url, worker),
            {"key": task["key"], "ok": True, "result": result.to_dict(),
             "resumed": resumed})
        assert status == 400 and body["error"] == "invalid-result"
        stats = client.stats()
        assert stats["invalid_results"] == 1 and stats["retries"] == 1
        cache = ResultCache(cache_dir)
        assert cache.info().entries == 0
        # The unknown thread's solo was not stored from the bad upload.
        assert cache.info().solos == 1
