"""The parallel sweep engine: determinism, caching, invalidation, resume.

The acceptance contract of docs/PARALLEL.md, as tests:

* ``jobs=4`` merged JSON is byte-identical to ``jobs=1``;
* a warm re-run is pure cache hits and returns equal results;
* cache keys shift when the machine config, the epoch schedule, or any
  source file of the package changes;
* a sweep killed mid-cell resumes from its per-epoch checkpoints and
  finishes with metrics identical to an uninterrupted run.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import EpochResult
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
    solo_key,
)
from repro.experiments.export import _jsonable
from repro.experiments.runner import ExperimentScale, RunResult
from repro.policies import BASELINE_POLICIES
from repro.workloads.mixes import get_workload, workload_names

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


# -- byte parity of the warm path with its plain-json spelling --------------


def payload_key(cell, scale):
    """:func:`cache_key` as the payload dict it hashes, through json."""
    payload = {
        "config": _jsonable(scale.config),
        "workload": cell.workload,
        "profiles": [_jsonable(profile)
                     for profile in get_workload(cell.workload).profiles],
        "policy": cell.policy,
        "seed": cell.seed,
        "schedule": {
            "epoch_size": scale.epoch_size,
            "epochs": cell.epochs if cell.epochs is not None
            else scale.epochs,
            "solo_epochs": scale.epochs,
            "warmup": scale.warmup,
        },
        "code": code_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def hand_result(workload="art-mcf", policy="HILL-WIPC"):
    """A small RunResult with a solo epoch, a shares=None epoch and a
    non-ASCII reliability note, built without simulating."""
    return RunResult(
        workload=workload, policy=policy, ipcs=[0.5, 0.1 + 0.2],
        committed=[512, 307], cycles=1024, single_ipcs=[1.25, 0.75],
        epoch_history=[
            EpochResult(epoch_id=0, kind="solo", committed=[9, 0],
                        cycles=8, shares=[20, 12], solo_thread=0),
            EpochResult(epoch_id=1, kind="normal", committed=[5, 3],
                        cycles=8, shares=None),
        ],
        reliability={"retries": 1, "note": "r\u00e9sum\u00e9 \"x\""})


class TestWarmPathParity:
    def test_key_blob_equals_the_payload_encoding(self):
        policies = sorted(BASELINE_POLICIES) + [
            prefix + metric for prefix in ("HILL-", "PHASE-HILL-")
            for metric in ("IPC", "WIPC", "HWIPC")]
        for scale in (ExperimentScale.smoke(), ExperimentScale.bench(),
                      ExperimentScale.full()):
            for epochs in (None, 3):
                for name in workload_names():
                    for policy in policies:
                        cell = SweepCell(workload=name, policy=policy,
                                         seed=scale.seed, epochs=epochs)
                        assert cache_key(cell, scale) == \
                            payload_key(cell, scale), cell

    def test_equal_values_json_writes_differently_get_their_own_key(
            self, scale):
        # 300 == 300.0 and True == 1, but JSON writes them differently,
        # so the memoized fragments must not hand one's text to the other.
        cell = small_grid()[0]
        as_float = scale.with_overrides(
            config=scale.config.with_overrides(mem_latency=300.0))
        as_int = scale.with_overrides(
            config=scale.config.with_overrides(mem_latency=300))
        assert as_float.config == as_int.config
        for variant in (as_int, as_float, as_int):
            assert cache_key(cell, variant) == payload_key(cell, variant)
        assert cache_key(cell, as_float) != cache_key(cell, as_int)

    def test_fragment_memo_is_bounded(self, scale):
        cell = small_grid()[0]
        for latency in range(100, 100 + 2 * parallel._FRAGMENTS_MAXSIZE):
            bigger = scale.with_overrides(
                config=scale.config.with_overrides(mem_latency=latency))
            assert cache_key(cell, bigger) == payload_key(cell, bigger)
            assert len(parallel._FRAGMENTS) <= parallel._FRAGMENTS_MAXSIZE

    def test_entry_bytes_equal_the_plain_json_entry(self, tmp_path):
        cell = SweepCell(workload="art-mcf", policy="HILL-WIPC", epochs=3)
        result = hand_result()
        cache = ResultCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        cache.put(key, cell, result)
        result_dict = result.to_dict()
        digest = hashlib.sha256(
            json.dumps(result_dict, sort_keys=True).encode()).hexdigest()
        with open(cache._path(key)) as handle:
            assert handle.read() == json.dumps(
                {"cell": _jsonable(cell), "key": key, "sha256": digest,
                 "result": result_dict}, sort_keys=True)
        assert cache.get(key).to_dict() == result_dict

    def test_merged_json_equals_json_dumps(self, scale):
        cells = small_grid()[:2]
        results = [hand_result(cells[0].workload, cells[0].policy), None]
        quarantined = {cells[1]: {"attempts": 3,
                                  "last_error": "Boom: \u2603\nstack"}}
        assert merged_json(cells, results, scale, quarantined) == json.dumps(
            parallel.merged_document(cells, results, scale, quarantined),
            indent=1, sort_keys=True) + "\n"


# -- kill and resume --------------------------------------------------------


class TestResume:
    def test_killed_cell_resumes_with_identical_metrics(self, scale,
                                                        tmp_path):
        from repro.experiments.runner import run_policy

        class Killed(Exception):
            pass

        def kill_after_three(completed):
            if completed == 3:
                raise Killed()

        cell = SweepCell(workload="art-mcf",
                         policy=canonical_policy("HILL"))
        resume_dir = str(tmp_path / "resume")
        cell_dir = parallel.cell_path(resume_dir,
                                      parallel.cache_key(cell, scale))

        # Simulate the kill: the same run the worker would do, stopped
        # deterministically after 3 epochs with state on disk.
        factory = parallel.policy_factory(cell.policy, scale)
        with pytest.raises(Killed):
            run_policy(get_workload(cell.workload), factory(), scale,
                       run_dir=cell_dir, on_epoch=kill_after_three)
        assert os.path.isdir(cell_dir)

        engine = SweepEngine(scale, cache_dir=str(tmp_path / "cache"),
                             resume_dir=resume_dir)
        (resumed,) = engine.run_cells([cell])
        assert engine.stats["resumed"] == 1

        fresh_engine = SweepEngine(scale,
                                   cache_dir=str(tmp_path / "cache2"))
        (fresh,) = fresh_engine.run_cells([cell])
        assert resumed.to_dict() == fresh.to_dict()

    def test_reused_resume_dir_never_serves_another_configuration(
            self, scale, tmp_path):
        # A finished run of the cell at 2 epochs sits in the resume dir;
        # the 3-epoch sweep must simulate its own, not return that one.
        cell = SweepCell(workload="art-mcf", policy="ICOUNT")
        resume_dir = str(tmp_path / "resume")
        SweepEngine(scale.with_overrides(epochs=2),
                    cache_dir=str(tmp_path / "cache2"),
                    resume_dir=resume_dir).run_cells([cell])
        three = scale.with_overrides(epochs=3)
        (reused,) = SweepEngine(three, cache_dir=str(tmp_path / "cache3"),
                                resume_dir=resume_dir).run_cells([cell])
        (fresh,) = SweepEngine(three, cache_dir=str(tmp_path / "fresh")
                               ).run_cells([cell])
        assert reused.to_dict() == fresh.to_dict()

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
    def test_digest_covers_every_package_source(self, scale, tmp_path,
                                                monkeypatch):
        # Hash a copy of the package so the edits below touch no real
        # source; the memo is cleared before every digest.
        root = tmp_path / "repro"
        shutil.copytree(parallel._package_root(), str(root),
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(parallel, "_package_root", lambda: str(root))
        cells = [SweepCell(workload="art-mcf", policy=canonical_policy(name))
                 for name in sorted(BASELINE_POLICIES)
                 + ["HILL", "PHASE-HILL"]]
        profile = get_workload("art-mcf").profiles[0]

        def keys():
            clear_fingerprint_memo()
            digest = code_fingerprint()
            for cell in cells:
                assert cache_key(cell, scale) == payload_key(cell, scale)
            return digest, {cache_key(cell, scale) for cell in cells}, \
                solo_key(profile, scale)

        def append(rel, text):
            with open(str(root / rel), "a", encoding="utf-8") as handle:
                handle.write(text)

        edits = [
            ("policy module", "policies/dcra.py", "\nTUNING = 2\n", True),
            ("cli", "cli.py", "\n# edited\n", True),
            ("new module", "policies/new_family.py", "X = 1\n", True),
            ("non-source file", "notes.txt", "draft\n", False),
            ("non-source edit", "notes.txt", "more\n", False),
        ]
        try:
            digest, cell_keys, solo = keys()
            # One digest for every family: each cell has its own key.
            assert len(cell_keys) == len(cells)
            for label, rel, text, changes in edits:
                append(rel, text)
                after = keys()
                if changes:
                    assert after[0] != digest, label
                    assert after[1].isdisjoint(cell_keys), label
                    assert after[2] != solo, label
                else:
                    assert after == (digest, cell_keys, solo), label
                digest, cell_keys, solo = after
        finally:
            clear_fingerprint_memo()


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


def reference_get(cache, key):
    """The entry check that parses the whole entry and re-encodes its
    result for the digest: the verdicts the stored-bytes read keeps."""
    path = cache._path(key)
    try:
        with open(path) as handle:
            document = json.load(handle)
        if document["key"] != key:
            raise ValueError(
                "entry filed under key %s… carries key %s…"
                % (key[:12], str(document["key"])[:12]))
        digest = hashlib.sha256(json.dumps(
            document["result"], sort_keys=True).encode()).hexdigest()
        if document["sha256"] != digest:
            raise ValueError(
                "stored digest %s… does not match payload digest %s…"
                % (str(document["sha256"])[:12], digest[:12]))
        return RunResult.from_dict(document["result"])
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cache._sideline(path, "cache entry", key, exc)
        return None


PARITY_KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
PARITY_CELL = SweepCell(workload="art-mcf", policy="HILL-WIPC", epochs=3)

DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("flip"),
              st.sampled_from(("cell", "key", "result", "sha256")),
              st.integers(0, 10 ** 6), st.integers(1, 255)),
    st.tuples(st.just("swap-key")),
    st.tuples(st.just("dump")),
    st.tuples(st.just("dump-indent")))


def damaged_entry(damage):
    """The bytes of a :meth:`ResultCache.put` entry under ``PARITY_KEY``
    after ``damage``."""
    with tempfile.TemporaryDirectory() as scratch:
        cache = ResultCache(scratch)
        key = OTHER_KEY if damage[0] == "swap-key" else PARITY_KEY
        cache.put(key, PARITY_CELL, hand_result())
        with open(cache._path(key), "rb") as handle:
            data = handle.read()
    kind = damage[0]
    if kind == "truncate":
        return data[:damage[1] % (len(data) + 1)]
    if kind == "flip":
        text = data.decode()
        starts = {"cell": text.index("{", 1), "key": text.index(key),
                  "result": text.index('"result": ') + 10,
                  "sha256": text.index('"sha256": ') + 11}
        ends = {"cell": text.index(', "key": '), "key": text.index(key) + 64,
                "result": text.index(', "sha256": '),
                "sha256": len(text) - 2}
        start, end = starts[damage[1]], ends[damage[1]]
        at = start + damage[2] % (end - start)
        return data[:at] + bytes([data[at] ^ damage[3]]) + data[at + 1:]
    if kind in ("dump", "dump-indent"):
        document = json.loads(data)
        return json.dumps(document, indent=2 if kind == "dump-indent"
                          else None).encode()
    return data


def read_verdicts(data, read):
    """``read(cache, PARITY_KEY)`` over an entry holding ``data``: the
    result's payload (``None`` on a miss), the warning text and whether
    the entry was sidelined."""
    with tempfile.TemporaryDirectory() as scratch:
        cache = ResultCache(scratch)
        path = cache._path(PARITY_KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            value = read(cache, PARITY_KEY)
        sidelined = os.path.exists(path[:-len(".json")] + ".corrupt")
    return value, err.getvalue(), sidelined


class TestStoredBytesRead:
    @settings(max_examples=300, deadline=None)
    @given(DAMAGE)
    def test_read_verdicts_equal_the_full_check(self, damage):
        data = damaged_entry(damage)
        expected = read_verdicts(data, reference_get)
        got = read_verdicts(data, ResultCache.get)
        assert got[1:] == expected[1:]
        assert (got[0] is None) == (expected[0] is None)
        if expected[0] is not None:
            assert got[0].to_dict() == expected[0].to_dict()
        probe = read_verdicts(data, ResultCache.verify)
        assert probe[1:] == expected[1:]
        assert (probe[0] is None) == (expected[0] is None)
        if damage[0] in ("dump", "dump-indent"):
            assert got[0].to_dict() == hand_result().to_dict()

    def test_verify_returns_the_stored_digest_and_text(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = hand_result()
        cache.put(PARITY_KEY, PARITY_CELL, result)
        digest, text = cache.verify(PARITY_KEY)
        assert text == json.dumps(result.to_dict(), sort_keys=True)
        with open(cache._path(PARITY_KEY)) as handle:
            assert json.load(handle)["sha256"] == digest
        assert cache.get(PARITY_KEY).to_dict() == result.to_dict()
        # A rewritten but equal entry verifies to the same digest.
        with open(cache._path(PARITY_KEY)) as handle:
            document = json.load(handle)
        with open(cache._path(PARITY_KEY), "w") as handle:
            json.dump(document, handle, indent=2)
        assert cache.verify(PARITY_KEY) == (digest, text)
        assert cache.verify(OTHER_KEY) is None


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
