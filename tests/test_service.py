"""The sweep service tier: protocol, leases, quotas, drain, identity.

The acceptance contract of docs/SERVICE.md, as tests:

* a sweep submitted over HTTP and simulated by a pull-based worker
  produces merged JSON byte-identical to a serial in-process sweep;
* a full queue answers 429 + Retry-After, a client over quota likewise,
  and a draining daemon answers 503 — flow control, not failure;
* an abandoned lease expires, charges an attempt against the same
  backoff/quarantine ledger the CellSupervisor uses, and repeat
  offenders quarantine while the job completes around them;
* a torn result upload is rejected by validation before the cache
  sees it;
* a drained daemon persists its queue and a restarted daemon resumes
  the same job ids to an identical result.

Most tests never simulate a cell: leases and failures are exercised by
hand-rolled worker HTTP calls, so the suite stays fast.
"""

import hashlib
import json
import os
import threading
import time

import pytest

from repro.core.controller import EpochResult
from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    SweepEngine,
    cache_key,
    grid_cells,
    merged_json,
)
from repro.experiments.runner import ExperimentScale, RunResult
from repro.reliability.supervisor import SWEEP_EVENTS, QuarantineLedger
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError, SubmitRejected
from repro.service.server import ServiceConfig, ServiceHandle
from repro.service.worker import _http, run_worker

ONE_CELL = {"workloads": ["art-mcf"], "policies": ["ICOUNT"],
            "seeds": [0], "epochs": 2}
TWO_CELLS = dict(ONE_CELL, policies=["ICOUNT", "DCRA"])
SCALE_SPEC = {"scale": "smoke"}


@pytest.fixture
def service(tmp_path):
    handle = ServiceHandle(ServiceConfig(
        state_dir=str(tmp_path / "state"),
        cache_dir=str(tmp_path / "cache"),
        lease_timeout=0.4, max_attempts=2, tick_interval=0.02,
        retry_base_delay=0.01, retry_max_delay=0.05)).start()
    yield handle
    handle.stop(drain=False)


def lease_one(url):
    """Register a fake worker and grab one lease, no simulation."""
    status, registered = _http("POST", url + "/v1/workers/register",
                               {"name": "fake"})
    assert status == 200
    worker = registered["worker"]
    status, task = _http("POST", "%s/v1/workers/%s/lease" % (url, worker))
    return worker, status, task


def stub_result(cell, ipc=0.5):
    """A valid RunResult for ``cell``, built without simulating."""
    return RunResult(
        workload=cell.workload, policy=cell.policy, ipcs=[ipc, 0.25],
        committed=[100, 50], cycles=200, single_ipcs=[1.0, 0.5],
        epoch_history=[EpochResult(epoch_id=0, kind="normal",
                                   committed=[10, 5], cycles=20,
                                   shares=[16, 16])])


def prefill(service, grid, ipc=0.5):
    """Store a stub result for every cell of ``grid``; returns the cells,
    their cache keys and the cache."""
    cache = ResultCache(service.service.config.cache_dir)
    cells = grid_cells(**grid)
    keys = [cache_key(cell, ExperimentScale.smoke()) for cell in cells]
    for cell, key in zip(cells, keys):
        cache.put(key, cell, stub_result(cell, ipc))
    return cells, keys, cache


def fail_every_lease(url, client, job_id):
    """Answer each lease with a worker failure until the job is done
    (every leased cell quarantines after ``max_attempts``)."""
    status, registered = _http("POST", url + "/v1/workers/register",
                               {"name": "failing"})
    worker = registered["worker"]
    deadline = time.monotonic() + 30.0
    while client.status(job_id)["state"] != "done":
        assert time.monotonic() < deadline
        status, task = _http("POST", "%s/v1/workers/%s/lease"
                             % (url, worker))
        if status != 200:
            time.sleep(0.02)
            continue
        _http("POST", "%s/v1/workers/%s/result" % (url, worker),
              {"key": task["key"], "ok": False, "error": "sim exploded"})


# -- wire protocol ----------------------------------------------------------


class TestProtocol:
    def test_scale_spec_roundtrip(self):
        spec = protocol.scale_spec("smoke", epochs=3, seed=7)
        scale = protocol.scale_from_spec(spec)
        assert scale.epochs == 3 and scale.seed == 7
        assert scale.epoch_size == ExperimentScale.smoke().epoch_size

    def test_scale_spec_rejects_unknowns(self):
        with pytest.raises(ValueError):
            protocol.scale_from_spec({"scale": "galactic"})
        with pytest.raises(ValueError):
            protocol.scale_from_spec({"scale": "smoke", "stride": 4})
        with pytest.raises(ValueError):
            protocol.scale_from_spec({"scale": "smoke", "epochs": "six"})

    def test_cell_spec_roundtrip_canonicalizes_policy(self):
        (cell,) = grid_cells(workloads=["art-mcf"], policies=["hill"])
        rebuilt = protocol.cell_from_spec(protocol.cell_spec(cell))
        assert rebuilt == cell
        assert rebuilt.policy == "HILL-WIPC"

    def test_cell_spec_rejects_malformed(self):
        with pytest.raises(ValueError):
            protocol.cell_from_spec({"workload": "art-mcf"})
        with pytest.raises(ValueError):
            protocol.cell_from_spec({"workload": "art-mcf",
                                     "policy": "ICOUNT", "seed": "zero"})
        with pytest.raises(ValueError):
            protocol.cell_from_spec("art-mcf/ICOUNT/s0")

    def test_service_events_disjoint_from_sweep_events(self):
        assert not set(protocol.SERVICE_EVENTS) & set(SWEEP_EVENTS)


# -- submit validation and flow control -------------------------------------


class TestSubmit:
    def test_submit_rejects_bad_grids(self, service):
        client = ServiceClient(service.url)
        for payload in (
            {"grid": {"workloads": ["no-such-workload"]}},
            {"grid": {"cores": 4}},
            {"cells": []},
            {},
        ):
            status, _headers, body = client._request(
                "POST", "/v1/sweeps", dict(payload, scale=SCALE_SPEC))
            assert status == 400, payload
        status, _headers, _body = client._request(
            "POST", "/v1/sweeps",
            {"grid": ONE_CELL, "scale": {"scale": "galactic"}})
        assert status == 400

    def test_queue_full_answers_429_with_retry_after(self, tmp_path):
        handle = ServiceHandle(ServiceConfig(
            state_dir=str(tmp_path / "s"), cache_dir=str(tmp_path / "c"),
            queue_limit=1)).start()
        try:
            client = ServiceClient(handle.url, client="flood")
            client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
            with pytest.raises(SubmitRejected) as caught:
                client.submit(grid=dict(ONE_CELL, policies=["DCRA"]),
                              scale=SCALE_SPEC, retry=False)
            assert caught.value.status == 429
            assert caught.value.retry_after > 0
            assert handle.service.stats["rejected_queue_full"] == 1
        finally:
            handle.stop(drain=False)

    def test_oversized_job_is_a_400_not_a_deadlock(self, tmp_path):
        handle = ServiceHandle(ServiceConfig(
            state_dir=str(tmp_path / "s"), cache_dir=str(tmp_path / "c"),
            queue_limit=1)).start()
        try:
            client = ServiceClient(handle.url)
            with pytest.raises(ServiceError) as caught:
                client.submit(grid=dict(ONE_CELL,
                                        policies=["ICOUNT", "DCRA"]),
                              scale=SCALE_SPEC, retry=False)
            assert caught.value.status == 400
        finally:
            handle.stop(drain=False)

    def test_client_quota_answers_429(self, tmp_path):
        handle = ServiceHandle(ServiceConfig(
            state_dir=str(tmp_path / "s"), cache_dir=str(tmp_path / "c"),
            client_quota=1)).start()
        try:
            greedy = ServiceClient(handle.url, client="greedy")
            other = ServiceClient(handle.url, client="other")
            greedy.submit(grid=ONE_CELL, scale=SCALE_SPEC)
            with pytest.raises(SubmitRejected) as caught:
                greedy.submit(grid=dict(ONE_CELL, policies=["DCRA"]),
                              scale=SCALE_SPEC, retry=False)
            assert caught.value.status == 429
            # The quota is per client: another client still gets in.
            other.submit(grid=dict(ONE_CELL, policies=["DCRA"]),
                         scale=SCALE_SPEC)
        finally:
            handle.stop(drain=False)

    def test_submit_reads_the_quarantine_ledger_once(self, service,
                                                     capsys):
        client = ServiceClient(service.url)
        record = client.submit(grid=TWO_CELLS, scale=SCALE_SPEC)
        fail_every_lease(service.url, client, record["job"])
        assert client.status(record["job"])["quarantined"] == 2
        ledger = service.service.ledger
        with open(ledger.path, "a") as handle:
            handle.write('{"key": "torn')  # a crash mid-append
        capsys.readouterr()
        reads = []
        entries = ledger.entries
        ledger.entries = lambda: reads.append(1) or entries()
        again = client.submit(grid=TWO_CELLS, scale=SCALE_SPEC)
        assert again["done"] and len(reads) == 1
        assert capsys.readouterr().err.count(
            "skipping corrupt quarantine-ledger line") == 1
        labels = {row["policy"] for row in json.loads(
            client.result(again["job"]))["quarantined"]}
        assert labels == {"ICOUNT", "DCRA"}

    def test_draining_daemon_answers_503(self, service):
        client = ServiceClient(service.url)
        service.service.draining = True
        with pytest.raises(SubmitRejected) as caught:
            client.submit(grid=ONE_CELL, scale=SCALE_SPEC, retry=False)
        assert caught.value.status == 503


# -- leases, heartbeats, results --------------------------------------------


class TestLeases:
    def test_lease_heartbeat_and_result_lifecycle(self, service):
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        worker, status, task = lease_one(service.url)
        assert status == 200
        assert task["attempt"] == 1
        assert task["cell"] == {"workload": "art-mcf", "policy": "ICOUNT",
                                "seed": 0, "epochs": 2}
        status, _body = _http(
            "POST", "%s/v1/workers/%s/heartbeat" % (service.url, worker),
            {"key": task["key"]})
        assert status == 200
        # A heartbeat for a key this worker does not hold is Gone.
        status, _body = _http(
            "POST", "%s/v1/workers/%s/heartbeat" % (service.url, worker),
            {"key": "f" * 64})
        assert status == 410
        assert not client.status(record["job"])["state"] == "done"

    def test_abandoned_lease_expires_then_quarantines(self, service):
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        # max_attempts=2: abandon the lease twice, never heartbeat.
        for expected_attempt in (1, 2):
            worker, status, task = None, None, None
            for _poll in range(200):
                worker, status, task = lease_one(service.url)
                if status == 200:
                    break
                time.sleep(0.02)
            assert status == 200
            assert task["attempt"] == expected_attempt
        done = client.wait(record["job"], deadline=30.0)
        assert done["quarantined"] == 1
        stats = client.stats()
        assert stats["lease_expiries"] >= 2
        assert stats["quarantined"] == 1
        # The quarantine landed in the same append-only ledger format.
        entries = QuarantineLedger(os.path.join(
            service.service.state_dir, "quarantine.jsonl")).entries()
        assert [entry["cell"] for entry in entries] == ["art-mcf/ICOUNT/s0"]
        assert entries[0]["attempts"] == 2
        assert entries[0]["key"] == task["key"]
        # The merged document carries the quarantined section.
        document = json.loads(client.result(record["job"]))
        assert document["cells"] == []
        (row,) = document["quarantined"]
        assert row["workload"] == "art-mcf" and row["policy"] == "ICOUNT"
        assert row["attempts"] == 2
        assert row["last_error"].startswith("LeaseExpired")

    def test_torn_result_upload_is_rejected_and_charged(self, service):
        client = ServiceClient(service.url)
        client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        worker, status, task = lease_one(service.url)
        assert status == 200
        status, body = _http(
            "POST", "%s/v1/workers/%s/result" % (service.url, worker),
            {"key": task["key"], "ok": True,
             "result": {"workload": "art-mcf"}})
        assert status == 400
        assert body["error"] == "invalid-result"
        stats = client.stats()
        assert stats["invalid_results"] == 1
        assert stats["retries"] == 1
        # Nothing reached the content-addressed cache.
        assert ResultCache(service.service.config.cache_dir).info().entries \
            == 0

    def test_worker_reported_failure_requeues(self, service):
        client = ServiceClient(service.url)
        client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        worker, status, task = lease_one(service.url)
        assert status == 200
        status, body = _http(
            "POST", "%s/v1/workers/%s/result" % (service.url, worker),
            {"key": task["key"], "ok": False, "error": "sim exploded"})
        assert status == 200 and body["requeued"]
        assert client.stats()["worker_failures"] == 1

    def test_result_for_unknown_task_is_404(self, service):
        worker, _status, _task = lease_one(service.url)
        status, _body = _http(
            "POST", "%s/v1/workers/%s/result" % (service.url, worker),
            {"key": "0" * 64, "ok": True, "result": {}})
        assert status == 404

    def test_lease_pool_empty_is_204(self, service):
        _worker, status, task = lease_one(service.url)
        assert status == 204 and task is None


# -- end-to-end byte identity -----------------------------------------------


class TestEndToEnd:
    def test_service_sweep_matches_serial_reference(self, service,
                                                    tmp_path):
        client = ServiceClient(service.url, client="e2e")
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        thread = threading.Thread(
            target=run_worker,
            kwargs=dict(server_url=service.url, max_cells=1), daemon=True)
        thread.start()
        client.wait(record["job"], deadline=60.0)
        thread.join(timeout=30.0)
        text = client.result(record["job"])

        cells = grid_cells(**ONE_CELL)
        scale = ExperimentScale.smoke()
        engine = SweepEngine(scale, jobs=1,
                             cache_dir=str(tmp_path / "ref"))
        reference = merged_json(cells, engine.run_cells(cells), scale)
        assert text == reference

        # Same grid again: everything is a cache hit, no worker needed.
        again = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        assert again["done"] and again["cached"] == 1
        assert client.result(again["job"]) == reference
        events = list(client.events(again["job"]))
        assert [event["event"] for event in events] == [
            "job-accepted", "cell-cached", "sweep-start", "sweep-done",
            "job-done"]

        # Cache transport: raw object bytes come back byte-for-byte.
        (cell,) = cells
        key = cache_key(cell, scale)
        cache = ResultCache(service.service.config.cache_dir)
        with open(cache._path(key), "rb") as handle:
            assert client.cache_object(key) == handle.read()

    def test_shared_resume_dir_never_serves_another_configuration(
            self, service, tmp_path):
        # Every job on a daemon checkpoints into one state_dir/resume:
        # the same cell at another epoch count must not reuse the first
        # job's finished run.
        client = ServiceClient(service.url)
        grid = dict(ONE_CELL, epochs=None)
        for epochs in (2, 3):
            record = client.submit(
                grid=grid, scale=protocol.scale_spec("smoke", epochs=epochs))
            run_worker(server_url=service.url, max_cells=1)
            client.wait(record["job"], deadline=60.0)
        cells = grid_cells(**grid)
        scale = ExperimentScale.smoke().with_overrides(epochs=3)
        engine = SweepEngine(scale, jobs=1, cache_dir=str(tmp_path / "ref"))
        assert client.result(record["job"]) == merged_json(
            cells, engine.run_cells(cells), scale)

    @pytest.mark.parametrize("damage", ["delete", "corrupt"])
    def test_evicted_result_is_a_410_naming_the_cells(self, service,
                                                      damage):
        # A finished job's entry disappears (deleted, or sidelined as
        # corrupt by the read) before its result is fetched: the daemon
        # must say so, not merge the cell in as "quarantined".
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        run_worker(server_url=service.url, max_cells=1)
        client.wait(record["job"], deadline=60.0)
        (cell,) = grid_cells(**ONE_CELL)
        path = ResultCache(service.service.config.cache_dir)._path(
            cache_key(cell, ExperimentScale.smoke()))
        if damage == "delete":
            os.remove(path)
        else:
            with open(path, "w") as handle:
                handle.write("{truncated")
        with pytest.raises(ServiceError) as caught:
            client.result(record["job"])
        assert caught.value.status == 410
        assert caught.value.detail == "result-evicted (%s)" % cell.label
        status, _headers, body = client._request(
            "GET", "/v1/sweeps/%s/result" % record["job"])
        assert (status, json.loads(body)) == (
            410, {"error": "result-evicted", "cells": [cell.label]})
        assert client.status(record["job"])["quarantined"] == 0

        # Resubmitting re-simulates the evicted cell.
        again = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        assert again["cached"] == 0
        run_worker(server_url=service.url, max_cells=1)
        client.wait(again["job"], deadline=60.0)
        doc = json.loads(client.result(again["job"]))
        assert [entry["workload"] for entry in doc["cells"]] == ["art-mcf"]
        assert doc["quarantined"] == []

    def test_warm_result_serves_the_bytes_now_stored(self, service):
        # A different valid result stored under the same key between two
        # warm submits: the next merged result carries the new bytes.
        client = ServiceClient(service.url)
        cells, keys, cache = prefill(service, ONE_CELL, ipc=0.5)
        scale = ExperimentScale.smoke()
        first = client.result(client.submit(
            grid=ONE_CELL, scale=SCALE_SPEC)["job"])
        assert first == merged_json(cells, [stub_result(cells[0], 0.5)],
                                    scale)
        assert client.result(client.submit(
            grid=ONE_CELL, scale=SCALE_SPEC)["job"]) == first
        cache.put(keys[0], cells[0], stub_result(cells[0], 0.75))
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        assert client.result(record["job"]) == merged_json(
            cells, [stub_result(cells[0], 0.75)], scale)

    def test_verified_entry_that_is_no_result_answers_410(self, service):
        # The digests match, but the payloads have no result's shape:
        # the submit's verify-only probe counts them cached, the fetch
        # cannot load them, sidelines them and names every such cell.
        client = ServiceClient(service.url)
        cells, keys, cache = prefill(service, TWO_CELLS)
        result_text = json.dumps({"workload": "art-mcf"})
        for key in keys:
            cache._write(cache._path(key), json.dumps({
                "cell": {}, "key": key, "result": {"workload": "art-mcf"},
                "sha256": hashlib.sha256(result_text.encode()).hexdigest()}))
        record = client.submit(grid=TWO_CELLS, scale=SCALE_SPEC)
        assert record["cached"] == 2
        with pytest.raises(ServiceError) as caught:
            client.result(record["job"])
        assert caught.value.status == 410
        assert caught.value.detail == "result-evicted (%s)" % ", ".join(
            cell.label for cell in cells)
        assert cache.info().corrupt == 2

    def test_cached_submit_and_result_open_each_entry_once(
            self, service, monkeypatch):
        client = ServiceClient(service.url)
        grid = dict(TWO_CELLS, workloads=["art-mcf", "apsi-eon"])
        _cells, keys, cache = prefill(service, grid)
        paths = {cache._path(key) for key in keys}
        opened = []

        def counting_open(path, *args, **kwargs):
            if path in paths:
                opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(parallel, "open", counting_open, raising=False)
        for _warm in range(2):
            record = client.submit(grid=grid, scale=SCALE_SPEC)
            assert record["cached"] == len(keys)
            assert sorted(opened) == sorted(paths)
            del opened[:]
            client.result(record["job"])
            assert sorted(opened) == sorted(paths)
            del opened[:]

    def test_event_stream_offsets_and_unknown_job(self, service):
        client = ServiceClient(service.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        service.service.jobs[record["job"]].done = True  # stop the stream
        events = list(client.events(record["job"]))
        assert events[0]["event"] == "job-accepted"
        tail = list(client.events(record["job"], offset=len(events) - 1))
        assert tail == events[-1:]
        # The backlog goes out as one chunk of the same JSON lines.
        _status, _headers, body = client._request(
            "GET", "/v1/sweeps/%s/events" % record["job"])
        assert body == "".join(
            json.dumps(event) + "\n"
            for event in service.service.jobs[record["job"]].events
        ).encode()
        with pytest.raises(ServiceError) as caught:
            client.status("job-999999")
        assert caught.value.status == 404


# -- drain and restart ------------------------------------------------------


class TestDrainRestart:
    def test_drained_queue_resumes_to_identical_output(self, tmp_path):
        state = str(tmp_path / "state")
        cache = str(tmp_path / "cache")
        first = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=cache)).start()
        client = ServiceClient(first.url, client="drain")
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        first.stop(drain=True)
        assert os.path.exists(os.path.join(state, "queue-state.json"))

        second = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=cache)).start()
        try:
            client = ServiceClient(second.url, client="drain")
            status = client.status(record["job"])
            assert status["state"] == "running" and status["pending"] == 1
            events = [event["event"] for event in
                      second.service.jobs[record["job"]].events]
            assert events[0] == "service-resumed"
            thread = threading.Thread(
                target=run_worker,
                kwargs=dict(server_url=second.url, max_cells=1),
                daemon=True)
            thread.start()
            client.wait(record["job"], deadline=60.0)
            thread.join(timeout=30.0)
            text = client.result(record["job"])
        finally:
            second.stop(drain=False)

        cells = grid_cells(**ONE_CELL)
        scale = ExperimentScale.smoke()
        engine = SweepEngine(scale, jobs=1, cache_dir=str(tmp_path / "r"))
        assert text == merged_json(cells, engine.run_cells(cells), scale)

    def test_done_jobs_survive_restart(self, tmp_path):
        state = str(tmp_path / "state")
        cache = str(tmp_path / "cache")
        first = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=cache)).start()
        client = ServiceClient(first.url)
        record = client.submit(grid=ONE_CELL, scale=SCALE_SPEC)
        worker, status, task = lease_one(first.url)
        from repro.experiments.parallel import _execute_cell

        (cell,) = grid_cells(**ONE_CELL)
        result, resumed = _execute_cell(
            cell, protocol.scale_from_spec(task["scale"]),
            task["resume_dir"])
        status, _body = _http(
            "POST", "%s/v1/workers/%s/result" % (first.url, worker),
            {"key": task["key"], "ok": True, "result": result.to_dict(),
             "resumed": resumed})
        assert status == 200
        text = client.result(record["job"])
        # A late duplicate upload is a silent no-op.
        status, body = _http(
            "POST", "%s/v1/workers/%s/result" % (first.url, worker),
            {"key": task["key"], "ok": True, "result": result.to_dict(),
             "resumed": resumed})
        assert status == 200 and body.get("duplicate")
        first.stop(drain=True)

        second = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=cache)).start()
        try:
            client = ServiceClient(second.url)
            assert client.status(record["job"])["state"] == "done"
            assert client.result(record["job"]) == text
        finally:
            second.stop(drain=False)

    def test_torn_journal_line_does_not_block_restart(self, tmp_path,
                                                      capsys):
        state = str(tmp_path / "state")
        first = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=str(tmp_path / "cache"))).start()
        ServiceClient(first.url).submit(grid=ONE_CELL, scale=SCALE_SPEC)
        first.stop(drain=True)
        with open(os.path.join(state, "jobs.jsonl"), "a") as handle:
            handle.write('{"job": "job-0000')  # torn mid-append
        second = ServiceHandle(ServiceConfig(
            state_dir=state, cache_dir=str(tmp_path / "cache"))).start()
        try:
            assert ServiceClient(second.url).status(
                "job-000001")["state"] == "running"
        finally:
            second.stop(drain=False)
        assert "skipping corrupt quarantine-ledger line" \
            in capsys.readouterr().err


# -- event tables -----------------------------------------------------------


class TestEventTables:
    def test_cli_renderers_cover_exactly_the_event_tables(self):
        from repro.cli import _EVENT_RENDERERS, _SERVICE_EVENT_RENDERERS

        assert set(_EVENT_RENDERERS) == set(SWEEP_EVENTS)
        assert set(_SERVICE_EVENT_RENDERERS) == set(
            protocol.SERVICE_EVENTS)

    def test_service_rejects_unknown_event_names(self, service):
        job = type("J", (), {"events": []})()
        with pytest.raises(ValueError):
            service.service._emit(job, "cell-teleported")

    def test_engine_and_supervisor_reject_unknown_event_names(self,
                                                              tmp_path):
        engine = SweepEngine(ExperimentScale.smoke(), jobs=1,
                             cache_dir=str(tmp_path / "c"))
        with pytest.raises(ValueError):
            engine._emit("cell-teleported")
