"""Service-level chaos: prove the daemon converges under node failure.

The pool chaos harness (:mod:`repro.reliability.chaos`) injects faults
*inside* worker processes; this module injects them at the service
tier — dead nodes, churning fleets, slow consumers, queue floods and
torn uploads.  Every preset runs a real daemon (in-process, on a
background thread) with real ``repro worker`` subprocesses against a
throwaway work directory, then byte-compares the merged job result
against a fault-free serial :class:`SweepEngine` reference.  The
invariant is the same one the pool tier proves: faults may cost time
and retries, never bytes.

``kill-worker`` kills a worker only while the job's event stream shows
it holding an outstanding lease, so that lease must then expire.
"""

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse

from repro.service.client import ServiceClient, SubmitRejected
from repro.service.server import ServiceConfig, ServiceHandle

#: ``repro chaos --preset`` service-tier choices -> one-line description.
SERVICE_CHAOS_PRESETS = {
    "kill-worker": "SIGKILL one of two workers mid-sweep; its lease "
                   "expires, the cells requeue and the survivor "
                   "finishes the job",
    "worker-storm": "three rounds of spawning a two-worker fleet and "
                    "SIGKILLing it; a final clean fleet must still "
                    "converge within the attempt budget",
    "slow-client": "an event-stream consumer reading one byte at a "
                   "time must only stall its own connection, never "
                   "the daemon or the sweep",
    "queue-flood": "per-cell jobs against a queue_limit=2 daemon; "
                   "clients must be throttled with 429 + Retry-After "
                   "and converge by obeying it",
    "split-result": "a worker uploads a torn result payload first; "
                    "validation charges the attempt and the retry "
                    "upload lands cleanly",
}


def _worker_env():
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing
                                    if existing else "")
    return env


def _spawn_worker(url, name, fault=None, idle_exit=8.0):
    command = [sys.executable, "-m", "repro", "worker", "--server", url,
               "--name", name, "--idle-exit", str(idle_exit), "--quiet"]
    if fault:
        command += ["--fault", fault]
    return subprocess.Popen(command, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=_worker_env())


def _wait_for(predicate, timeout, interval=0.1):
    deadline = time.monotonic() + timeout  # repro: allow-nondeterminism[ND101] (harness deadline, not results)
    while time.monotonic() < deadline:  # repro: allow-nondeterminism[ND101] (harness deadline, not results)
        if predicate():
            return True
        time.sleep(interval)
    return False


def _outstanding_leases(events):
    """``{cell label: worker id}`` for leases no later event resolved."""
    held = {}
    for record in list(events):
        if record["event"] == "cell-leased":
            held[record["cell"]] = record["worker"]
        elif record["event"] in ("cell-done", "cell-retry", "lease-expired"):
            held.pop(record["cell"], None)
    return held


def _kill_lease_holder(service, procs, events, say):
    """SIGKILL a worker while it holds an outstanding lease: freeze the
    holder, and resume it and try the next lease if this one completed."""
    while _wait_for(lambda: _outstanding_leases(events), 30.0, 0.02):
        cell, worker = sorted(_outstanding_leases(events).items())[0]
        proc = procs[service.workers[worker]["name"]]
        proc.send_signal(signal.SIGSTOP)
        time.sleep(0.5)  # let an upload it already sent land
        if _outstanding_leases(events).get(cell) == worker:
            say("SIGKILL worker pid %d holding %s" % (proc.pid, cell))
            proc.kill()
            proc.wait()
            return True
        proc.send_signal(signal.SIGCONT)
    return False


def _slow_event_reader(url, job_id, outcome):
    """Consume the NDJSON event stream one byte at a time over a raw
    socket — the pathological client the daemon must tolerate.  Returns
    once the daemon closes the stream (job done) or a byte cap hits."""
    parsed = urllib.parse.urlparse(url)
    received = b""
    try:
        with socket.create_connection((parsed.hostname, parsed.port),
                                      timeout=30.0) as sock:
            sock.sendall(("GET /v1/sweeps/%s/events HTTP/1.1\r\n"
                          "Host: chaos\r\n\r\n" % job_id).encode("ascii"))
            sock.settimeout(30.0)
            while len(received) < 65536:
                chunk = sock.recv(1)
                if not chunk:
                    break
                received += chunk
                time.sleep(0.005)
    except (OSError, socket.timeout):
        pass
    outcome["bytes"] = len(received)
    outcome["ok"] = received.startswith(b"HTTP/1.1 200")


def run_service_chaos(preset, scale_name="smoke", keep=False,
                      work_dir=None, grid=None, epochs=None, log=None,
                      deadline=600.0):
    """Run one service chaos scenario end to end; returns a report dict.

    A daemon with a deliberately twitchy lease timeout runs the default
    fig4-style grid while the preset abuses it; a serial engine then
    produces the fault-free reference in a separate cache, and the
    report's ``ok`` requires the merged job JSON to be byte-identical
    to it with the expected quarantine count (zero for every preset —
    service faults are all survivable).
    """
    from repro.experiments.parallel import SweepEngine, grid_cells, \
        merged_json
    from repro.reliability.chaos import default_grid
    from repro.service import protocol

    if preset not in SERVICE_CHAOS_PRESETS:
        raise ValueError("unknown service chaos preset %r (valid: %s)"
                         % (preset,
                            ", ".join(sorted(SERVICE_CHAOS_PRESETS))))
    say = log if log is not None else (lambda message: None)
    scale = protocol.scale_from_spec({"scale": scale_name})
    grid = dict(grid if grid is not None else default_grid())
    grid.setdefault("epochs", epochs)
    cells = grid_cells(**grid)
    scale_spec = {"scale": scale_name}
    grid_payload = {key: list(value) if isinstance(value, tuple) else value
                    for key, value in grid.items() if value is not None}

    workdir = work_dir or tempfile.mkdtemp(prefix="repro-svc-chaos-")
    state_dir = os.path.join(workdir, "state")
    cache_dir = os.path.join(workdir, "cache")
    ref_cache = os.path.join(workdir, "ref-cache")

    config = ServiceConfig(
        state_dir=state_dir, cache_dir=cache_dir,
        lease_timeout=2.0, max_attempts=3, tick_interval=0.05,
        retry_base_delay=0.05, retry_max_delay=0.5, retry_after=1,
        queue_limit=2 if preset == "queue-flood" else 1024,
        client_quota=256)
    if preset == "worker-storm":
        # Each storm round burns attempts on whatever was leased; give
        # the final clean fleet room to converge.
        config.max_attempts = 10
    handle = ServiceHandle(config).start()
    client = ServiceClient(handle.url, client="chaos")
    workers = []
    throttled = 0
    slow = {}
    try:
        if preset == "queue-flood":
            say("flooding a queue_limit=%d daemon with %d one-cell jobs"
                % (config.queue_limit, len(cells)))
            workers.append(_spawn_worker(handle.url, "flood-worker"))
            job_ids = []
            for cell in cells:
                spec = protocol.cell_spec(cell)
                try:
                    record = client.submit(cells=[spec], scale=scale_spec,
                                           retry=False)
                except SubmitRejected:
                    throttled += 1
                    record = client.submit(cells=[spec], scale=scale_spec,
                                           retry=True, deadline=deadline)
                job_ids.append(record["job"])
            for job_id in job_ids:
                client.wait(job_id, deadline=deadline)
            # The flood warmed the cache cell by cell; the full-grid
            # job must now complete instantly, entirely from cache.
            record = client.submit(grid=grid_payload, scale=scale_spec)
            job_id = record["job"]
        else:
            fault = "split-result:1" if preset == "split-result" else None
            count = 1 if preset in ("slow-client", "split-result") else 2
            for index in range(count):
                workers.append(_spawn_worker(handle.url,
                                             "chaos-%d" % index,
                                             fault=fault))
            record = client.submit(grid=grid_payload, scale=scale_spec)
            job_id = record["job"]
            say("submitted %s (%d cells) to %s"
                % (job_id, len(cells), handle.url))

            if preset == "kill-worker":
                events = []
                reader = threading.Thread(target=lambda: events.extend(
                    client.events(job_id)), daemon=True)
                reader.start()
                procs = {"chaos-%d" % index: proc
                         for index, proc in enumerate(workers)}
                _kill_lease_holder(handle.service, procs, events, say)
            elif preset == "worker-storm":
                for round_index in range(3):
                    _wait_for(lambda: client.stats()["leases"] >= 1,
                              timeout=30.0)
                    time.sleep(0.5)
                    say("storm round %d: killing the fleet"
                        % (round_index + 1))
                    for proc in workers:
                        proc.kill()
                        proc.wait()
                    workers = [_spawn_worker(handle.url,
                                             "storm-%d-%d"
                                             % (round_index + 1, index))
                               for index in range(2)]
                # let the final fleet live
            elif preset == "slow-client":
                slow_reader = threading.Thread(
                    target=_slow_event_reader,
                    args=(handle.url, job_id, slow), daemon=True)
                slow_reader.start()

        client.wait(job_id, deadline=deadline)
        text = client.result(job_id)
        status = client.status(job_id)
        stats = client.stats()
        if preset == "slow-client":
            # The sweep finished while the 200 B/s consumer was still
            # crawling — now let it drain its buffered stream tail.
            slow_reader.join(timeout=120.0)
        elif preset == "kill-worker":
            reader.join(timeout=30.0)  # the stream ends with the job
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
        handle.stop(drain=False)

    say("service sweep done; simulating the fault-free serial reference")
    engine = SweepEngine(scale, jobs=1, cache_dir=ref_cache)
    reference = merged_json(cells, engine.run_cells(cells), scale)
    identical = text == reference
    expected = 0
    quarantined = status["quarantined"]
    ok = identical and quarantined == expected
    if preset == "queue-flood":
        ok = ok and throttled > 0 and stats["rejected_queue_full"] > 0
    if preset == "split-result":
        ok = ok and stats["invalid_results"] >= 1
    if preset in ("kill-worker", "worker-storm"):
        ok = ok and stats["lease_expiries"] >= 1
    if preset == "slow-client":
        ok = ok and slow.get("ok", False)
    report = {
        "preset": preset,
        "cells": [cell.label for cell in cells],
        "jobs": stats["jobs_done"],
        "workers": len(workers),
        "quarantined": quarantined,
        "expected_quarantined": expected,
        "identical": identical,
        "ok": ok,
        "retries": stats["retries"],
        "lease_expiries": stats["lease_expiries"],
        "invalid_results": stats["invalid_results"],
        "throttled": max(throttled, stats["rejected_queue_full"]),
        "duplicate_results": stats["duplicate_results"],
        "work_dir": workdir if keep else None,
    }
    if not keep and work_dir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


__all__ = ["SERVICE_CHAOS_PRESETS", "run_service_chaos"]
