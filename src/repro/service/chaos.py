"""Service-tier chaos: the daemon converges under node failure.

The pool presets of :mod:`repro.reliability.chaos` inject faults
*inside* worker processes; the service presets here inject them at the
service tier — dead nodes, churning fleets, slow consumers, queue floods
and torn uploads.  :func:`service_faults` is that harness's service
runner: it runs a real daemon (in-process, on a background thread) with
real ``repro worker`` subprocesses in the harness's work directory and
returns the merged job JSON plus the evidence that the fault fired.
:func:`repro.reliability.chaos.run_chaos` owns everything else — the
grid, the fault-free serial reference, the byte comparison and the
report.

``kill-worker`` kills a worker only while the job's event stream shows
it holding an outstanding lease, so that lease must then expire.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse

from repro.service import protocol
from repro.service.client import ServiceClient, SubmitRejected
from repro.service.server import ServiceConfig, ServiceHandle


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


def service_faults(preset, scale, cells, grid, workdir, say,
                   deadline=600.0):
    """Run ``cells`` (the ``grid``) on a daemon while ``preset`` abuses
    it; returns the runner outcome
    :func:`~repro.reliability.chaos.run_chaos` compares.

    The daemon has a deliberately twitchy lease timeout and keeps its
    state and cache under ``workdir``.  Every service fault is
    survivable, so no cell may be quarantined; the preset's evidence is
    the counter that proves its fault fired.
    """
    scale_spec = protocol.spec_of(scale)
    grid_payload = {key: list(value) if isinstance(value, tuple) else value
                    for key, value in grid.items() if value is not None}
    state_dir = os.path.join(workdir, "state")
    config = ServiceConfig(
        state_dir=state_dir, cache_dir=os.path.join(workdir, "cache-chaos"),
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
    workers = {}  # name -> the live fleet's processes
    throttled = 0
    slow = {}
    try:
        if preset == "queue-flood":
            say("flooding a queue_limit=%d daemon with %d one-cell jobs"
                % (config.queue_limit, len(cells)))
            workers["flood"] = _spawn_worker(handle.url, "flood")
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
                name = "chaos-%d" % index
                workers[name] = _spawn_worker(handle.url, name, fault=fault)
            record = client.submit(grid=grid_payload, scale=scale_spec)
            job_id = record["job"]
            say("submitted %s (%d cells) to %s"
                % (job_id, len(cells), handle.url))

            if preset in ("kill-worker", "worker-storm"):
                events = []
                reader = threading.Thread(target=lambda: events.extend(
                    client.events(job_id)), daemon=True)
                reader.start()
            if preset == "kill-worker":
                _kill_lease_holder(handle.service, workers, events, say)
            elif preset == "worker-storm":
                for round_index in range(3):
                    # Kill each fleet while it holds a lease, so that
                    # lease must expire.
                    _wait_for(lambda: set(workers) & {
                        handle.service.workers.get(worker, {}).get("name")
                        for worker in _outstanding_leases(events).values()},
                        timeout=30.0, interval=0.02)
                    say("storm round %d: killing the fleet"
                        % (round_index + 1))
                    for proc in workers.values():
                        proc.kill()
                        proc.wait()
                    workers = {}
                    for index in range(2):
                        name = "storm-%d-%d" % (round_index + 1, index)
                        workers[name] = _spawn_worker(handle.url, name)
                # let the final fleet live
            elif preset == "slow-client":
                slow_reader = threading.Thread(
                    target=_slow_event_reader,
                    args=(handle.url, job_id, slow), daemon=True)
                slow_reader.start()

        client.wait(job_id, deadline=deadline)
        text = client.result(job_id)
        stats = client.stats()
        if preset == "slow-client":
            # The sweep finished while the 200 B/s consumer was still
            # crawling — now let it drain its buffered stream tail.
            slow_reader.join(timeout=120.0)
        elif preset in ("kill-worker", "worker-storm"):
            reader.join(timeout=30.0)  # the stream ends with the job
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
        handle.stop(drain=False)

    evidence = {
        "queue-flood": throttled > 0 and stats["rejected_queue_full"] > 0,
        "split-result": stats["invalid_results"] >= 1,
        "kill-worker": stats["lease_expiries"] >= 1,
        "worker-storm": stats["lease_expiries"] >= 1,
        "slow-client": slow.get("ok", False),
    }[preset]
    return {
        "text": text,
        "expected_quarantined": 0,
        "evidence": evidence,
        "quarantine_path": os.path.join(state_dir, "quarantine.jsonl"),
        "counters": {
            "jobs": stats["jobs_done"],
            "workers": len(workers),
            "retries": stats["retries"],
            "lease_expiries": stats["lease_expiries"],
            "invalid_results": stats["invalid_results"],
            "throttled": max(throttled, stats["rejected_queue_full"]),
            "duplicate_results": stats["duplicate_results"],
        },
    }


__all__ = ["service_faults"]
