"""The ``repro worker`` process: pull, simulate, heartbeat, upload.

A worker owns no scheduling state.  It registers with the daemon, then
loops: lease one cell, simulate it through the exact same
:func:`~repro.experiments.parallel._execute_cell` path the process-pool
workers use (checkpointed into the daemon's shared ``resume_dir``, so a
reclaimed cell resumes mid-run on whichever node picks it up, and
seeded with the SingleIPC values the lease carries), renew
the lease with heartbeats while the simulation runs on a background
thread, and upload the ``RunResult``.  Losing the lease (HTTP 410) is
*not* fatal: the worker finishes and uploads anyway — the result is
content-addressed, so a late duplicate is harmless and an early arrival
simply resolves the cell for whoever holds the lease now.

The ``fault`` hook exists for the service chaos presets: e.g.
``split-result:2`` makes the first two uploads carry a torn result
payload, proving the daemon's validation charges the attempt and never
lets the bytes near the cache.
"""

import json
import threading
import time
import urllib.error
import urllib.request

from repro.experiments.parallel import _execute_cell
from repro.service import protocol


def _http(method, url, payload=None, timeout=60.0):
    """One synchronous JSON request; returns ``(status, parsed_body)``.

    HTTP error statuses are returned, not raised; only transport errors
    (connection refused, timeouts) propagate as ``URLError``/``OSError``.
    """
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            body = response.read()
    except urllib.error.HTTPError as exc:
        status = exc.code
        body = exc.read()
    try:
        parsed = json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, ValueError):
        parsed = None
    return status, parsed


class _Fault:
    """Parsed ``--fault`` spec, e.g. ``split-result:2``."""

    KINDS = ("split-result",)

    def __init__(self, spec):
        self.kind = None
        self.remaining = 0
        if not spec:
            return
        kind, _sep, count = spec.partition(":")
        if kind not in self.KINDS:
            raise ValueError("unknown worker fault %r (valid: %s)"
                             % (kind, ", ".join(self.KINDS)))
        self.kind = kind
        self.remaining = int(count) if count else 1

    def corrupt_result(self):
        """Consume one split-result charge, if armed."""
        if self.kind == "split-result" and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


def _split_payload(result_dict):
    """A torn upload: the result object with half its fields missing,
    as if the writer died mid-serialization."""
    keys = sorted(result_dict)
    return {key: result_dict[key] for key in keys[:len(keys) // 2]}


def run_worker(server_url, poll_interval=0.25, max_cells=None,
               idle_exit=None, fault=None, name=None, log=None):
    """Serve cells from ``server_url`` until told to stop.

    ``max_cells`` bounds how many cells this worker resolves (chaos
    presets use 1-cell workers to force churn); ``idle_exit`` exits
    after that many consecutive seconds without work (so workers drain
    away with their daemon).  Returns a summary dict.
    """
    say = log or (lambda message: None)
    fault_plan = _Fault(fault)
    server_url = server_url.rstrip("/")
    summary = {"completed": 0, "failed": 0, "lease_lost": 0,
               "faulted": 0, "reregistered": 0}

    def register():
        last_error = None
        for _attempt in range(50):
            try:
                status, body = _http(
                    "POST", server_url + "/v1/workers/register",
                    {"name": name or "worker"})
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
                time.sleep(0.1)
                continue
            if status == 200:
                return body
            last_error = RuntimeError("register got HTTP %d" % status)
            time.sleep(0.1)
        raise RuntimeError("cannot register with %s: %s"
                           % (server_url, last_error))

    registration = register()
    worker_id = registration["worker"]
    lease_timeout = float(registration.get("lease_timeout", 30.0))
    heartbeat_every = max(0.05, lease_timeout / 4.0)
    say("worker %s registered with %s" % (worker_id, server_url))
    idle_since = time.monotonic()  # repro: allow-nondeterminism[ND101] (idle-exit timer)

    while True:
        if max_cells is not None and summary["completed"] >= max_cells:
            say("worker %s done: %d cell(s) served" %
                (worker_id, summary["completed"]))
            return summary
        try:
            status, task = _http(
                "POST", "%s/v1/workers/%s/lease" % (server_url, worker_id))
        except (urllib.error.URLError, OSError):
            # Daemon gone (drained or crashed): workers outlive it only
            # by idle_exit, so fleets wind down on their own.
            if idle_exit is not None \
                    and time.monotonic() - idle_since > idle_exit:  # repro: allow-nondeterminism[ND101] (idle-exit timer)
                say("worker %s exiting: server unreachable" % worker_id)
                return summary
            time.sleep(poll_interval)
            continue
        if status == 404:
            # The daemon restarted and forgot us; enroll again.
            registration = register()
            worker_id = registration["worker"]
            summary["reregistered"] += 1
            continue
        if status != 200 or task is None:
            if idle_exit is not None \
                    and time.monotonic() - idle_since > idle_exit:  # repro: allow-nondeterminism[ND101] (idle-exit timer)
                say("worker %s exiting: idle for %.1fs"
                    % (worker_id, idle_exit))
                return summary
            time.sleep(poll_interval)
            continue

        idle_since = time.monotonic()  # repro: allow-nondeterminism[ND101] (idle-exit timer)
        cell = protocol.cell_from_spec(task["cell"])
        scale = protocol.scale_from_spec(task["scale"])
        say("worker %s leased %s (attempt %d)"
            % (worker_id, cell.label, task["attempt"]))
        outcome = {}

        def simulate():
            try:
                outcome["value"] = _execute_cell(
                    cell, scale, task["resume_dir"],
                    attempt=task["attempt"], solos=task.get("solos"))
            except BaseException as exc:  # report, don't die
                outcome["error"] = "%s: %s" % (type(exc).__name__, exc)

        thread = threading.Thread(target=simulate, daemon=True)
        thread.start()
        while thread.is_alive():
            thread.join(heartbeat_every)
            if not thread.is_alive():
                break
            try:
                status, _body = _http(
                    "POST", "%s/v1/workers/%s/heartbeat"
                    % (server_url, worker_id), {"key": task["key"]})
            except (urllib.error.URLError, OSError):
                continue
            if status == 410:
                # Lease reclaimed; finish and upload anyway — the
                # content-addressed result is valid whoever posts it.
                summary["lease_lost"] += 1

        if "error" in outcome:
            payload = {"key": task["key"], "ok": False,
                       "error": outcome["error"]}
            summary["failed"] += 1
        else:
            result, resumed = outcome["value"]
            result_dict = result.to_dict()
            if fault_plan.corrupt_result():
                result_dict = _split_payload(result_dict)
                summary["faulted"] += 1
                say("worker %s splitting result upload for %s"
                    % (worker_id, cell.label))
            payload = {"key": task["key"], "ok": True,
                       "result": result_dict, "resumed": resumed}
        try:
            status, body = _http(
                "POST", "%s/v1/workers/%s/result"
                % (server_url, worker_id), payload)
        except (urllib.error.URLError, OSError):
            continue  # daemon will reclaim the lease and requeue
        if status == 200 and payload["ok"]:
            summary["completed"] += 1
            say("worker %s uploaded %s" % (worker_id, cell.label))
        elif status == 400:
            say("worker %s upload rejected for %s: %s"
                % (worker_id, cell.label,
                   (body or {}).get("error", "invalid")))


__all__ = ["run_worker"]
