"""The ``repro serve`` daemon: leases, quotas, backpressure, drain.

One asyncio event loop owns all state, so there are no locks: every
mutation happens between awaits.  The daemon is a *scheduler*, not a
simulator — workers pull cells over HTTP, simulate them through the
same ``_execute_cell`` path the process pool uses, and upload
``RunResult`` payloads which the daemon validates (the supervisor's
``_validate_cell_value`` contract) and stores in the content-addressed
:class:`~repro.experiments.parallel.ResultCache`.  Merged job results
are then *read back from the cache* in request order and serialized by
:func:`~repro.experiments.parallel.merged_json` — which is why a
service sweep is byte-identical to a serial in-process one: identity
lives in the cache key, the service only moves bytes.  Every fetch
reads and re-verifies every entry, and renders the merge afresh.

Failure containment is :class:`CellSupervisor`'s, lifted from process
level to node level — both are adapters over one
:class:`~repro.reliability.supervisor.Containment` machine:

* a **lease** (deadline renewed by worker heartbeats) bounds how long a
  dead or stalled node can sit on a cell; expiry reclaims the cell,
  charges one attempt, and requeues it after the machine's
  deterministic backoff;
* repeat offenders land in the same append-only ``quarantine.jsonl``
  ledger, with the record the machine shapes, and the sweep completes
  around them;
* an over-full queue answers 429 with ``Retry-After`` (backpressure),
  and per-client quotas keep one client from starving the rest;
* SIGTERM drains: no new jobs or leases, in-flight cells get a grace
  period to finish (or their checkpoints survive in ``resume_dir``),
  then the queue persists to ``state_dir`` and a restarted daemon
  resumes it (see docs/SERVICE.md for the walkthrough).
"""

import asyncio
import json
import os
import tempfile
import threading
import time

from repro.experiments.parallel import (
    ResultCache,
    _validate_cell_value,
    cache_key,
    cell_solo_keys,
    grid_cells,
    ledger_info,
    merged_json,
    store_solos,
)
from repro.experiments.runner import RunResult
from repro.reliability.supervisor import (
    SWEEP_EVENTS,
    Containment,
    QuarantineLedger,
)
from repro.service import protocol
from repro.service.httpd import (
    BadRequest,
    read_request,
    send_response,
    start_ndjson_stream,
)

_VALID_EVENTS = frozenset(SWEEP_EVENTS) | frozenset(protocol.SERVICE_EVENTS)


class ServiceConfig:
    """Tunables of one daemon instance.

    ``queue_limit`` bounds the total backlog (queued + waiting + leased
    cells) across all jobs; ``client_quota`` bounds one client's share
    of it.  ``lease_timeout`` is the heartbeat staleness after which a
    worker is presumed dead; ``max_attempts``/``retry_*``/``seed`` are
    the :class:`~repro.reliability.supervisor.Containment` parameters,
    validated there as for a sweep's ``Supervision``.
    ``state_dir`` holds the job journal, the queue snapshot, the
    quarantine ledger and the shared ``resume`` checkpoints — give
    every daemon its own.
    """

    def __init__(self, host="127.0.0.1", port=0, cache_dir=None,
                 state_dir=None, queue_limit=1024, client_quota=256,
                 lease_timeout=30.0, max_attempts=3, retry_base_delay=0.05,
                 retry_max_delay=5.0, tick_interval=0.1, drain_grace=5.0,
                 retry_after=1, seed=0):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if client_quota < 1:
            raise ValueError("client_quota must be >= 1")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        # The containment machine validates the retry parameters.
        Containment(max_attempts, retry_base_delay, retry_max_delay, seed)
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.state_dir = state_dir or tempfile.mkdtemp(prefix="repro-serve-")
        self.queue_limit = queue_limit
        self.client_quota = client_quota
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.tick_interval = tick_interval
        self.drain_grace = drain_grace
        self.retry_after = retry_after
        self.seed = seed


class _Task:
    """One unique cache key's worth of work, shared across jobs (its
    attempts and failures live in the service's containment machine)."""

    __slots__ = ("key", "cell", "scale", "scale_spec", "state", "worker",
                 "lease_deadline", "not_before", "jobs")

    def __init__(self, key, cell, scale, scale_spec):
        self.key = key
        self.cell = cell
        self.scale = scale
        self.scale_spec = scale_spec
        self.state = "queued"   # queued | waiting | leased | done | quarantined
        self.worker = None
        self.lease_deadline = None
        self.not_before = None
        self.jobs = set()


class _Job:
    """One submitted sweep: request-order cells plus live progress."""

    def __init__(self, job_id, client, cells, keys, scale, scale_spec):
        self.id = job_id
        self.client = client
        self.cells = cells
        self.keys = keys
        self.scale = scale
        self.scale_spec = scale_spec
        self.pending = set()
        self.cached = 0
        self.quarantined = {}   # key -> ledger entry
        self.events = []
        self.done = False
        self.started = time.time()  # repro: allow-nondeterminism[ND101] (job wall-clock metadata)

    @property
    def total(self):
        return len(dict.fromkeys(self.keys))


class SweepService:
    """The daemon's state machine; all methods run on one event loop."""

    # The locking discipline is "every mutation happens between awaits":
    # these roots (`self.<root>` and the locals aliasing their entries)
    # must never be mutated on both sides of an `await` in one coroutine
    # without a lock.  Enforced by `repro lint` rule AS303.
    # repro: guarded-state[tasks, jobs, workers, _ready, draining, task, job, entry]

    def __init__(self, config):
        self.config = config
        self.cache = ResultCache(config.cache_dir)
        self.state_dir = config.state_dir
        self.resume_dir = os.path.join(self.state_dir, "resume")
        self.ledger = QuarantineLedger(
            os.path.join(self.state_dir, "quarantine.jsonl"))
        self.containment = Containment(
            config.max_attempts, config.retry_base_delay,
            config.retry_max_delay, config.seed)
        self._journal_path = os.path.join(self.state_dir, "jobs.jsonl")
        self._snapshot_path = os.path.join(self.state_dir,
                                           "queue-state.json")
        self.jobs = {}
        self.tasks = {}
        self.workers = {}
        self._ready = []        # FIFO of task keys in state "queued"
        self._connections = set()
        self._job_seq = 0
        self._worker_seq = 0
        self.draining = False
        self.stats = {
            "jobs_submitted": 0, "jobs_done": 0, "cells_completed": 0,
            "cache_hits": 0, "leases": 0, "lease_expiries": 0,
            "retries": 0, "quarantined": 0, "invalid_results": 0,
            "worker_failures": 0, "duplicate_results": 0,
            "rejected_queue_full": 0, "rejected_quota": 0,
        }
        self._server = None
        self._tick_task = None
        self.port = None

    # -- lifecycle -------------------------------------------------------

    async def start(self):
        os.makedirs(self.state_dir, exist_ok=True)
        os.makedirs(self.resume_dir, exist_ok=True)
        self._restore()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._tick_task = asyncio.ensure_future(self._tick_loop())
        return self

    async def shutdown(self, drain=True):
        """Stop accepting work; optionally wait for in-flight leases,
        then snapshot the queue so a restart resumes it."""
        if self.draining:
            return
        self.draining = True
        for job in self.jobs.values():
            if not job.done:
                self._emit(job, "service-draining",
                           pending=len(job.pending))
        if drain:
            deadline = time.monotonic() + self.config.drain_grace  # repro: allow-nondeterminism[ND101] (drain grace timer)
            while (any(task.state == "leased"
                       for task in self.tasks.values())
                   and time.monotonic() < deadline):  # repro: allow-nondeterminism[ND101] (drain grace timer)
                await asyncio.sleep(self.config.tick_interval)
        self._snapshot_queue()
        if self._tick_task is not None:
            self._tick_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass

    # -- persistence -----------------------------------------------------

    def _journal(self, record):
        with open(self._journal_path, "a") as handle:  # repro: allow-async[AS301] bounded local journal append
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _snapshot_queue(self):
        """Atomically persist every unresolved task (leased ones count
        as queued: if their worker survives it may still upload a late,
        valid result; if not, the cell re-runs from its checkpoint)."""
        unresolved = {}
        for key, task in self.tasks.items():
            if task.state in ("queued", "waiting", "leased"):
                unresolved[key] = dict(
                    self.containment.saved(key),
                    cell=protocol.cell_spec(task.cell),
                    scale=task.scale_spec)
        snapshot = {"tasks": unresolved}
        tmp = self._snapshot_path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as handle:  # repro: allow-async[AS301] drain-time snapshot to local tmp file
            json.dump(snapshot, handle, sort_keys=True)
        os.replace(tmp, self._snapshot_path)

    def _ledger_by_key(self):
        """The quarantine ledger's latest entry per cache key (one read
        of the file, so a torn line warns once per caller)."""
        return {entry.get("key"): entry for entry in self.ledger.entries()
                if entry.get("key")}

    def _restore(self):
        """Rebuild jobs from the journal and tasks from the snapshot.

        The journal and ledger are read through the torn-line-tolerant
        JSONL reader, so a crash mid-append never blocks a restart.
        Cells whose results landed in the cache before the restart are
        served from it; ledger-quarantined cells stay quarantined; the
        rest requeue (with their snapshot attempt counts when a drain
        wrote one).
        """
        records = QuarantineLedger(self._journal_path).entries()
        if not records:
            return
        snapshot = {}
        try:
            with open(self._snapshot_path) as handle:  # repro: allow-async[AS301] startup restore, before serving
                snapshot = json.load(handle).get("tasks", {})
        except (OSError, ValueError):
            snapshot = {}
        try:
            os.remove(self._snapshot_path)
        except OSError:
            pass
        quarantined_by_key = self._ledger_by_key()
        done_ids = {rec["job"] for rec in records if rec.get("done")}
        for rec in records:
            if rec.get("done") or "job" not in rec or rec["job"] in self.jobs:
                continue
            try:
                scale = protocol.scale_from_spec(rec["scale"])
                cells = [protocol.cell_from_spec(spec)
                         for spec in rec["cells"]]
            except (KeyError, ValueError):
                continue  # a journal record from an incompatible version
            keys = [cache_key(cell, scale) for cell in cells]
            job = _Job(rec["job"], rec.get("client", "anonymous"), cells,
                       keys, scale, rec["scale"])
            self.jobs[job.id] = job
            seq = int(rec["job"].rsplit("-", 1)[-1]) \
                if rec["job"].rsplit("-", 1)[-1].isdigit() else 0
            self._job_seq = max(self._job_seq, seq)
            if rec["job"] in done_ids:
                job.done = True
                for key in dict.fromkeys(keys):
                    if key in quarantined_by_key:
                        job.quarantined[key] = quarantined_by_key[key]
                continue
            for cell, key in zip(cells, keys):
                if key in job.pending or key in job.quarantined:
                    continue
                if key in quarantined_by_key:
                    job.quarantined[key] = quarantined_by_key[key]
                    continue
                if self.cache.verify(key) is not None:
                    job.cached += 1
                    continue
                job.pending.add(key)
                task = self.tasks.get(key)
                if task is None:
                    saved = snapshot.get(key) or {}
                    task = self._new_task(
                        key, cell, scale, rec["scale"],
                        attempts=saved.get("attempts", 0),
                        failures=saved.get("failures", ()))
                task.jobs.add(job.id)
            self._emit(job, "service-resumed", pending=len(job.pending),
                       cached=job.cached)
            self._emit(job, "sweep-start", total=job.total,
                       cached=job.cached, pending=len(job.pending),
                       jobs=len(self.workers))
            if not job.pending:
                self._finish_job(job)

    # -- events ----------------------------------------------------------

    def _emit(self, target, event, **fields):
        if event not in _VALID_EVENTS:
            raise ValueError("unknown service event %r" % event)
        record = {"ts": round(time.time(), 3), "event": event}  # repro: allow-nondeterminism[ND101] (event timestamps)
        record.update(fields)
        target.events.append(record)

    def _emit_task(self, task, event, **fields):
        for job_id in task.jobs:
            job = self.jobs.get(job_id)
            if job is not None and not job.done:
                self._emit(job, event, **fields)

    def _broadcast(self, event, **fields):
        for job in self.jobs.values():
            if not job.done:
                self._emit(job, event, **fields)

    def _progress(self, job):
        running = sum(1 for key in job.pending
                      if self.tasks.get(key) is not None
                      and self.tasks[key].state == "leased")
        done = job.total - len(job.pending) - len(job.quarantined)
        return {"done": done, "cached": job.cached, "running": running,
                "total": job.total, "workers": len(self.workers)}

    # -- scheduling core -------------------------------------------------

    def _backlog(self):
        return sum(1 for task in self.tasks.values()
                   if task.state in ("queued", "waiting", "leased"))

    def _client_pending(self, client):
        return sum(len(job.pending) for job in self.jobs.values()
                   if job.client == client and not job.done)

    def _new_task(self, key, cell, scale, scale_spec, attempts=0,
                  failures=()):
        """Queue a fresh task, its accounting started over (or restored
        from a queue snapshot)."""
        task = self.tasks[key] = _Task(key, cell, scale, scale_spec)
        self.containment.restore(key, attempts, failures)
        self._ready.append(key)
        return task

    def _next_ready_task(self):
        while self._ready:
            key = self._ready.pop(0)
            task = self.tasks.get(key)
            if task is not None and task.state == "queued":
                return task
        return None

    def _charge_failure(self, task, description):
        """One failed attempt, charged through the containment machine:
        requeue after its backoff delay, or quarantine."""
        task.worker = None
        task.lease_deadline = None
        delay = self.containment.fail(task.key, task.cell.label,
                                      description)
        if delay is None:
            self._quarantine(task)
            return
        attempt = self.containment.attempt(task.key)
        task.state = "waiting"
        task.not_before = time.monotonic() + delay  # repro: allow-nondeterminism[ND101] (retry backoff timer)
        self.stats["retries"] += 1
        self._emit_task(task, "cell-retry", cell=task.cell.label,
                        attempt=attempt, delay_s=round(delay, 3),
                        error=description.splitlines()[0])
        self._emit_task(task, "cell-requeued", cell=task.cell.label,
                        attempt=attempt)

    def _quarantine(self, task):
        entry = self.containment.entry(
            task.key, task.cell.label,
            ledger_info(task.cell, task.key, self.resume_dir))
        self.ledger.record(entry)
        task.state = "quarantined"
        self.stats["quarantined"] += 1
        self._emit_task(task, "cell-quarantined", cell=task.cell.label,
                        attempts=entry["attempts"],
                        error=entry["failures"][-1])
        for job_id in list(task.jobs):
            job = self.jobs.get(job_id)
            if job is None or job.done:
                continue
            job.quarantined[task.key] = entry
            job.pending.discard(task.key)
            if not job.pending:
                self._finish_job(job)

    def _complete_task(self, task, resumed):
        self.containment.succeed(task.key)
        task.state = "done"
        task.worker = None
        task.lease_deadline = None
        self.stats["cells_completed"] += 1
        for job_id in list(task.jobs):
            job = self.jobs.get(job_id)
            if job is None or job.done:
                continue
            job.pending.discard(task.key)
            self._emit(job, "cell-done", cell=task.cell.label,
                       resumed=resumed, **self._progress(job))
            if not job.pending:
                self._finish_job(job)

    def _finish_job(self, job):
        job.done = True
        self.stats["jobs_done"] += 1
        self._emit(job, "sweep-done", total=job.total, cached=job.cached,
                   simulated=job.total - job.cached - len(job.quarantined),
                   quarantined=len(job.quarantined),
                   wall_s=round(time.time() - job.started, 3))  # repro: allow-nondeterminism[ND101] (job wall-clock metadata)
        self._emit(job, "job-done", job=job.id,
                   quarantined=len(job.quarantined))
        self._journal({"job": job.id, "done": True})

    async def _tick_loop(self):
        while True:
            await asyncio.sleep(self.config.tick_interval)  # repro: allow-async[AS303] wrap-around yield: each tick re-reads all state before acting
            now = time.monotonic()  # repro: allow-nondeterminism[ND101] (lease/backoff clock)
            for task in self.tasks.values():
                if (task.state == "waiting"
                        and task.not_before is not None
                        and task.not_before <= now):
                    task.state = "queued"
                    task.not_before = None
                    self._ready.append(task.key)
            for task in list(self.tasks.values()):
                if (task.state == "leased"
                        and task.lease_deadline is not None
                        and task.lease_deadline < now):
                    self._expire_lease(task)

    def _expire_lease(self, task):
        worker = task.worker
        self.stats["lease_expiries"] += 1
        self._emit_task(task, "lease-expired", cell=task.cell.label,
                        worker=worker)
        if worker in self.workers:
            del self.workers[worker]
            self._broadcast("worker-lost", worker=worker)
        self._charge_failure(
            task, "LeaseExpired: worker %s heartbeat stale for more "
            "than %.1fs" % (worker, self.config.lease_timeout))

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        try:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                await send_response(writer, 400, {"error": str(exc)})
                return
            if request is None:
                return
            try:
                await self._dispatch(request, writer)
            except BadRequest as exc:
                await send_response(writer, 400, {"error": str(exc)})
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:
            try:
                await send_response(writer, 500, {
                    "error": "%s: %s" % (type(exc).__name__, exc)})
            except Exception:
                pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request, writer):
        parts = request.parts
        if parts[:1] != ("v1",):
            await send_response(writer, 404, {"error": "unknown path"})
            return
        route = parts[1:]
        if route == ("healthz",) and request.method == "GET":
            await send_response(writer, 200, {
                "ok": True, "draining": self.draining})
        elif route == ("stats",) and request.method == "GET":
            await self._handle_stats(writer)
        elif route == ("sweeps",) and request.method == "POST":
            await self._handle_submit(request, writer)
        elif len(route) == 2 and route[0] == "sweeps" \
                and request.method == "GET":
            await self._handle_status(route[1], writer)
        elif len(route) == 3 and route[0] == "sweeps" \
                and route[2] == "events" and request.method == "GET":
            await self._handle_events(route[1], request, writer)
        elif len(route) == 3 and route[0] == "sweeps" \
                and route[2] == "result" and request.method == "GET":
            await self._handle_result(route[1], writer)
        elif route == ("workers", "register") and request.method == "POST":
            await self._handle_register(request, writer)
        elif len(route) == 3 and route[0] == "workers" \
                and route[2] == "lease" and request.method == "POST":
            await self._handle_lease(route[1], writer)
        elif len(route) == 3 and route[0] == "workers" \
                and route[2] == "heartbeat" and request.method == "POST":
            await self._handle_heartbeat(route[1], request, writer)
        elif len(route) == 3 and route[0] == "workers" \
                and route[2] == "result" and request.method == "POST":
            await self._handle_worker_result(route[1], request, writer)
        elif len(route) == 2 and route[0] == "cache" \
                and request.method == "GET":
            await self._handle_cache_object(route[1], writer)
        else:
            await send_response(writer, 404, {"error": "unknown path"})

    async def _handle_stats(self, writer):
        info = self.cache.info()
        payload = dict(self.stats)
        payload.update({
            "draining": self.draining,
            "backlog": self._backlog(),
            "queue_limit": self.config.queue_limit,
            "workers": len(self.workers),
            "jobs_running": sum(1 for job in self.jobs.values()
                                if not job.done),
            "leased": sum(1 for task in self.tasks.values()
                          if task.state == "leased"),
            "cache_entries": info.entries,
            "cache_bytes": info.bytes,
        })
        await send_response(writer, 200, payload)

    async def _handle_submit(self, request, writer):
        if self.draining:
            await send_response(
                writer, 503, {"error": "draining"},
                headers={"Retry-After": str(self.config.retry_after)})
            return
        payload = request.json()
        client = payload.get("client") or "anonymous"
        raw_scale = payload.get("scale") or {"scale": "smoke"}
        try:
            scale = protocol.scale_from_spec(raw_scale)
            cells = self._cells_from_payload(payload, scale)
        except ValueError as exc:
            await send_response(writer, 400, {"error": str(exc)})
            return
        scale_spec = protocol.scale_spec(
            raw_scale["scale"],
            **{key: raw_scale.get(key)
               for key in protocol.SCALE_OVERRIDES})
        keys = [cache_key(cell, scale) for cell in cells]
        unique = list(dict.fromkeys(zip(cells, keys)))
        new_tasks = []
        cached_cells = []
        quarantined_keys = {}
        ledger = None
        for cell, key in unique:
            task = self.tasks.get(key)
            if task is not None and task.state == "quarantined":
                # Already given up on in this daemon's lifetime: the
                # job inherits the verdict instead of burning attempts.
                if ledger is None:
                    ledger = self._ledger_by_key()
                quarantined_keys[key] = ledger.get(key, {})
            elif task is not None and task.state != "done":
                new_tasks.append((cell, key, task))
            elif self.cache.verify(key) is not None:
                cached_cells.append(cell)
            else:
                new_tasks.append((cell, key, None))
        fresh = sum(1 for _c, _k, task in new_tasks if task is None)
        if fresh > self.config.queue_limit:
            await send_response(writer, 400, {
                "error": "job needs %d queue slots but the queue holds "
                         "%d; split the grid" % (fresh,
                                                 self.config.queue_limit)})
            return
        if self._backlog() + fresh > self.config.queue_limit:
            self.stats["rejected_queue_full"] += 1
            await send_response(
                writer, 429,
                {"error": "queue-full", "backlog": self._backlog(),
                 "queue_limit": self.config.queue_limit},
                headers={"Retry-After": str(self.config.retry_after)})
            return
        pending_count = len(new_tasks)
        if (self._client_pending(client) + pending_count
                > self.config.client_quota):
            self.stats["rejected_quota"] += 1
            await send_response(
                writer, 429,
                {"error": "quota-exceeded", "client": client,
                 "client_quota": self.config.client_quota},
                headers={"Retry-After": str(self.config.retry_after)})
            return
        self._job_seq += 1
        job = _Job("job-%06d" % self._job_seq, client, cells, keys, scale,
                   scale_spec)
        self.jobs[job.id] = job
        self.stats["jobs_submitted"] += 1
        self.stats["cache_hits"] += len(cached_cells)
        job.cached = len(cached_cells)
        job.quarantined.update(quarantined_keys)
        self._journal({"job": job.id, "client": client,
                       "scale": job.scale_spec,
                       "cells": [protocol.cell_spec(cell)
                                 for cell in cells]})
        self._emit(job, "job-accepted", job=job.id, client=client,
                   total=job.total, cached=job.cached,
                   pending=pending_count)
        for cell in cached_cells:
            self._emit(job, "cell-cached", cell=cell.label)
        self._emit(job, "sweep-start", total=job.total, cached=job.cached,
                   pending=pending_count, jobs=len(self.workers))
        for cell, key, task in new_tasks:
            if task is None:
                task = self._new_task(key, cell, scale, job.scale_spec)
            task.jobs.add(job.id)
            job.pending.add(key)
        if not job.pending:
            self._finish_job(job)
        await send_response(writer, 200, {
            "job": job.id, "total": job.total, "cached": job.cached,
            "pending": pending_count, "done": job.done})

    def _cells_from_payload(self, payload, scale):
        grid = payload.get("grid")
        specs = payload.get("cells")
        if grid is not None:
            if not isinstance(grid, dict):
                raise ValueError("'grid' must be an object")
            allowed = {"workloads", "groups", "policies", "seeds",
                       "epochs", "workloads_per_group"}
            unknown = sorted(set(grid) - allowed)
            if unknown:
                raise ValueError("unknown grid field(s): %s"
                                 % ", ".join(unknown))
            # Same fallback as `repro sweep`: an omitted
            # workloads_per_group means the scale's, so the same grid
            # payload names the same cells over HTTP and locally.
            grid = dict(grid)
            if grid.get("workloads_per_group") is None:
                grid["workloads_per_group"] = scale.workloads_per_group
            try:
                cells = grid_cells(**grid)
            except KeyError as exc:
                raise ValueError(str(exc.args[0] if exc.args else exc))
        elif specs is not None:
            if not isinstance(specs, list):
                raise ValueError("'cells' must be an array")
            cells = [protocol.cell_from_spec(spec) for spec in specs]
        else:
            raise ValueError("submit needs a 'grid' or a 'cells' array")
        if not cells:
            raise ValueError("the submitted grid is empty")
        return cells

    async def _handle_status(self, job_id, writer):
        job = self.jobs.get(job_id)
        if job is None:
            await send_response(writer, 404, {"error": "unknown job"})
            return
        await send_response(writer, 200, {
            "job": job.id, "client": job.client,
            "state": "done" if job.done else "running",
            "total": job.total, "cached": job.cached,
            "pending": len(job.pending),
            "quarantined": len(job.quarantined),
            "events": len(job.events)})

    async def _handle_events(self, job_id, request, writer):
        job = self.jobs.get(job_id)
        if job is None:
            await send_response(writer, 404, {"error": "unknown job"})
            return
        try:
            offset = max(0, int(request.query.get("offset", "0")))
        except ValueError:
            await send_response(writer, 400, {"error": "bad offset"})
            return
        offset = min(offset, len(job.events))
        await start_ndjson_stream(writer)
        # Reader-driven: a slow consumer blocks only its own connection
        # (its TCP window), never the scheduler or other streams.
        # Each wake-up writes the whole backlog as one chunk.
        while True:
            while offset < len(job.events):
                backlog = job.events[offset:]
                offset += len(backlog)
                writer.write("".join(json.dumps(event) + "\n"
                                     for event in backlog).encode("utf-8"))
                await writer.drain()
            if job.done or self.draining:
                return
            await asyncio.sleep(self.config.tick_interval)

    async def _handle_result(self, job_id, writer):
        job = self.jobs.get(job_id)
        if job is None:
            await send_response(writer, 404, {"error": "unknown job"})
            return
        if not job.done:
            await send_response(writer, 409, {
                "error": "job-still-running",
                "pending": len(job.pending)})
            return
        results = []
        quarantined = {}
        evicted = []
        for cell, key in zip(job.cells, job.keys):
            if key in job.quarantined:
                results.append(None)
                quarantined[cell] = job.quarantined[key]
                continue
            result = self.cache.get(key)
            if result is None:
                evicted.append(cell.label)
            results.append(result)
        if evicted:
            # The entry was deleted, or sidelined as corrupt, after the
            # job finished: a merge would pass it off as quarantined.
            await send_response(writer, 410, {
                "error": "result-evicted",
                "cells": list(dict.fromkeys(evicted))})
            return
        text = merged_json(job.cells, results, job.scale,
                           quarantined=quarantined)
        await send_response(writer, 200, body=text)

    async def _handle_register(self, request, writer):
        payload = request.json()
        self._worker_seq += 1
        worker_id = "w-%04d" % self._worker_seq
        self.workers[worker_id] = {
            "name": payload.get("name") or worker_id,
            "last_seen": time.monotonic(),  # repro: allow-nondeterminism[ND101] (worker liveness)
            "task": None,
        }
        self._broadcast("worker-registered", worker=worker_id)
        await send_response(writer, 200, {
            "worker": worker_id,
            "lease_timeout": self.config.lease_timeout,
            "poll_interval": self.config.tick_interval})

    async def _handle_lease(self, worker_id, writer):
        entry = self.workers.get(worker_id)
        if entry is None:
            await send_response(writer, 404, {"error": "unknown worker"})
            return
        entry["last_seen"] = time.monotonic()  # repro: allow-nondeterminism[ND101] (worker liveness)
        if self.draining:
            await send_response(writer, 204,
                                headers={"X-Draining": "true"})
            return
        task = self._next_ready_task()
        if task is None:
            await send_response(writer, 204)
            return
        task.state = "leased"
        task.worker = worker_id
        task.lease_deadline = time.monotonic() + self.config.lease_timeout  # repro: allow-nondeterminism[ND101] (lease timer)
        entry["task"] = task.key
        self.stats["leases"] += 1
        attempt = self.containment.attempt(task.key)
        self._emit_task(task, "cell-leased", cell=task.cell.label,
                        worker=worker_id, attempt=attempt)
        for job_id in task.jobs:
            job = self.jobs.get(job_id)
            if job is not None and not job.done:
                self._emit(job, "cell-start", cell=task.cell.label,
                           attempt=attempt, **self._progress(job))
        await send_response(writer, 200, {
            "key": task.key,
            "cell": protocol.cell_spec(task.cell),
            "scale": task.scale_spec,
            "attempt": attempt,
            "lease_timeout": self.config.lease_timeout,
            "resume_dir": self.resume_dir,
            "solos": self._stored_solos(task)})

    def _stored_solos(self, task):
        """The task's stored SingleIPCs, one per thread (``None``:
        unknown); a lease carries them so the worker derives none it
        does not have to."""
        return [self.cache.get_solo(key)
                for key in cell_solo_keys(task.cell, task.scale)]

    def _check_solos(self, task, result):
        """Raise ``ValueError`` if an upload's SingleIPCs contradict the
        stored ones (a worker running other code than the one that
        stored them)."""
        known = self._stored_solos(task)
        single_ipcs = result.single_ipcs or []
        if len(single_ipcs) != len(known):
            raise ValueError("%d SingleIPCs for a %d-thread workload"
                             % (len(single_ipcs), len(known)))
        for thread, (stored, value) in enumerate(zip(known, single_ipcs)):
            if stored is not None and stored != value:
                raise ValueError(
                    "thread %d SingleIPC %r contradicts the stored %r"
                    % (thread, value, stored))

    async def _handle_heartbeat(self, worker_id, request, writer):
        payload = request.json()
        key = payload.get("key")
        entry = self.workers.get(worker_id)
        if entry is not None:
            entry["last_seen"] = time.monotonic()  # repro: allow-nondeterminism[ND101] (worker liveness)
        task = self.tasks.get(key)
        if (entry is None or task is None or task.state != "leased"
                or task.worker != worker_id):
            await send_response(writer, 410, {"error": "lease-lost"})
            return
        task.lease_deadline = time.monotonic() + self.config.lease_timeout  # repro: allow-nondeterminism[ND101] (lease timer)
        await send_response(writer, 200, {"ok": True})

    async def _handle_worker_result(self, worker_id, request, writer):
        payload = request.json()
        key = payload.get("key")
        task = self.tasks.get(key)
        if task is None:
            await send_response(writer, 404, {"error": "unknown task"})
            return
        entry = self.workers.get(worker_id)
        if entry is not None:
            entry["last_seen"] = time.monotonic()  # repro: allow-nondeterminism[ND101] (worker liveness)
            entry["task"] = None
        if task.state in ("done", "quarantined"):
            # A late upload from an expired lease whose cell was already
            # resolved: content addressing makes it harmless.
            self.stats["duplicate_results"] += 1
            await send_response(writer, 200, {"ok": True,
                                              "duplicate": True})
            return
        if not payload.get("ok", False):
            self.stats["worker_failures"] += 1
            self._charge_failure(task, str(payload.get("error")
                                           or "worker reported failure"))
            await send_response(writer, 200, {"ok": False,
                                              "requeued": True})
            return
        resumed = bool(payload.get("resumed", False))
        try:
            result = RunResult.from_dict(payload["result"])
            _validate_cell_value(task.cell, (result, resumed))
            self._check_solos(task, result)
        except Exception as exc:
            # The node-level analogue of a corrupt pool payload: charge
            # the attempt, never let the bytes near the cache.
            self.stats["invalid_results"] += 1
            self._charge_failure(task, "InvalidResult: %s: %s"
                                 % (type(exc).__name__, exc))
            await send_response(writer, 400, {"error": "invalid-result"})
            return
        self.cache.put(task.key, task.cell, result)
        store_solos(self.cache, task.cell, task.scale, result.single_ipcs)
        self._complete_task(task, resumed)
        await send_response(writer, 200, {"ok": True})

    async def _handle_cache_object(self, key, writer):
        """Raw cache transport: the content-addressed object for one
        key, byte-for-byte as stored (identity stays the sha256 key)."""
        path = self.cache._path(key)
        try:
            with open(path, "rb") as handle:  # repro: allow-async[AS301] local content-addressed cache read
                body = handle.read()
        except OSError:
            await send_response(writer, 404, {"error": "unknown key"})
            return
        await send_response(writer, 200, body=body)


class ServiceHandle:
    """Run a :class:`SweepService` on a background thread (tests, the
    chaos harness and the loadtest self-host path).  ``repro serve``
    instead runs the service on the main thread with signal handlers."""

    def __init__(self, config):
        self.service = SweepService(config)
        self._loop = None
        self._thread = None
        self._started = threading.Event()
        self._startup_error = None

    def start(self, timeout=10.0):
        self._loop = asyncio.new_event_loop()

        def run():
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.service.start())
            except Exception as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            self._loop.run_forever()
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens())
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service did not start within %.1fs"
                               % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def url(self):
        return "http://%s:%d" % (self.service.config.host,
                                 self.service.port)

    def stop(self, drain=True, timeout=30.0):
        if self._loop is None or self._startup_error is not None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=drain), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


__all__ = [
    "ServiceConfig",
    "ServiceHandle",
    "SweepService",
]
