"""Supervised execution of independent sweep cells.

Every cell :class:`~repro.experiments.parallel.SweepEngine` cannot serve
from its cache runs through :class:`CellSupervisor` — in process at
``jobs=1``, over a process pool otherwise.  It is the only layer of a
local sweep that retries a cell; each failure is charged as one attempt
and reported (``cell-retry``, or ``cell-quarantined`` once attempts run
out):

* **heartbeat timeouts** — each supervised cell touches a per-cell
  heartbeat file every completed epoch (the ``on_epoch`` hook of
  :func:`~repro.experiments.runner.run_policy`); a cell whose
  heartbeat goes stale for longer than ``cell_timeout`` seconds is
  declared hung, distinguishing slow-but-alive cells from dead ones;
* **retry with deterministic backoff** — failed/timed-out cells are
  retried up to ``max_attempts`` times with exponential backoff whose
  jitter derives from sha256 of (seed, cell key, attempt), so reruns
  schedule identically;
* **pool rebuild** — a :class:`BrokenProcessPool` (worker SIGKILLed, OOM
  kill) tears the pool down, charges one attempt to every in-flight cell
  (the executor cannot attribute guilt), and rebuilds;
* **quarantine** — a cell that exhausts ``max_attempts`` lands in an
  append-only ``quarantine.jsonl`` ledger (cell key, attempts, last
  traceback, partial-checkpoint path) and the sweep *continues*;
* **graceful degrade** — after ``degrade_after_breaks`` consecutive
  pool collapses with no completed cell in between, remaining cells run
  in-process serially (disable with ``degrade=False``).

The failure rule itself is the pure :class:`Containment` machine,
shared with the ``repro serve`` daemon's leases.  An engine given no
:class:`Supervision` runs under :data:`FAIL_FAST`: the first failed
cell raises.

The module is deliberately stdlib-only: it sits inside the sweep cache's
code-fingerprint closure (``_CORE_SOURCES``), and importing simulation
modules from here would widen every cell's fingerprint.  All policy about
*what* a cell is lives in the callbacks the engine provides.

Determinism note: supervision changes how results are *produced*, never
what they are — a retry starts the cell over, or resumes it from its
last checkpoint under a resume dir, which gives the same bytes; completed
cells are validated then cached the same way on every path, and a fault-free
supervised sweep is byte-identical to a fail-fast one (proved by
``repro chaos``; see docs/RELIABILITY.md "Sweep supervision").
"""

import hashlib
import heapq
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)

#: The complete sweep event-name schema.  Every JSONL progress event a
#: sweep can emit — from :class:`~repro.experiments.parallel.SweepEngine`
#: (lifecycle), from :class:`CellSupervisor` (containment), or replayed
#: per job by the service tier's streamer — carries one of these names.
#: The table lives here, at the bottom of the import graph, because the
#: engine imports the supervisor and the service tier imports both; all
#: three emit paths validate against it, the CLI progress renderer keys
#: its dispatch table on it, and a drift test pins docs/PARALLEL.md to
#: exactly this set.  Service-*specific* events (job/worker lifecycle)
#: live in :data:`repro.service.protocol.SERVICE_EVENTS` — this module
#: must stay inside ``_CORE_SOURCES`` without dragging the service tier
#: into every cell's code fingerprint.
SWEEP_EVENTS = (
    # SweepEngine lifecycle
    "sweep-start",
    "cell-cached",
    "cell-start",
    "cell-done",
    "sweep-done",
    # CellSupervisor containment
    "cell-retry",
    "cell-timeout",
    "cell-quarantined",
    "pool-broken",
    "pool-rebuilt",
    "sweep-degraded",
)


class SupervisorError(Exception):
    """Base class for structured failures of a supervised sweep."""


class CellBootstrapError(SupervisorError):
    """A worker could not even *construct* its cell (unimportable policy,
    broken workload registry inside the child).  Deterministic and fatal:
    retrying cannot help, so the sweep aborts with this error."""


class CellResultError(SupervisorError):
    """A worker returned a payload that fails validation (wrong type,
    non-finite metrics, chaos-corrupted bytes).  Retryable."""


class SweepAborted(SupervisorError):
    """The supervisor could not make progress and degrade was disabled."""


# ----------------------------------------------------------------------
# Deterministic backoff
# ----------------------------------------------------------------------


def deterministic_jitter(seed, key, attempt):
    """A reproducible fraction in [0, 1) from (seed, cell key, attempt).

    sha256 instead of ``random.Random`` keeps the retry schedule out of
    the determinism lint's RNG rules and makes reruns schedule-identical
    by construction.
    """
    blob = ("%s:%s:%d" % (seed, key, attempt)).encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return word / 2.0 ** 64


def backoff_delay(attempt, base, cap, seed, key):
    """Exponential backoff for retry ``attempt`` (1-based): ``base *
    2**(attempt-1)`` capped at ``cap``, scaled by a deterministic jitter
    factor in [0.5, 1.5)."""
    if attempt < 1:
        raise ValueError("attempt is 1-based, got %d" % attempt)
    if base <= 0:
        return 0.0
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    return delay * (0.5 + deterministic_jitter(seed, key, attempt))


# ----------------------------------------------------------------------
# Quarantine ledger
# ----------------------------------------------------------------------


class QuarantineLedger:
    """Append-only JSONL ledger of cells given up on.

    One object per line; tolerant of a torn or corrupt line (a kill
    mid-append loses at most that record): bad lines are skipped with a
    one-line stderr warning instead of raising, so a crashed sweep's
    ledger still reads back everywhere it is consumed — the supervisor's
    retry accounting, the merged JSON "quarantined" section, and the
    service tier's restart path.  The sweep engine records the cell key,
    attempt count, last traceback and partial-checkpoint path, so a
    quarantined cell can be diagnosed and re-run by hand.
    """

    def __init__(self, path):
        self.path = path

    def record(self, entry):
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def entries(self):
        if not os.path.exists(self.path):
            return []
        records = []
        with open(self.path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    print("warning: skipping corrupt quarantine-ledger "
                          "line %d in %s (torn write from a crash "
                          "mid-append?)" % (lineno, self.path),
                          file=sys.stderr)
        return records


# ----------------------------------------------------------------------
# The containment machine
# ----------------------------------------------------------------------


class Containment:
    """The failure rule :class:`CellSupervisor` and the ``repro serve``
    daemon share: charge an attempt, back off deterministically,
    quarantine after ``max_attempts`` — pure, I/O-free bookkeeping the
    two adapters consult while keeping their own scheduling and I/O.

    Keys are any hashable identity (a sweep cell, a cache key); the
    ``name`` passed with them (the cell label) seeds the jitter and
    labels the ledger record.  The four parameters are validated here
    and nowhere else.
    """

    def __init__(self, max_attempts=3, retry_base_delay=0.5,
                 retry_max_delay=30.0, seed=0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_base_delay < 0 or retry_max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        self.max_attempts = max_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.seed = seed
        self.attempts = {}   # key -> failed attempts so far
        self.failures = {}   # key -> failure descriptions, oldest first
        self.resolved = {}   # key -> "done" | "quarantined"

    def attempt(self, key):
        """The 1-based number of ``key``'s next attempt."""
        return self.attempts.get(key, 0) + 1

    def fail(self, key, name, description):
        """Charge ``key`` one failed attempt: returns the backoff delay
        (seconds) before its retry, or ``None`` once ``max_attempts``
        are used up and the key is quarantined (record: :meth:`entry`).
        """
        if key in self.resolved:
            raise ValueError("cannot charge %r: already %s"
                             % (key, self.resolved[key]))
        attempts = self.attempts[key] = self.attempts.get(key, 0) + 1
        self.failures.setdefault(key, []).append(description)
        if attempts >= self.max_attempts:
            self.resolved[key] = "quarantined"
            return None
        return backoff_delay(attempts, self.retry_base_delay,
                             self.retry_max_delay, self.seed, name)

    def succeed(self, key):
        """Mark ``key`` done; it can no longer be charged."""
        self.resolved[key] = "done"

    def entry(self, key, name, info=None):
        """The quarantine-ledger record of ``key``: cell label, attempt
        count, first line of every failure, the full last error and a
        wall-clock stamp, plus the adapter's static ``info`` fields."""
        failures = self.failures.get(key, [])
        entry = {
            "cell": name,
            "attempts": self.attempts.get(key, 0),
            "failures": [line.splitlines()[0] for line in failures],
            "last_error": failures[-1] if failures else "",
            "quarantined_at": round(time.time(), 3),  # repro: allow-nondeterminism[ND101] (ledger timestamp, not results)
        }
        entry.update(info or {})
        return entry

    def saved(self, key):
        """What a restart needs to resume ``key``'s accounting."""
        return {"attempts": self.attempts.get(key, 0),
                "failures": list(self.failures.get(key, []))}

    def restore(self, key, attempts=0, failures=()):
        """Start ``key`` over from saved accounting (:meth:`saved`);
        the defaults start it fresh."""
        self.attempts[key] = int(attempts)
        self.failures[key] = list(failures)
        self.resolved.pop(key, None)


# ----------------------------------------------------------------------
# Supervision policy
# ----------------------------------------------------------------------


class Supervision:
    """Configuration of the cell supervisor.

    Parameters
    ----------
    cell_timeout:
        Seconds a cell's heartbeat may go stale before it is declared
        hung and its worker killed.  ``None`` (default) disables timeout
        detection — crashes and bad payloads are still contained.
    max_attempts:
        Attempts per cell before quarantine (>= 1).
    retry_base_delay / retry_max_delay:
        Exponential backoff parameters, seconds.
    degrade:
        Fall back to in-process serial execution when the pool keeps
        collapsing; ``False`` raises :class:`SweepAborted` instead.
    seed:
        Seeds the deterministic backoff jitter.
    poll_interval:
        Supervisor wake-up period, seconds (future wait + heartbeat
        scan).
    degrade_after_breaks:
        Consecutive pool collapses, with no cell completed in between,
        that trigger the degrade path.
    """

    def __init__(self, cell_timeout=None, max_attempts=3,
                 retry_base_delay=0.5, retry_max_delay=30.0, degrade=True,
                 seed=0, poll_interval=0.2, degrade_after_breaks=2):
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive or None")
        # The containment machine validates the retry parameters.
        Containment(max_attempts, retry_base_delay, retry_max_delay, seed)
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if degrade_after_breaks < 1:
            raise ValueError("degrade_after_breaks must be >= 1")
        self.cell_timeout = cell_timeout
        self.max_attempts = max_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.degrade = degrade
        self.seed = seed
        self.poll_interval = poll_interval
        self.degrade_after_breaks = degrade_after_breaks


#: What a ``SweepEngine`` given no supervision runs under: one attempt,
#: no degrade, and the first failed cell raises :class:`SupervisorError`
#: instead of being quarantined.
FAIL_FAST = Supervision(max_attempts=1, degrade=False)


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


def _describe_error(exc):
    """One-line-ish description of a failure, with the remote traceback
    text the pool attaches to worker exceptions when available."""
    text = "%s: %s" % (type(exc).__name__, exc)
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        text = "%s\n%s" % (text, cause)
    return text


def touch_heartbeat(path):
    """Create-or-touch one heartbeat file; never raises (a full disk must
    not turn a healthy cell into a 'hung' one mid-run)."""
    try:
        with open(path, "a"):
            pass
        os.utime(path, None)
    except OSError:
        pass


class CellSupervisor:
    """Runs independent tasks to completion under timeouts, retries,
    pool rebuilds and quarantine.

    The supervisor knows nothing about simulations; the engine supplies:

    ``worker``
        Picklable top-level function executed per task.
    ``task_args(item, attempt)``
        Positional argument tuple for one attempt (1-based) of ``item``.
    ``item_label(item)``
        Stable string label: names the item in events and the ledger
        and seeds its backoff jitter.
    ``heartbeat_path(item)``
        Heartbeat file for ``item``, or ``None`` to skip timeout
        tracking for it.
    ``validate(item, value)``
        Raises :class:`CellResultError` on a bad payload; runs *before*
        the value is accepted, so corrupt results never reach a cache.
    ``on_result(item, value, running)``
        Called once per completed item, in completion order.
    ``emit(event, **fields)``
        Progress event sink (``cell-start``, ``cell-retry``,
        ``cell-timeout``, ``cell-quarantined``, ``pool-broken``,
        ``pool-rebuilt``, ``sweep-degraded``).
    ``ledger`` / ``ledger_info(item)``
        Optional :class:`QuarantineLedger` plus static per-item fields
        (cell key, checkpoint path) merged into each quarantine record.

    Failures are charged through a :class:`Containment` machine; the
    supervisor keeps its retry heap, events, ledger write, heartbeat
    scan and pool loop.  Under :data:`FAIL_FAST` an item out of
    attempts raises :class:`SupervisorError` instead of quarantining.

    After :meth:`run`: ``quarantined`` maps given-up items to their
    ledger entries; ``attempts``, ``retries``, ``timeouts``,
    ``pool_breaks`` and ``degraded`` describe the execution.
    """

    def __init__(self, worker, task_args, jobs, config, item_label=str,
                 heartbeat_path=None, validate=None, on_result=None,
                 emit=None, ledger=None, ledger_info=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.worker = worker
        self.task_args = task_args
        self.jobs = jobs
        self.config = config
        self.item_label = item_label
        self.heartbeat_path = heartbeat_path
        self.validate = validate
        self.on_result = on_result
        self.emit = emit
        self.ledger = ledger
        self.ledger_info = ledger_info
        self.quarantined = {}
        self.containment = Containment(
            config.max_attempts, config.retry_base_delay,
            config.retry_max_delay, config.seed)
        self.retries = 0
        self.timeouts = 0
        self.pool_breaks = 0
        self.degraded = False
        self._pool = None
        self._workers = jobs
        self._breaks_in_a_row = 0
        self._seq = 0

    # -- small helpers ---------------------------------------------------

    def _emit(self, event, **fields):
        if event not in SWEEP_EVENTS:
            raise ValueError("unknown sweep event %r (valid: %s)"
                             % (event, ", ".join(SWEEP_EVENTS)))
        if self.emit is not None:
            self.emit(event, **fields)

    @property
    def attempts(self):
        """{item: failed attempts so far}."""
        return self.containment.attempts

    def _heartbeat_age(self, item, now_wall):
        if self.heartbeat_path is None:
            return 0.0
        try:
            return now_wall - os.stat(self.heartbeat_path(item)).st_mtime
        except OSError:
            return 0.0  # no file yet: the submit-time touch races mkdir

    # -- failure accounting ---------------------------------------------

    def _record_failure(self, item, description, waiting):
        """Charge one failed attempt; schedule a retry or quarantine."""
        delay = self.containment.fail(item, self.item_label(item),
                                      description)
        if delay is None:
            self._quarantine(item)
            return
        self.retries += 1
        self._emit("cell-retry", cell=self.item_label(item),
                   attempt=self.containment.attempt(item),
                   delay_s=round(delay, 3),
                   error=description.splitlines()[0])
        self._seq += 1
        heapq.heappush(
            waiting, (time.monotonic() + delay, self._seq, item))  # repro: allow-nondeterminism[ND101] (retry scheduling, not results)

    def _quarantine(self, item):
        entry = self.containment.entry(
            item, self.item_label(item),
            self.ledger_info(item) if self.ledger_info else None)
        if self.config is FAIL_FAST:
            raise SupervisorError("cell %s failed: %s"
                                  % (entry["cell"], entry["last_error"]))
        if self.ledger is not None:
            self.ledger.record(entry)
        self.quarantined[item] = entry
        self._emit("cell-quarantined", cell=self.item_label(item),
                   attempts=entry["attempts"], error=entry["failures"][-1])

    def _complete(self, item, value, results, running):
        results[item] = value
        self.containment.succeed(item)
        self._breaks_in_a_row = 0
        if self.on_result is not None:
            self.on_result(item, value, running)

    # -- pool lifecycle --------------------------------------------------

    def _open_pool(self, remaining, rebuild):
        workers = max(1, min(self.jobs, remaining))
        try:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        except Exception as exc:
            self._enter_degraded("cannot %s process pool: %s"
                                 % ("rebuild" if rebuild else "build", exc))
            return
        self._workers = workers
        if rebuild:
            self._emit("pool-rebuilt", workers=workers)

    def _close_pool(self, kill):
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _enter_degraded(self, reason):
        if not self.config.degrade:
            raise SweepAborted(
                "%s; degrade-to-serial disabled (--no-degrade)" % reason)
        self.degraded = True
        self._emit("sweep-degraded", reason=reason)

    # -- entry point -----------------------------------------------------

    def run(self, items):
        """Run every item; returns {item: value} for the completed ones
        (quarantined items are absent — inspect ``quarantined``)."""
        items = list(items)
        results = {}
        try:
            if self.jobs == 1 or len(items) <= 1:
                self._run_serial(items, results)
            else:
                self._run_pool(items, results)
        except BaseException:
            self._close_pool(kill=True)  # an aborted run leaves no workers
            raise
        self._close_pool(kill=False)
        return results

    # -- serial (jobs=1 and the degrade path) ----------------------------

    def _remaining(self, items, results):
        return [item for item in items
                if item not in results and item not in self.quarantined]

    def _run_serial(self, items, results):
        queue = deque(self._remaining(items, results))
        waiting = []
        while queue or waiting:
            if not queue:
                delay = waiting[0][0] - time.monotonic()  # repro: allow-nondeterminism[ND101] (retry scheduling, not results)
                if delay > 0:
                    time.sleep(delay)
            now = time.monotonic()  # repro: allow-nondeterminism[ND101] (retry scheduling, not results)
            while waiting and waiting[0][0] <= now:
                queue.append(heapq.heappop(waiting)[2])
            if not queue:
                continue
            item = queue.popleft()
            attempt = self.containment.attempt(item)
            self._emit("cell-start", cell=self.item_label(item),
                       attempt=attempt, running=1)
            try:
                value = self.worker(*self.task_args(item, attempt))
                if self.validate is not None:
                    self.validate(item, value)
            except (KeyboardInterrupt, SystemExit, CellBootstrapError):
                raise
            except Exception as exc:
                self._record_failure(item, _describe_error(exc), waiting)
                continue
            self._complete(item, value, results, running=len(queue))

    # -- pooled ----------------------------------------------------------

    def _run_pool(self, items, results):
        ready = deque(items)
        waiting = []   # heap of (due, seq, item)
        inflight = {}  # future -> item, insertion == submission order
        while ready or waiting or inflight:
            if self.degraded:
                self._run_serial(items, results)
                return
            now = time.monotonic()  # repro: allow-nondeterminism[ND101] (retry scheduling, not results)
            while waiting and waiting[0][0] <= now:
                ready.append(heapq.heappop(waiting)[2])
            if self._pool is None and (ready or inflight):
                remaining = len(ready) + len(waiting) + len(inflight)
                self._open_pool(remaining, rebuild=self.pool_breaks > 0)
                if self.degraded:
                    continue
            self._launch(ready, inflight)
            if not inflight:
                if waiting:
                    pause = min(self.config.poll_interval,
                                max(0.0, waiting[0][0] - time.monotonic()))  # repro: allow-nondeterminism[ND101] (retry scheduling, not results)
                    time.sleep(pause)
                continue
            done, __ = wait(list(inflight), timeout=self.config.poll_interval,
                            return_when=FIRST_COMPLETED)
            broken = self._collect(done, inflight, waiting, results)
            if broken:
                self._handle_pool_break(inflight, waiting)
            elif self.config.cell_timeout is not None and inflight:
                self._reap_hung_cells(inflight, ready, waiting)

    def _launch(self, ready, inflight):
        while ready and len(inflight) < self._workers and self._pool is not None:
            item = ready.popleft()
            attempt = self.containment.attempt(item)
            if self.heartbeat_path is not None:
                touch_heartbeat(self.heartbeat_path(item))
            try:
                future = self._pool.submit(
                    self.worker, *self.task_args(item, attempt))
            except (BrokenExecutor, RuntimeError):
                ready.appendleft(item)
                self._close_pool(kill=False)
                return
            inflight[future] = item
            self._emit("cell-start", cell=self.item_label(item),
                       attempt=attempt, running=len(inflight))

    def _collect(self, done, inflight, waiting, results):
        """Process finished futures; returns True when the pool broke."""
        broken = False
        for future in done:
            item = inflight.pop(future, None)
            if item is None:
                continue  # abandoned future from a killed pool generation
            try:
                value = future.result()
                if self.validate is not None:
                    self.validate(item, value)
            except (KeyboardInterrupt, SystemExit, CellBootstrapError):
                raise
            except Exception as exc:
                # A broken executor cannot say which cell's worker died,
                # so every in-flight cell is charged one attempt (see
                # _handle_pool_break for the ones wait() didn't return).
                broken = broken or isinstance(exc, BrokenExecutor)
                self._record_failure(item, _describe_error(exc), waiting)
            else:
                self._complete(item, value, results, running=len(inflight))
        return broken

    def _handle_pool_break(self, inflight, waiting):
        self.pool_breaks += 1
        self._breaks_in_a_row += 1
        for future, item in list(inflight.items()):
            self._record_failure(
                item, "BrokenProcessPool: a worker died while this cell "
                "was in flight", waiting)
        inflight.clear()
        self._close_pool(kill=False)
        self._emit("pool-broken", breaks=self.pool_breaks)
        if self._breaks_in_a_row >= self.config.degrade_after_breaks:
            self._enter_degraded(
                "process pool collapsed %d times without completing a cell"
                % self._breaks_in_a_row)

    def _reap_hung_cells(self, inflight, ready, waiting):
        now_wall = time.time()  # repro: allow-nondeterminism[ND101] (heartbeat staleness, not results)
        stale = [item for item in inflight.values()
                 if self._heartbeat_age(item, now_wall)
                 > self.config.cell_timeout]
        if not stale:
            return
        # A hung worker cannot be cancelled, only killed — which takes
        # the whole pool generation with it.  Unlike an external break,
        # guilt is attributable: only the stale cells are charged; the
        # collateral in-flight cells requeue at the front uncharged.
        self.timeouts += len(stale)
        self._close_pool(kill=True)
        stale_set = set(stale)
        collateral = [item for item in inflight.values()
                      if item not in stale_set]
        inflight.clear()
        for item in stale:
            self._emit("cell-timeout", cell=self.item_label(item),
                       attempt=self.containment.attempt(item),
                       timeout_s=self.config.cell_timeout)
            self._record_failure(
                item, "CellTimeout: heartbeat stale for more than %.1fs"
                % self.config.cell_timeout, waiting)
        ready.extendleft(reversed(collateral))


__all__ = [
    "CellBootstrapError",
    "CellResultError",
    "CellSupervisor",
    "Containment",
    "FAIL_FAST",
    "QuarantineLedger",
    "SWEEP_EVENTS",
    "Supervision",
    "SupervisorError",
    "SweepAborted",
    "backoff_delay",
    "deterministic_jitter",
    "touch_heartbeat",
]
