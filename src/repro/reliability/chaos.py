"""The chaos harness: faults may cost a sweep time, never bytes.

The supervisor's whole value proposition is a *negative* claim — no
single worker death, hang, or garbage payload changes a sweep's merged
results — and negative claims need adversarial tests.  This module
injects configurable faults into sweep workers and asserts convergence:

* :class:`KillWorker` — SIGKILL the worker at a known epoch (after that
  epoch's checkpoint), the classic OOM-killer / preempted-node failure;
* :class:`HangCell` — stop touching the heartbeat and sleep, so only
  the supervisor's ``cell_timeout`` can recover the cell;
* :class:`CorruptResult` — replace the result payload with garbage, the
  failure a validating supervisor must catch *before* caching;
* :class:`FlakyCell` — raise on the first attempt, succeed after, the
  transient-infrastructure case retries exist for;
* :class:`PoisonCell` — fail every attempt, forcing quarantine;
* :class:`BootstrapCrash` — fail while *constructing* the cell, the
  deterministic error class that must abort instead of retry.

Faults are keyed by (cell label, attempt), so the plan needs no shared
state: a retried attempt simply no longer matches.  Kill/hang faults
fire only inside worker processes (``os.getpid() != parent_pid``) —
never in the parent, never in the supervisor's degraded in-process
path, and never under ``jobs=1``.

:func:`run_chaos` is the ``python -m repro chaos`` engine for both
tiers.  One preset table (:data:`CHAOS_PRESETS`) names each scenario's
tier: ``pool`` presets run a small grid through the supervised sweep
engine under a :class:`ChaosPlan`; ``service`` presets hand the same
grid to a live daemon and its worker fleet
(:func:`repro.service.chaos.service_faults`, imported only when such a
preset runs).  Either way the harness then runs the grid fault-free and
serial in a separate cache and compares the two merged-JSON documents
byte for byte (surviving cells only, when the preset quarantines by
design).

This module is test harness, not simulation: no code a sweep cell runs
imports it, so it stays outside the determinism linter's scope.  Like
any package source it is hashed into the code fingerprint, so editing a
fault model invalidates every cached result.
"""

import json
import os
import shutil
import signal
import tempfile
import time

from repro.reliability.supervisor import CellBootstrapError, Supervision


class ChaosFlake(RuntimeError):
    """A transient injected failure (healthy on the next attempt)."""


class ChaosPoison(RuntimeError):
    """A persistent injected failure (every attempt fails)."""


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------


class ChaosFault:
    """Base fault: matches a set of cell labels (None = every cell) and
    attempt numbers (None = every attempt); subclasses override one of
    the three hook points."""

    def __init__(self, labels=None, attempts=(1,)):
        self.labels = tuple(labels) if labels is not None else None
        self.attempts = tuple(attempts) if attempts is not None else None

    def matches(self, cell, attempt):
        if self.labels is not None and cell.label not in self.labels:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True

    def before_cell(self, plan, cell, attempt):
        """Runs before the cell is constructed."""

    def on_epoch(self, plan, cell, attempt, epoch_id):
        """Runs after each completed epoch (post checkpoint/manifest)."""

    def transform_result(self, plan, cell, attempt, result):
        """May replace the worker's result payload."""
        return result


class KillWorker(ChaosFault):
    """SIGKILL the worker process after epoch ``at_epoch`` completes —
    the checkpoint for that epoch is already on disk, so a resumed retry
    continues exactly there."""

    def __init__(self, labels=None, attempts=(1,), at_epoch=2):
        super().__init__(labels, attempts)
        self.at_epoch = at_epoch

    def on_epoch(self, plan, cell, attempt, epoch_id):
        if (self.matches(cell, attempt) and epoch_id == self.at_epoch
                and plan.in_worker()):
            os.kill(os.getpid(), signal.SIGKILL)


class HangCell(ChaosFault):
    """Sleep inside the epoch hook without touching the heartbeat — to
    the supervisor the cell is indistinguishable from a deadlock, and
    only ``cell_timeout`` can recover it.  ``hang_seconds`` is a safety
    valve: if nothing kills the worker by then, the hang turns into a
    :class:`ChaosFlake` instead of wedging the test suite."""

    def __init__(self, labels=None, attempts=(1,), at_epoch=1,
                 hang_seconds=120.0):
        super().__init__(labels, attempts)
        self.at_epoch = at_epoch
        self.hang_seconds = hang_seconds

    def on_epoch(self, plan, cell, attempt, epoch_id):
        if not (self.matches(cell, attempt) and epoch_id == self.at_epoch
                and plan.in_worker()):
            return
        deadline = time.monotonic() + self.hang_seconds
        while time.monotonic() < deadline:
            time.sleep(0.1)
        raise ChaosFlake("hang safety valve expired after %.0fs"
                         % self.hang_seconds)


class CorruptResult(ChaosFault):
    """Replace the worker's return payload with a string of garbage."""

    def transform_result(self, plan, cell, attempt, result):
        if self.matches(cell, attempt):
            return "chaos:corrupt-payload"
        return result


class FlakyCell(ChaosFault):
    """Raise before the cell is constructed (transient by default:
    attempt 1 only)."""

    def before_cell(self, plan, cell, attempt):
        if self.matches(cell, attempt):
            raise ChaosFlake("injected transient failure (attempt %d)"
                             % attempt)


class PoisonCell(ChaosFault):
    """Raise on *every* attempt: the cell must end up quarantined."""

    def __init__(self, labels=None, attempts=None):
        super().__init__(labels, attempts)

    def before_cell(self, plan, cell, attempt):
        if self.matches(cell, attempt):
            raise ChaosPoison("injected persistent failure (attempt %d)"
                              % attempt)


class BootstrapCrash(ChaosFault):
    """Raise the supervisor's fatal bootstrap error: deterministic,
    must abort the sweep rather than burn retries."""

    def before_cell(self, plan, cell, attempt):
        if self.matches(cell, attempt):
            raise CellBootstrapError(
                "injected bootstrap failure for %s" % cell.label)


class ChaosPlan:
    """A picklable bundle of faults handed to supervised workers.

    Records the parent (supervisor) pid at construction; process-killing
    faults consult :meth:`in_worker` so they can never take down the
    parent — in particular the degraded in-process serial path runs the
    same plan safely.
    """

    def __init__(self, faults, parent_pid=None):
        self.faults = tuple(faults)
        self.parent_pid = parent_pid if parent_pid is not None \
            else os.getpid()

    def in_worker(self):
        return os.getpid() != self.parent_pid

    def before_cell(self, cell, attempt):
        for fault in self.faults:
            fault.before_cell(self, cell, attempt)

    def on_epoch(self, cell, attempt, epoch_id):
        for fault in self.faults:
            fault.on_epoch(self, cell, attempt, epoch_id)

    def transform_result(self, cell, attempt, result):
        for fault in self.faults:
            result = fault.transform_result(self, cell, attempt, result)
        return result




# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: ``repro chaos --preset`` choices -> (tier, one-line description).
#: ``pool`` presets inject the faults above into the sweep supervisor's
#: workers; ``service`` presets abuse a live daemon and its worker fleet
#: (:mod:`repro.service.chaos`).
CHAOS_PRESETS = {
    "kill-one-worker": ("pool", "SIGKILL one cell's worker at epoch 2, "
                        "first attempt only; the pool break charges "
                        "every in-flight cell and the retry resumes "
                        "from the epoch-2 checkpoint"),
    "kill-storm": ("pool", "SIGKILL every cell's worker on every pooled "
                   "attempt; the supervisor must degrade to in-process "
                   "serial execution and still finish"),
    "hang-one-cell": ("pool", "one cell stops heartbeating forever; only "
                      "the cell timeout can recover it"),
    "corrupt-result": ("pool", "one cell returns a garbage payload on its "
                       "first attempt; validation must reject it before "
                       "the cache sees it"),
    "flaky-cells": ("pool", "every cell fails its first attempt and "
                    "succeeds on retry"),
    "poison-cell": ("pool", "one cell fails every attempt and must land "
                    "in quarantine.jsonl while the sweep completes "
                    "around it"),
    "kill-worker": ("service", "SIGKILL one of two workers mid-sweep; its "
                    "lease expires, the cells requeue and the survivor "
                    "finishes the job"),
    "worker-storm": ("service", "three rounds of spawning a two-worker "
                     "fleet and SIGKILLing it; a final clean fleet must "
                     "still converge within the attempt budget"),
    "slow-client": ("service", "an event-stream consumer reading one byte "
                    "at a time must only stall its own connection, "
                    "never the daemon or the sweep"),
    "queue-flood": ("service", "per-cell jobs against a queue_limit=2 "
                    "daemon; clients must be throttled with 429 + "
                    "Retry-After and converge by obeying it"),
    "split-result": ("service", "a worker uploads a torn result payload "
                     "first; validation charges the attempt and the "
                     "retry upload lands cleanly"),
}


def build_plan(preset, cells, parent_pid=None):
    """(plan, expected_quarantined, default_cell_timeout) for a pool
    preset.

    Single-victim presets target the first cell label in sorted order —
    a deterministic choice so reruns inject identically.
    """
    labels = sorted(cell.label for cell in cells)
    if not labels:
        raise ValueError("chaos needs at least one cell")
    target = (labels[0],)
    if preset == "kill-one-worker":
        return (ChaosPlan([KillWorker(target, attempts=(1,), at_epoch=2)],
                          parent_pid), 0, None)
    if preset == "kill-storm":
        return (ChaosPlan([KillWorker(None, attempts=None, at_epoch=1)],
                          parent_pid), 0, None)
    if preset == "hang-one-cell":
        return (ChaosPlan([HangCell(target, attempts=(1,), at_epoch=1)],
                          parent_pid), 0, 10.0)
    if preset == "corrupt-result":
        return (ChaosPlan([CorruptResult(target, attempts=(1,))],
                          parent_pid), 0, None)
    if preset == "flaky-cells":
        return (ChaosPlan([FlakyCell(None, attempts=(1,))],
                          parent_pid), 0, None)
    if preset == "poison-cell":
        return (ChaosPlan([PoisonCell(target)], parent_pid), 1, None)
    raise ValueError("not a pool chaos preset: %r" % (preset,))


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def default_grid():
    """The tiny fig4-style grid chaos runs by default: the first two
    MEM2 workloads under ICOUNT and DCRA (4 cells)."""
    return {"groups": ("MEM2",), "policies": ("ICOUNT", "DCRA"),
            "workloads_per_group": 2}


def _pool_faults(preset, scale, cells, workdir, say, jobs, cell_timeout,
                 max_attempts, degrade):
    """The pool tier: a supervised :class:`SweepEngine` runs the cells
    under the preset's :class:`ChaosPlan`.  Returns the runner outcome
    :func:`run_chaos` expects (see :func:`repro.service.chaos.
    service_faults` for the other tier)."""
    from repro.experiments.parallel import SweepEngine, merged_json

    plan, expected, preset_timeout = build_plan(preset, cells)
    supervision = Supervision(
        cell_timeout=cell_timeout if cell_timeout is not None
        else preset_timeout,
        max_attempts=max_attempts, degrade=degrade, seed=scale.seed,
        retry_base_delay=0.05, retry_max_delay=1.0, poll_interval=0.1)
    say("%d cells, %d jobs, work dir %s" % (len(cells), jobs, workdir))
    engine = SweepEngine(
        scale, jobs=jobs, cache_dir=os.path.join(workdir, "cache-chaos"),
        events_path=os.path.join(workdir, "events.jsonl"),
        resume_dir=os.path.join(workdir, "resume"),
        supervision=supervision, fault_plan=plan,
        on_event=lambda record: say("event: %s" % json.dumps(record))
        if record.get("event") in ("cell-retry", "cell-timeout",
                                   "cell-quarantined", "pool-broken",
                                   "pool-rebuilt", "sweep-degraded")
        else None)
    results = engine.run_cells(cells)
    return {
        "text": merged_json(cells, results, scale,
                            quarantined=engine.quarantined),
        "expected_quarantined": expected,
        "evidence": True,
        "quarantine_path": engine.quarantine_path,
        "counters": dict(jobs=jobs, **engine.supervisor_stats,
                         resumed=engine.stats["resumed"]),
    }


def _record_id(record):
    return (record["workload"], record["policy"], record["seed"])


def run_chaos(preset, scale, jobs=2, cell_timeout=None, max_attempts=3,
              degrade=True, keep=False, work_dir=None, grid=None,
              epochs=None, log=None):
    """Run one chaos scenario of either tier; returns a report dict.

    The preset's tier runner executes the grid under its faults inside a
    throwaway work directory and hands back the merged JSON; a fail-fast
    serial engine then produces the fault-free reference in a separate
    cache.  The report's ``ok`` is True when the quarantine matches the
    preset's expectation, the tier's evidence that the fault fired
    holds, and the merged JSON is byte-identical to the reference (for
    presets that quarantine by design, every *surviving* cell record
    must match its reference record instead).  ``jobs``,
    ``cell_timeout``, ``max_attempts`` and ``degrade`` configure the
    pool tier's supervisor; service presets configure their own daemon.
    """
    from repro.experiments.parallel import SweepEngine, grid_cells, \
        merged_json

    if preset not in CHAOS_PRESETS:
        raise ValueError("unknown chaos preset %r (valid: %s)"
                         % (preset, ", ".join(sorted(CHAOS_PRESETS))))
    tier, description = CHAOS_PRESETS[preset]
    say = log if log is not None else (lambda message: None)
    grid = dict(grid if grid is not None else default_grid())
    grid.setdefault("epochs", epochs)
    cells = grid_cells(**grid)
    workdir = work_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    say("chaos preset %r (%s tier): %s" % (preset, tier, description))
    if tier == "pool":
        outcome = _pool_faults(preset, scale, cells, workdir, say, jobs,
                               cell_timeout, max_attempts, degrade)
    else:
        from repro.service.chaos import service_faults

        outcome = service_faults(preset, scale, cells, grid, workdir, say)

    say("simulating the fault-free serial reference")
    reference = SweepEngine(scale, jobs=1,
                            cache_dir=os.path.join(workdir, "cache-ref"))
    ref_text = merged_json(cells, reference.run_cells(cells), scale)
    text = outcome["text"]
    doc = json.loads(text)
    expected = outcome["expected_quarantined"]
    if expected == 0:
        identical = text == ref_text
    else:
        by_id = {_record_id(record): record
                 for record in json.loads(ref_text)["cells"]}
        identical = all(record == by_id.get(_record_id(record))
                        for record in doc["cells"])
    quarantined = sorted("%s/%s/s%d" % _record_id(record)
                         for record in doc["quarantined"])
    counters = outcome["counters"]
    report = dict(
        counters,
        preset=preset,
        tier=tier,
        cells=[cell.label for cell in cells],
        counters=list(counters),
        quarantined=quarantined,
        expected_quarantined=expected,
        identical=identical,
        ok=(identical and outcome["evidence"]
            and len(quarantined) == expected),
        work_dir=workdir if keep else None,
        quarantine_path=outcome["quarantine_path"] if keep else None,
    )
    if not keep and work_dir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


__all__ = [
    "BootstrapCrash",
    "CHAOS_PRESETS",
    "ChaosFault",
    "ChaosFlake",
    "ChaosPlan",
    "ChaosPoison",
    "CorruptResult",
    "FlakyCell",
    "HangCell",
    "KillWorker",
    "PoisonCell",
    "build_plan",
    "default_grid",
    "run_chaos",
]
