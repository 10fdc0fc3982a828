"""Chaos harness for the supervised sweep engine.

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

:func:`run_chaos` is the ``python -m repro chaos`` engine: it runs a
small grid under a preset fault plan with supervision on, runs the same
grid fault-free and serial in a separate cache, and compares the two
merged-JSON documents byte for byte (surviving cells only, when the
preset quarantines by design).

This module is test harness, not simulation: nothing inside the sweep
cache's code-fingerprint closure imports it, so editing a fault model
invalidates no cached results.
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

#: ``repro chaos --preset`` choices -> one-line description.
CHAOS_PRESETS = {
    "kill-one-worker": "SIGKILL one cell's worker at epoch 2, first "
                       "attempt only; the pool break charges every "
                       "in-flight cell and the retry resumes from the "
                       "epoch-2 checkpoint",
    "kill-storm": "SIGKILL every cell's worker on every pooled attempt; "
                  "the supervisor must degrade to in-process serial "
                  "execution and still finish",
    "hang-one-cell": "one cell stops heartbeating forever; only the "
                     "cell timeout can recover it",
    "corrupt-result": "one cell returns a garbage payload on its first "
                      "attempt; validation must reject it before the "
                      "cache sees it",
    "flaky-cells": "every cell fails its first attempt and succeeds on "
                   "retry",
    "poison-cell": "one cell fails every attempt and must land in "
                   "quarantine.jsonl while the sweep completes around "
                   "it",
}


def build_plan(preset, cells, parent_pid=None):
    """(plan, expected_quarantined, default_cell_timeout) for a preset.

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
    raise ValueError("unknown chaos preset %r (valid: %s)"
                     % (preset, ", ".join(sorted(CHAOS_PRESETS))))


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def default_grid():
    """The tiny fig4-style grid chaos runs by default: the first two
    MEM2 workloads under ICOUNT and DCRA (4 cells)."""
    return {"groups": ("MEM2",), "policies": ("ICOUNT", "DCRA"),
            "workloads_per_group": 2}


def run_chaos(preset, scale, jobs=2, cell_timeout=None, max_attempts=3,
              degrade=True, keep=False, work_dir=None, grid=None,
              epochs=None, log=None):
    """Run one chaos scenario end to end; returns a report dict.

    A supervised engine runs the grid under the preset's fault plan with
    its own cache, resume dir and quarantine ledger inside a throwaway
    work directory; a second, unsupervised serial engine then produces
    the fault-free reference in a separate cache.  The report's ``ok``
    is True when the quarantine count matches the preset's expectation
    and the merged JSON is byte-identical to the reference (for presets
    that quarantine by design, every *surviving* cell record must match
    its reference record instead).
    """
    from repro.experiments.parallel import (
        SweepEngine,
        grid_cells,
        merged_document,
        merged_json,
    )

    say = log if log is not None else (lambda message: None)
    grid = dict(grid if grid is not None else default_grid())
    grid.setdefault("epochs", epochs)
    cells = grid_cells(**grid)
    plan, expected, preset_timeout = build_plan(preset, cells)
    timeout = cell_timeout if cell_timeout is not None else preset_timeout
    workdir = work_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    say("chaos preset %r: %s" % (preset, CHAOS_PRESETS[preset]))
    say("%d cells, %d jobs, work dir %s" % (len(cells), jobs, workdir))

    supervision = Supervision(
        cell_timeout=timeout, max_attempts=max_attempts, degrade=degrade,
        seed=scale.seed, retry_base_delay=0.05, retry_max_delay=1.0,
        poll_interval=0.1)
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
    chaos_doc = merged_document(cells, results, scale,
                                quarantined=engine.quarantined)

    reference = SweepEngine(scale, jobs=1,
                            cache_dir=os.path.join(workdir, "cache-ref"))
    ref_results = reference.run_cells(cells)
    ref_doc = merged_document(cells, ref_results, scale)

    if expected == 0:
        identical = (
            merged_json(cells, results, scale,
                        quarantined=engine.quarantined)
            == merged_json(cells, ref_results, scale))
    else:
        by_key = {(rec["workload"], rec["policy"], rec["seed"]): rec
                  for rec in ref_doc["cells"]}
        identical = all(
            rec == by_key.get((rec["workload"], rec["policy"], rec["seed"]))
            for rec in chaos_doc["cells"])
    quarantined = sorted(cell.label for cell in engine.quarantined)
    ok = identical and len(quarantined) == expected
    report = {
        "preset": preset,
        "cells": [cell.label for cell in cells],
        "jobs": jobs,
        "quarantined": quarantined,
        "expected_quarantined": expected,
        "identical": identical,
        "ok": ok,
        "retries": engine.supervisor_stats["retries"],
        "timeouts": engine.supervisor_stats["timeouts"],
        "pool_breaks": engine.supervisor_stats["pool_breaks"],
        "degraded": engine.supervisor_stats["degraded"],
        "resumed": engine.stats["resumed"],
        "work_dir": workdir if keep else None,
        "quarantine_path": engine.quarantine_path if keep else None,
    }
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
