"""Event-driven fast-forward core: quiescence proof + event horizon.

The reference loop executes all six pipeline stages every cycle, even when
the whole machine sits behind a long-latency memory access whose completion
time is already scheduled in the processor's event heaps.  This module lets
:meth:`~repro.pipeline.processor.SMTProcessor.run` prove such cycles are
no-ops and jump straight to the next scheduled event:

* :func:`quiescent_horizon` proves that *no* stage can change machine state
  this cycle — nothing ready to issue or complete, no committable ROB head,
  no dispatchable IFQ head, no fetch-eligible thread — and returns the
  earliest future cycle at which anything could change (the *event
  horizon*): the min of the completion/detection heap heads, the
  fetch-unblock times of otherwise-eligible threads, the policy's declared
  wake cycle, and the end of the run window (epoch boundaries cap a skip
  because ``on_epoch_end`` may reprogram the machine arbitrarily).
* :func:`apply_skip` bulk-replays the per-cycle bookkeeping the reference
  loop would have performed over the skipped stretch — cycle counters,
  commit/dispatch round-robin pointers, lock/partition-stall accounting and
  the policy's ``on_quiesce`` hook — so the two cores stay byte-identical
  (stats, checkpoints, merged sweep JSON).

Core selection is per :meth:`run` call: the ``REPRO_CORE`` environment
variable (``fast``, the default, or ``reference``) or a
process-local :class:`forced_core` override.  Nothing about the selection
is stored on the processor, so checkpoints never encode which core
produced them, and sweep cache keys are unchanged by core selection
(docs/PARALLEL.md).

The correctness argument is spelled out in docs/INTERNALS.md and enforced
by the differential harness in tests/test_core_equivalence.py.
"""

import os

__all__ = ["CORE_MODES", "core_mode", "forced_core", "quiescent_horizon",
           "apply_skip"]

#: Valid core selections: the event-driven fast path (default) and the
#: stage-every-cycle reference loop it must stay byte-identical to.
CORE_MODES = ("fast", "reference")

_forced_mode = None


def core_mode():
    """The core selection for the next ``run`` call.

    Raises :class:`ValueError` for unknown ``REPRO_CORE`` values (the CLI
    converts this into its standard one-line exit-2 error).
    """
    if _forced_mode is not None:
        return _forced_mode
    mode = os.environ.get("REPRO_CORE", "fast")
    if mode not in CORE_MODES:
        raise ValueError(
            "REPRO_CORE must be one of %s, got %r"
            % ("/".join(CORE_MODES), mode))
    return mode


class forced_core:
    """Context manager pinning the core selection for this process.

    Takes precedence over ``REPRO_CORE`` and nests (the previous override
    is restored on exit).  Used by the differential tests and the
    profiling harness, which must run the same machine under both cores
    inside one process without mutating the environment.
    """

    def __init__(self, mode):
        if mode not in CORE_MODES:
            raise ValueError(
                "core mode must be one of %s, got %r"
                % ("/".join(CORE_MODES), mode))
        self.mode = mode
        self._previous = None

    def __enter__(self):
        global _forced_mode
        self._previous = _forced_mode
        _forced_mode = self.mode
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        global _forced_mode
        _forced_mode = self._previous
        return False


def quiescent_horizon(proc, end):
    """Prove no pipeline stage can change machine state this cycle and
    return the event horizon — the earliest future cycle at which anything
    could change, capped at ``end`` — or ``None`` when the machine is (or
    may be) active.

    The proof mirrors the reference loop stage by stage (see the numbered
    correspondence in docs/INTERNALS.md):

    1. completions/detections: heap heads strictly in the future (a head
       due now is progress, even a stale one — popping it mutates the
       heap, hence the checkpoint);
    2. commit: no thread's ROB head is done;
    3. issue: the ready heap is empty (stale entries included — the
       reference loop drains them);
    4. dispatch: no thread's IFQ head passes ``_can_dispatch``;
    5. fetch: with IFQ space available, no enabled thread is
       fetch-eligible — every one is policy-locked, fetch-blocked (its
       unblock time bounds the horizon) or partition-limited;
    6. policy: ``quiescent_wake`` is in the future (or ``None``).
    """
    if proc._ready:
        return None
    cycle = proc.cycle
    horizon = end
    completions = proc._completions
    if completions:
        when = completions[0][0]
        if when <= cycle:
            return None
        if when < horizon:
            horizon = when
    detections = proc._detections
    if detections:
        when = detections[0][0]
        if when <= cycle:
            return None
        if when < horizon:
            horizon = when
    threads = proc.threads
    for thread in threads:
        rob = thread.rob
        if rob and rob[0].done:
            return None
    if proc.ifq_total:
        can_dispatch = proc._can_dispatch
        for thread in threads:
            ifq = thread.ifq
            if ifq and can_dispatch(thread, ifq[0]):
                return None
    if proc.ifq_total < proc.config.ifq_size:
        # Mirrors _fetch_eligible: the lock check precedes the block check
        # precedes the partition check, and only this IFQ-space branch
        # charges any accounting (apply_skip replays it identically).
        enabled = proc.enabled
        partitions = proc.partitions
        for thread in threads:
            tid = thread.tid
            if tid not in enabled or thread.policy_locked:
                continue
            blocked_until = thread.fetch_blocked_until
            if cycle < blocked_until:
                if blocked_until < horizon:
                    horizon = blocked_until
                continue
            if (thread.ren_int >= partitions.limit_int_rename[tid]
                    or thread.iq_int >= partitions.limit_int_iq[tid]
                    or len(thread.rob) >= partitions.limit_rob[tid]):
                continue
            return None  # fetch-eligible: the front end would make progress
    wake = proc.policy.quiescent_wake(proc)
    if wake is not None:
        if wake <= cycle:
            return None
        if wake < horizon:
            horizon = wake
    if horizon <= cycle:
        return None
    return horizon


def apply_skip(proc, horizon):
    """Jump a proven-quiescent machine from ``proc.cycle`` to ``horizon``,
    bulk-replaying exactly what the reference loop mutates across a
    quiescent stretch; returns the number of cycles skipped.

    Per skipped cycle the reference loop would have: advanced the commit
    round-robin pointer (iff the ROB holds anything), advanced the
    dispatch pointer (iff the IFQ holds anything), charged one
    ``lock_cycles``/``partition_stall_cycles`` tick per enabled
    locked/partition-limited thread (iff the IFQ has space — a full IFQ
    short-circuits ``_do_fetch`` before any accounting), run the policy's
    ``on_cycle`` (replayed via ``on_quiesce``) and counted the cycle.
    """
    cycle = proc.cycle
    skipped = horizon - cycle
    num = proc.num_threads
    if proc.rob_total:
        proc._commit_rr = (proc._commit_rr + skipped) % num
    if proc.ifq_total:
        proc._dispatch_rr = (proc._dispatch_rr + skipped) % num
    stats = proc.stats
    if proc.ifq_total < proc.config.ifq_size:
        enabled = proc.enabled
        lock_cycles = stats.lock_cycles
        partition_stall_cycles = stats.partition_stall_cycles
        for thread in proc.threads:
            tid = thread.tid
            if tid not in enabled:
                continue
            if thread.policy_locked:
                lock_cycles[tid] += skipped
                continue
            if cycle < thread.fetch_blocked_until:
                continue
            # Not locked, not blocked, yet quiescent_horizon proved the
            # thread ineligible: it is partition-limited every skipped
            # cycle (partitions cannot change during quiescence).
            partition_stall_cycles[tid] += skipped
    proc.policy.on_quiesce(proc, cycle, skipped)
    proc.cycle = horizon
    stats.cycles += skipped
    return skipped
