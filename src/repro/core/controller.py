"""The epoch loop.

SMT execution is divided into fixed-size epochs (Section 3.1.1, default
64K cycles).  Each epoch the controller:

1. asks the policy whether this should be a *solo* epoch (the Section 4.2
   SingleIPC sampling scheme) and restricts fetch accordingly;
2. runs the processor for one epoch;
3. computes per-thread IPCs from the committed-instruction counters; and
4. hands the policy an :class:`EpochResult` so learning policies can update
   the partition registers.

Solo epochs count toward total cycles and committed instructions — the
sampling cost is charged, as in the paper.
"""

from dataclasses import dataclass, field

DEFAULT_EPOCH_SIZE = 64 * 1024


@dataclass
class EpochResult:
    """Performance feedback for one completed epoch."""

    epoch_id: int
    kind: str                      # "normal" or "solo"
    committed: list                # per-thread committed instructions
    cycles: int                    # cycles charged to the epoch
    ipcs: list = field(default_factory=list)
    #: Integer-rename shares in force during the epoch (None: unpartitioned).
    shares: list = None
    #: Thread measured during a solo epoch.
    solo_thread: int = None

    def __post_init__(self):
        if not self.ipcs:
            cycles = max(self.cycles, 1)
            self.ipcs = [count / cycles for count in self.committed]


class EpochController:
    """Drives one processor through a sequence of epochs.

    Parameters
    ----------
    proc:
        The :class:`~repro.pipeline.processor.SMTProcessor` (with its policy
        already attached).
    epoch_size:
        Epoch length in cycles (the paper uses 64K).
    checker:
        Optional :class:`~repro.reliability.invariants.InvariantChecker`
        (duck-typed: ``before_epoch(controller, proc)`` /
        ``after_epoch(controller, proc, result)``); raises
        :class:`~repro.reliability.invariants.InvariantViolation` on the
        first broken invariant.
    injector:
        Optional :class:`~repro.reliability.faults.FaultInjector`
        (duck-typed: ``before_epoch(proc, epoch_id)``) perturbing the
        machine at epoch boundaries.
    sanitize_partitions:
        When True, illegal partition-register state (out-of-range,
        non-conserving, or malformed — e.g. from a misbehaving policy) is
        clamped and re-normalized at epoch boundaries instead of crashing
        or silently corrupting the run; repairs land in :attr:`repairs`.
    """

    def __init__(self, proc, epoch_size=DEFAULT_EPOCH_SIZE, checker=None,
                 injector=None, sanitize_partitions=False):
        if epoch_size <= 0:
            raise ValueError("epoch_size must be positive")
        self.proc = proc
        self.epoch_size = epoch_size
        self.checker = checker
        self.injector = injector
        self.sanitize_partitions = sanitize_partitions
        #: (epoch_id, stage, description) per partition repair performed.
        self.repairs = []
        self.epoch_id = 0
        self.history = []
        # Whole-run accounting baseline.  Computed from the processor's
        # cumulative stats (not by summing epoch deltas) so cycles charged
        # by ``charge_stall`` inside ``on_epoch_end`` — the hill climber's
        # software cost — are not lost between epochs.
        self._start_stats = proc.stats.copy()

    def _maybe_sanitize(self, stage):
        if not self.sanitize_partitions:
            return
        repair = self.proc.partitions.sanitize()
        if repair is not None:
            self.repairs.append((self.epoch_id, stage, repair))

    def begin_epoch(self):
        """Everything :meth:`run_epoch` does *before* the processor window:
        fault injection, sanitize, invariant pre-check, the policy's epoch
        plan and the solo-fetch restriction.  A separate method so a span
        tracer (perfbench/tracer.py) can attribute controller work apart
        from the processor window.  Returns ``(solo_thread, before_stats)``
        to hand back to :meth:`finish_epoch`."""
        proc = self.proc
        if self.injector is not None:
            self.injector.before_epoch(proc, self.epoch_id)
        self._maybe_sanitize("pre-epoch")
        if self.checker is not None:
            self.checker.before_epoch(self, proc)
        solo_thread = proc.policy.plan_epoch(proc, self.epoch_id)
        if solo_thread is not None:
            proc.set_enabled({solo_thread})
        return solo_thread, proc.stats.copy()

    def finish_epoch(self, solo_thread, before):
        """Everything :meth:`run_epoch` does *after* the processor window:
        delta accounting, the policy's feedback hook, sanitize, invariant
        post-check, history.  Counterpart of :meth:`begin_epoch`."""
        proc = self.proc
        committed, cycles = proc.stats.delta_since(before)
        shares = proc.partitions.shares
        result = EpochResult(
            epoch_id=self.epoch_id,
            kind="solo" if solo_thread is not None else "normal",
            committed=committed,
            cycles=cycles,
            shares=None if shares is None else list(shares),
            solo_thread=solo_thread,
        )
        if solo_thread is not None:
            proc.enable_all()
        proc.policy.on_epoch_end(proc, result)
        self._maybe_sanitize("post-policy")
        if self.checker is not None:
            self.checker.after_epoch(self, proc, result)
        self.history.append(result)
        self.epoch_id += 1
        return result

    def run_epoch(self):
        """Execute one epoch and return its :class:`EpochResult`."""
        solo_thread, before = self.begin_epoch()
        self.proc.run(self.epoch_size)
        return self.finish_epoch(solo_thread, before)

    def run(self, num_epochs):
        """Execute ``num_epochs`` epochs; returns their results."""
        return [self.run_epoch() for __ in range(num_epochs)]

    # -- aggregate accounting ------------------------------------------------

    def totals(self):
        """Whole-run per-thread committed counts and total cycles, including
        any learning-overhead stall cycles charged between epochs."""
        return self.proc.stats.delta_since(self._start_stats)

    def overall_ipcs(self):
        """Whole-run per-thread IPCs (solo/sampling epochs included, so
        learning overhead is charged)."""
        committed, cycles = self.totals()
        if cycles == 0:
            return [0.0] * self.proc.num_threads
        return [count / cycles for count in committed]
