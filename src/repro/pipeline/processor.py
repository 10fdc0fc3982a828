"""The cycle-level SMT out-of-order processor (Figure 3 of the paper).

Pipeline per cycle, back to front so freed entries become available the
same cycle: complete -> commit -> issue -> dispatch/rename -> fetch.

Mechanisms modelled:

* **Shared structures with per-thread occupancy counters** — IFQ (shared
  capacity, per-thread queues), integer/FP issue queues, integer/FP rename
  pools, LSQ, shared ROB.
* **Partition registers + fetch-lock** — a thread at its partition limit in
  any partitioned structure cannot fetch (and its dispatch blocks), exactly
  the enforcement described in Section 3.2.
* **ICOUNT-style fetch arbitration** — the attached policy orders eligible
  threads each cycle; up to ``fetch_threads`` threads share the fetch width.
* **Branch prediction and squash** — hybrid gshare/bimodal + BTB + RAS;
  mispredicts squash younger instructions at resolve and charge a redirect
  penalty; squashed instructions are re-fetched from a replay queue (the
  usual trace-driven approximation of wrong-path execution).
* **Cache hierarchy** — loads probe DL1/UL2/memory at issue; L2-missing
  loads can cluster, which is the memory-level parallelism the paper's
  learning exploits.  Policies can subscribe to L2-miss *detection* events
  (used by FLUSH/STALL).
* **Checkpointing** — the whole processor state (including stream RNGs) is
  picklable; see :mod:`repro.pipeline.checkpoint`.
"""

from collections import deque
from heapq import heappop, heappush

from repro.pipeline.fastpath import apply_skip, core_mode, quiescent_horizon
from repro.branch.btb import BranchTargetBuffer
from repro.branch.hybrid import HybridPredictor
from repro.branch.ras import ReturnAddressStack
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.resources import PartitionRegisters
from repro.pipeline.stats import SMTStats
from repro.workloads.generator import OpClass, SyntheticStream

_INT_PRODUCERS = frozenset((OpClass.IALU, OpClass.IMUL, OpClass.LOAD, OpClass.CALL))
_FP_PRODUCERS = frozenset((OpClass.FADD, OpClass.FMUL))

# Hot-path op constants: one global load instead of two dict lookups per
# ``OpClass.X`` reference inside the per-instruction stage bodies.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN
_IMUL = OpClass.IMUL


class _ThreadState:
    """Per-hardware-context state."""

    __slots__ = (
        "tid", "stream", "ras", "refetch", "ifq", "rob", "inflight",
        "iq_int", "iq_fp", "ren_int", "ren_fp", "lsq",
        "fetch_blocked_until", "policy_locked", "outstanding_l1",
        "outstanding_l2", "last_fetch_block", "arch_call_depth",
    )

    def __init__(self, tid, stream, ras_depth):
        self.tid = tid
        self.stream = stream
        self.ras = ReturnAddressStack(ras_depth)
        self.refetch = deque()   # squashed instructions awaiting re-fetch
        self.ifq = deque()
        self.rob = deque()       # dispatched, uncommitted, program order
        self.inflight = {}       # seq -> Instruction, dispatched & uncommitted
        self.iq_int = 0
        self.iq_fp = 0
        self.ren_int = 0
        self.ren_fp = 0
        self.lsq = 0
        self.fetch_blocked_until = 0
        self.policy_locked = False
        self.outstanding_l1 = 0  # issued loads past DL1, not yet complete
        self.outstanding_l2 = 0  # issued loads gone to memory, not yet complete
        self.last_fetch_block = -1
        self.arch_call_depth = 0

    @property
    def icount(self):
        """Front-end occupancy used by ICOUNT fetch priority."""
        return len(self.ifq) + self.iq_int + self.iq_fp


class SMTProcessor:
    """Cycle-level SMT processor executing synthetic benchmark streams.

    Parameters
    ----------
    config:
        :class:`~repro.pipeline.config.SMTConfig` machine description.
    profiles:
        One :class:`~repro.workloads.profile.BenchmarkProfile` per hardware
        context.
    seed:
        Workload reproducibility seed.
    phase_period:
        Optional per-stream phase period override (instructions).
    policy:
        A :class:`~repro.policies.base.ResourcePolicy`; defaults to plain
        ICOUNT fetch with no partitioning.
    warm_caches:
        Pre-touch each thread's cache-resident regions into the hierarchy
        at construction.  This stands in for the paper's fast-forwarding
        (billions of instructions) — without it the L2 keeps warming for
        hundreds of thousands of cycles and every measurement rides a
        cold-start drift.  Disable for cold-start studies.
    """

    def __init__(self, config, profiles, seed=0, phase_period=None, policy=None,
                 warm_caches=True, streams=None):
        if not profiles:
            raise ValueError("need at least one benchmark profile")
        self.config = config
        self.num_threads = len(profiles)
        if streams is None:
            streams = [
                SyntheticStream(profile, thread_id=tid, seed=seed,
                                phase_period=phase_period)
                for tid, profile in enumerate(profiles)
            ]
        elif len(streams) != len(profiles):
            raise ValueError("need one stream per profile")
        self.threads = [
            _ThreadState(tid, stream, config.ras_depth)
            for tid, stream in enumerate(streams)
        ]
        self.enabled = set(range(self.num_threads))
        self.partitions = PartitionRegisters(config, self.num_threads)
        self.stats = SMTStats(self.num_threads)
        # Per-context predictor state: sharing one global-history register
        # between threads destroys gshare correlation (measured ~4x the
        # solo mispredict rate), so each hardware context gets private
        # predictor tables, as sim-ssmt does.
        self.predictors = [
            HybridPredictor(config.bp_gshare_entries, config.bp_bimodal_entries,
                            config.bp_meta_entries)
            for __ in range(self.num_threads)
        ]
        self.btbs = [
            BranchTargetBuffer(config.btb_entries, config.btb_assoc)
            for __ in range(self.num_threads)
        ]
        self.hierarchy = MemoryHierarchy(
            il1=Cache("IL1", config.il1.size_bytes, config.il1.block_bytes,
                      config.il1.assoc, config.il1.latency),
            dl1=Cache("DL1", config.dl1.size_bytes, config.dl1.block_bytes,
                      config.dl1.assoc, config.dl1.latency),
            ul2=Cache("UL2", config.ul2.size_bytes, config.ul2.block_bytes,
                      config.ul2.assoc, config.ul2.latency),
            mem_latency=config.mem_latency,
        )
        self.cycle = 0
        # Shared-structure totals (global capacity enforcement).
        self.ifq_total = 0
        self.iq_int_total = 0
        self.iq_fp_total = 0
        self.ren_int_total = 0
        self.ren_fp_total = 0
        self.lsq_total = 0
        self.rob_total = 0
        # Event state.
        self._ready = []        # (order, instr, gen): dispatched, operands ready
        self._completions = []  # (cycle, order, instr, gen)
        self._detections = []   # (cycle, order, instr, gen): L2-miss detect
        self._order = 0
        self._commit_rr = 0
        self._dispatch_rr = 0
        self._detect_latency = config.dl1.latency + config.ul2.latency
        # Completion latency by op class for everything whose latency is
        # static (loads consult the hierarchy instead); saves the config
        # attribute-chain walk per issued instruction.
        self._op_latency = {
            OpClass.IALU: config.lat_int_alu,
            OpClass.IMUL: config.lat_int_mul,
            OpClass.FADD: config.lat_fp_add,
            OpClass.FMUL: config.lat_fp_mul,
            OpClass.STORE: config.lat_store,
            OpClass.BRANCH: config.lat_branch,
            OpClass.CALL: config.lat_branch,
            OpClass.RETURN: config.lat_branch,
        }
        #: Optional BBV collector (set by phase-aware policies); receives
        #: every committed control-flow instruction's PC.
        self.bbv = None
        #: Optional :class:`~repro.pipeline.trace.PipelineTracer` for
        #: per-instruction stage traces (debugging aid; None = off).
        self.trace = None
        if warm_caches:
            self._warm_caches(profiles)
        # Policy.
        if policy is None:
            from repro.policies.icount import ICountPolicy
            policy = ICountPolicy()
        self.policy = policy
        policy.attach(self)

    def _warm_caches(self, profiles):
        """Pre-touch per-thread resident regions so measurement starts from
        cache steady state (the fast-forward substitute).

        Touch order is chosen for the LRU outcome a long-running mix would
        reach: L2-resident regions first (they should live in the UL2 but
        be LRU in the DL1), then the hot L1 regions and code footprints
        (MRU everywhere).  Threads interleave region-by-region so neither
        thread's lines monopolise recency.  Cache hit/miss statistics are
        reset afterwards.
        """
        hierarchy = self.hierarchy
        block = self.config.dl1.block_bytes
        for region_attr, toucher in (
            ("l2_region", hierarchy.load),
            ("l1_region", hierarchy.load),
        ):
            for thread, profile in zip(self.threads, profiles):
                base = getattr(thread.stream, "_base",
                               thread.tid << 36)
                offset = 0x1000_0000 if region_attr == "l2_region" else 0
                for addr in range(base + offset,
                                  base + offset + getattr(profile, region_attr),
                                  block):
                    toucher(addr)
        for thread, profile in zip(self.threads, profiles):
            base = getattr(thread.stream, "_base", thread.tid << 36)
            for addr in range(base + 0x4000_0000,
                              base + 0x4000_0000 + profile.code_footprint,
                              block):
                hierarchy.ifetch(addr)
            # Branch-site code blocks.
            for addr in range(base + 0x4800_0000,
                              base + 0x4800_0000 + profile.branch_sites * 4,
                              block):
                hierarchy.ifetch(addr)
        for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.ul2):
            cache.stats.accesses = 0
            cache.stats.misses = 0

    # ------------------------------------------------------------------
    # Public control surface
    # ------------------------------------------------------------------

    def run(self, num_cycles):
        """Advance the machine by ``num_cycles`` cycles.

        Two byte-identical cores can execute the window: the
        event-driven fast path (default), which proves quiescent
        stretches and jumps them, and the stage-every-cycle reference
        loop (``REPRO_CORE=reference``).  Selection is read per call and
        never stored, so checkpoints and sweep cache keys are
        core-agnostic; see
        :mod:`repro.pipeline.fastpath` and docs/INTERNALS.md.
        """
        end = self.cycle + num_cycles
        if core_mode() == "reference":
            self._run_reference(end)
        else:
            self._run_fast(end)

    def _run_reference(self, end):
        """The trusted baseline: all six stages, every cycle."""
        policy = self.policy
        stats = self.stats
        while self.cycle < end:
            cycle = self.cycle
            self._do_completions(cycle)
            if self._detections:
                self._do_detections(cycle)
            self._do_commit()
            self._do_issue(cycle)
            self._do_dispatch()
            self._do_fetch(cycle)
            policy.on_cycle(self)
            self.cycle = cycle + 1
            stats.cycles += 1

    def _run_fast(self, end):
        """Event-driven core: per-stage early-outs on dense cycles, event-
        horizon jumps over proven-quiescent stretches.

        The cheap pre-gate (empty ready heap, no event head due) bounds
        the quiescence-proof overhead on dense phases; the per-stage
        guards replicate each stage's own first early-return, saving the
        call.  The heaps are hoisted as locals — they are only ever
        mutated in place during a run (``charge_stall`` rebinds them, but
        cannot run inside a window).
        """
        policy = self.policy
        stats = self.stats
        ready = self._ready
        completions = self._completions
        detections = self._detections
        while self.cycle < end:
            cycle = self.cycle
            if not ready \
                    and (not completions or completions[0][0] > cycle) \
                    and (not detections or detections[0][0] > cycle):
                horizon = quiescent_horizon(self, end)
                if horizon is not None:
                    apply_skip(self, horizon)
                    continue
            if completions and completions[0][0] <= cycle:
                self._do_completions(cycle)
            if detections and detections[0][0] <= cycle:
                self._do_detections(cycle)
            if self.rob_total:
                self._do_commit()
            if ready:
                self._do_issue(cycle)
            if self.ifq_total:
                self._do_dispatch()
            self._do_fetch(cycle)
            policy.on_cycle(self)
            self.cycle = cycle + 1
            stats.cycles += 1

    def charge_stall(self, num_cycles):
        """Freeze the whole machine for ``num_cycles`` (the paper charges a
        200-cycle full-machine stall per hill-climbing invocation).

        All pending event times and fetch blocks shift forward so no work
        completes "for free" during the stall.
        """
        if num_cycles <= 0:
            return
        self.cycle += num_cycles
        self.stats.cycles += num_cycles
        self._completions = [
            (when + num_cycles, order, instr, gen)
            for when, order, instr, gen in self._completions
        ]
        self._detections = [
            (when + num_cycles, order, instr, gen)
            for when, order, instr, gen in self._detections
        ]
        for thread in self.threads:
            if thread.fetch_blocked_until > self.cycle - num_cycles:
                thread.fetch_blocked_until += num_cycles

    def set_enabled(self, thread_ids):
        """Restrict fetch/dispatch to the given hardware contexts (used for
        the SingleIPC sampling epochs); others drain and sit idle."""
        thread_ids = set(thread_ids)
        unknown = thread_ids - set(range(self.num_threads))
        if unknown:
            raise ValueError("unknown thread ids: %r" % (sorted(unknown),))
        self.enabled = thread_ids

    def enable_all(self):
        self.enabled = set(range(self.num_threads))

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def _do_completions(self, cycle):
        completions = self._completions
        complete = self._complete
        while completions and completions[0][0] <= cycle:
            __, __, instr, gen = heappop(completions)
            if instr.gen != gen or instr.squashed:
                continue
            complete(cycle, instr)

    def _complete(self, cycle, instr):
        instr.done = True
        if self.trace is not None:
            self.trace.note("C", cycle, instr)
        thread = self.threads[instr.thread]
        dependents = instr.dependents
        if dependents:
            ready = self._ready
            for consumer, gen in dependents:
                if consumer.gen != gen or consumer.squashed or consumer.done:
                    continue
                consumer.remaining_srcs -= 1
                if consumer.remaining_srcs == 0 and not consumer.issued:
                    heappush(ready, (consumer.order, consumer, consumer.gen))
            instr.dependents = []
        op = instr.op
        if op == _LOAD:
            level = instr.mem_level
            if level is not None and level != "L1":
                thread.outstanding_l1 -= 1
                if level == "MEM":
                    thread.outstanding_l2 -= 1
            self.policy.on_load_complete(self, instr)
        elif op == _BRANCH:
            self.stats.branches[instr.thread] += 1
            if instr.prediction is not None:
                self.predictors[instr.thread].update(
                    instr.pc, instr.taken, instr.prediction)
            if instr.taken:
                self.btbs[instr.thread].insert(instr.pc, instr.pc + 64)
            if instr.mispredicted:
                self._recover_mispredict(cycle, instr)
        elif instr.mispredicted:  # mispredicted return
            self._recover_mispredict(cycle, instr)

    def _recover_mispredict(self, cycle, instr):
        thread = self.threads[instr.thread]
        self.stats.mispredicts[instr.thread] += 1
        if instr.prediction is not None:
            history = (instr.prediction.history_at_predict << 1) | int(instr.taken)
            self.predictors[instr.thread].repair_history(history)
        self.squash_after(instr.thread, instr.seq)
        resume = cycle + self.config.mispredict_penalty
        if resume > thread.fetch_blocked_until:
            thread.fetch_blocked_until = resume

    def _do_detections(self, cycle):
        detections = self._detections
        while detections and detections[0][0] <= cycle:
            __, __, instr, gen = heappop(detections)
            if instr.gen != gen or instr.squashed or instr.done:
                continue
            self.policy.on_l2_miss_detected(self, instr)

    def _do_commit(self):
        if self.rob_total == 0:
            return
        budget = self.config.commit_width
        threads = self.threads
        num = self.num_threads
        start = self._commit_rr
        self._commit_rr = (start + 1) % num
        committed = self.stats.committed
        bbv = self.bbv
        trace = self.trace
        ctrl_ops = OpClass.CTRL_OPS
        progress = True
        while budget > 0 and progress:
            progress = False
            for offset in range(num):
                thread = threads[(start + offset) % num]
                rob = thread.rob
                if not (rob and rob[0].done):
                    continue
                tid = thread.tid
                inflight_pop = thread.inflight.pop
                rob_popleft = rob.popleft
                while budget > 0 and rob and rob[0].done:
                    instr = rob_popleft()
                    inflight_pop(instr.seq, None)
                    # _release_back_end inlined (the commit loop retires
                    # every instruction); keep in sync with the method,
                    # which the squash path still uses.
                    if instr.uses_int_rename:
                        thread.ren_int -= 1
                        self.ren_int_total -= 1
                    elif instr.uses_fp_rename:
                        thread.ren_fp -= 1
                        self.ren_fp_total -= 1
                    if instr.uses_lsq:
                        thread.lsq -= 1
                        self.lsq_total -= 1
                    self.rob_total -= 1
                    committed[tid] += 1
                    if bbv is not None and instr.op in ctrl_ops:
                        bbv.note(tid, instr.pc)
                    if trace is not None:
                        trace.note("R", self.cycle, instr)
                    budget -= 1
                    progress = True

    def _release_back_end(self, thread, instr):
        """Release rename/LSQ/ROB entries held until commit (or squash)."""
        if instr.uses_int_rename:
            thread.ren_int -= 1
            self.ren_int_total -= 1
        elif instr.uses_fp_rename:
            thread.ren_fp -= 1
            self.ren_fp_total -= 1
        if instr.uses_lsq:
            thread.lsq -= 1
            self.lsq_total -= 1
        self.rob_total -= 1

    def _do_issue(self, cycle):
        ready = self._ready
        if not ready:
            return
        config = self.config
        budget = config.issue_width
        alu = config.fu_int_alu
        mul = config.fu_int_mul
        mem = config.fu_mem_port
        fadd = config.fu_fp_add
        fmul = config.fu_fp_mul
        stash = []
        issue_one = self._issue_one
        while ready and budget > 0:
            order, instr, gen = heappop(ready)
            if instr.gen != gen or instr.squashed or instr.issued:
                continue
            op = instr.op
            if op == _LOAD or op == _STORE:
                if mem == 0:
                    stash.append((order, instr, gen))
                    continue
                mem -= 1
            elif op == _IMUL:
                if mul == 0:
                    stash.append((order, instr, gen))
                    continue
                mul -= 1
            elif op == OpClass.FADD:
                if fadd == 0:
                    stash.append((order, instr, gen))
                    continue
                fadd -= 1
            elif op == OpClass.FMUL:
                if fmul == 0:
                    stash.append((order, instr, gen))
                    continue
                fmul -= 1
            else:  # IALU and control ops share the integer ALUs
                if alu == 0:
                    stash.append((order, instr, gen))
                    continue
                alu -= 1
            issue_one(cycle, instr)
            budget -= 1
        for entry in stash:
            heappush(ready, entry)

    def _issue_one(self, cycle, instr):
        thread = self.threads[instr.thread]
        instr.issued = True
        if self.trace is not None:
            self.trace.note("I", cycle, instr)
        op = instr.op
        if instr.is_fp:
            thread.iq_fp -= 1
            self.iq_fp_total -= 1
        else:
            thread.iq_int -= 1
            self.iq_int_total -= 1
        if op == _LOAD:
            result = self.hierarchy.load(instr.addr, cycle)
            latency = result.latency
            instr.mem_level = result.level
            stats = self.stats
            stats.loads[instr.thread] += 1
            if result.missed_l1:
                thread.outstanding_l1 += 1
            if result.missed_l2:
                thread.outstanding_l2 += 1
                stats.l2_misses[instr.thread] += 1
                if self.policy.wants_miss_detection:
                    heappush(
                        self._detections,
                        (cycle + self._detect_latency, instr.order, instr, instr.gen),
                    )
        elif op == _STORE:
            self.hierarchy.store(instr.addr, cycle)
            latency = self._op_latency[op]
        else:
            latency = self._op_latency[op]
        heappush(
            self._completions, (cycle + latency, instr.order, instr, instr.gen)
        )

    def _can_dispatch(self, thread, instr):
        """Capacity + partition admission check for one instruction."""
        config = self.config
        partitions = self.partitions
        tid = thread.tid
        if self.rob_total >= config.rob_size:
            return False
        if len(thread.rob) >= partitions.limit_rob[tid]:
            return False
        op = instr.op
        if instr.is_fp:
            if self.iq_fp_total >= config.iq_fp_size:
                return False
            if self.ren_fp_total >= config.rename_fp:
                return False
        else:
            if self.iq_int_total >= config.iq_int_size:
                return False
            if thread.iq_int >= partitions.limit_int_iq[tid]:
                return False
            if op in _INT_PRODUCERS:
                if self.ren_int_total >= config.rename_int:
                    return False
                if thread.ren_int >= partitions.limit_int_rename[tid]:
                    return False
        if op == _LOAD or op == _STORE:
            if self.lsq_total >= config.lsq_size:
                return False
        return True

    def _do_dispatch(self):
        if self.ifq_total == 0:
            return
        budget = self.config.dispatch_width
        threads = self.threads
        num = self.num_threads
        start = self._dispatch_rr
        self._dispatch_rr = (start + 1) % num
        can_dispatch = self._can_dispatch
        dispatch_one = self._dispatch_one
        for offset in range(num):
            if budget == 0:
                break
            thread = threads[(start + offset) % num]
            # Disabled threads still drain their IFQ; an empty IFQ makes
            # the enabled check (and the dispatch loop) moot either way.
            ifq = thread.ifq
            if not ifq:
                continue
            while budget > 0 and ifq:
                instr = ifq[0]
                if not can_dispatch(thread, instr):
                    break
                ifq.popleft()
                self.ifq_total -= 1
                dispatch_one(thread, instr)
                budget -= 1

    def _dispatch_one(self, thread, instr):
        if self.trace is not None:
            self.trace.note("D", self.cycle, instr)
        instr.dispatched = True
        order = self._order
        instr.order = order
        self._order = order + 1
        instr.dependents = []
        op = instr.op
        if instr.is_fp:
            thread.iq_fp += 1
            self.iq_fp_total += 1
            instr.uses_fp_rename = True
            thread.ren_fp += 1
            self.ren_fp_total += 1
        else:
            thread.iq_int += 1
            self.iq_int_total += 1
            if op in _INT_PRODUCERS:
                instr.uses_int_rename = True
                thread.ren_int += 1
                self.ren_int_total += 1
        if op == _LOAD or op == _STORE:
            instr.uses_lsq = True
            thread.lsq += 1
            self.lsq_total += 1
        thread.rob.append(instr)
        self.rob_total += 1
        inflight = thread.inflight
        inflight[instr.seq] = instr
        remaining = 0
        inflight_get = inflight.get
        for src in instr.srcs:
            producer = inflight_get(src)
            if producer is not None and not producer.done and producer is not instr:
                producer.dependents.append((instr, instr.gen))
                remaining += 1
        instr.remaining_srcs = remaining
        if remaining == 0:
            heappush(self._ready, (order, instr, instr.gen))

    def _fetch_eligible(self, cycle):
        """Threads allowed to fetch this cycle, with partition-stall and
        lock-cycle accounting."""
        eligible = []
        partitions = self.partitions
        stats = self.stats
        enabled = self.enabled
        limit_int_rename = partitions.limit_int_rename
        limit_int_iq = partitions.limit_int_iq
        limit_rob = partitions.limit_rob
        for thread in self.threads:
            tid = thread.tid
            if tid not in enabled:
                continue
            if thread.policy_locked:
                stats.lock_cycles[tid] += 1
                continue
            if cycle < thread.fetch_blocked_until:
                continue
            if (thread.ren_int >= limit_int_rename[tid]
                    or thread.iq_int >= limit_int_iq[tid]
                    or len(thread.rob) >= limit_rob[tid]):
                stats.partition_stall_cycles[tid] += 1
                continue
            eligible.append(tid)
        return eligible

    def _do_fetch(self, cycle):
        if self.ifq_total >= self.config.ifq_size:
            return
        eligible = self._fetch_eligible(cycle)
        if not eligible:
            return
        priority = self.policy.fetch_priority(self, eligible)
        budget = self.config.fetch_width
        for tid in priority[: self.config.fetch_threads]:
            if budget == 0:
                break
            budget = self._fetch_thread(cycle, self.threads[tid], budget)

    def _fetch_thread(self, cycle, thread, budget):
        refetch = thread.refetch
        next_instruction = thread.stream.next_instruction
        ifq = thread.ifq
        ifq_size = self.config.ifq_size
        ifetch = self.hierarchy.ifetch
        predict = self._predict
        trace = self.trace
        while budget > 0:
            if self.ifq_total >= ifq_size:
                break
            instr = refetch.popleft() if refetch else next_instruction()
            # Instruction-cache access, one probe per new fetch block.
            block = instr.pc >> 6
            if block != thread.last_fetch_block:
                result = ifetch(instr.pc, cycle)
                thread.last_fetch_block = block
                if result.missed_l1:
                    thread.fetch_blocked_until = cycle + result.latency
                    refetch.appendleft(instr)
                    break
            predicted_taken = predict(thread, instr)
            if trace is not None:
                trace.note("F", cycle, instr)
            ifq.append(instr)
            self.ifq_total += 1
            budget -= 1
            if predicted_taken or instr.mispredicted:
                break  # fetch break on (predicted-)taken control flow
        return budget

    def _predict(self, thread, instr):
        """Run the front-end predictors for one fetched instruction.

        Returns True when fetch should break after this instruction
        (predicted-taken control flow).
        """
        op = instr.op
        if op == _BRANCH:
            prediction = self.predictors[thread.tid].predict(instr.pc)
            instr.prediction = prediction
            mispredicted = prediction.taken != instr.taken
            if instr.taken and prediction.taken and \
                    self.btbs[thread.tid].lookup(instr.pc) is None:
                mispredicted = True  # correct direction but no target: misfetch
            instr.mispredicted = mispredicted
            return prediction.taken
        if op == _CALL:
            thread.ras.push(instr.pc + 4)
            return True
        if op == _RETURN:
            instr.mispredicted = thread.ras.pop() is None
            return True
        return False

    # ------------------------------------------------------------------
    # Squash machinery (mispredict recovery and FLUSH)
    # ------------------------------------------------------------------

    def squash_after(self, tid, after_seq):
        """Squash every instruction of thread ``tid`` younger than
        ``after_seq``; they are queued for re-fetch in program order."""
        thread = self.threads[tid]
        stats = self.stats
        refetch = thread.refetch
        # Anything still waiting for re-fetch stays queued; IFQ contents are
        # all younger than any dispatched instruction, so they all go back.
        ifq = thread.ifq
        while ifq:
            instr = ifq.pop()
            self.ifq_total -= 1
            instr.reset()
            refetch.appendleft(instr)
            stats.squashed[tid] += 1
        rob = thread.rob
        inflight = thread.inflight
        while rob and rob[-1].seq > after_seq:
            instr = rob.pop()
            inflight.pop(instr.seq, None)
            if self.trace is not None:
                self.trace.note("x", self.cycle, instr)
            if not instr.issued:
                if instr.is_fp:
                    thread.iq_fp -= 1
                    self.iq_fp_total -= 1
                else:
                    thread.iq_int -= 1
                    self.iq_int_total -= 1
            elif not instr.done and instr.op == _LOAD:
                level = instr.mem_level
                if level is not None and level != "L1":
                    thread.outstanding_l1 -= 1
                    if level == "MEM":
                        thread.outstanding_l2 -= 1
            self._release_back_end(thread, instr)
            instr.reset()
            refetch.appendleft(instr)
            stats.squashed[tid] += 1
        self.policy.on_squash(self, tid, after_seq)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def occupancy(self, tid):
        """Per-thread occupancy counters (the Figure 3 hardware monitors)."""
        thread = self.threads[tid]
        return {
            "ifq": len(thread.ifq),
            "iq_int": thread.iq_int,
            "iq_fp": thread.iq_fp,
            "ren_int": thread.ren_int,
            "ren_fp": thread.ren_fp,
            "lsq": thread.lsq,
            "rob": len(thread.rob),
        }

    def check_invariants(self):
        """Verify occupancy-counter consistency (used by tests)."""
        totals = {"iq_int": 0, "iq_fp": 0, "ren_int": 0, "ren_fp": 0,
                  "lsq": 0, "rob": 0, "ifq": 0}
        for thread in self.threads:
            totals["iq_int"] += thread.iq_int
            totals["iq_fp"] += thread.iq_fp
            totals["ren_int"] += thread.ren_int
            totals["ren_fp"] += thread.ren_fp
            totals["lsq"] += thread.lsq
            totals["rob"] += len(thread.rob)
            totals["ifq"] += len(thread.ifq)
            for counter in ("iq_int", "iq_fp", "ren_int", "ren_fp", "lsq"):
                if getattr(thread, counter) < 0:
                    raise AssertionError(
                        "negative %s on thread %d" % (counter, thread.tid)
                    )
        config = self.config
        checks = [
            (totals["iq_int"], self.iq_int_total, config.iq_int_size, "iq_int"),
            (totals["iq_fp"], self.iq_fp_total, config.iq_fp_size, "iq_fp"),
            (totals["ren_int"], self.ren_int_total, config.rename_int, "ren_int"),
            (totals["ren_fp"], self.ren_fp_total, config.rename_fp, "ren_fp"),
            (totals["lsq"], self.lsq_total, config.lsq_size, "lsq"),
            (totals["rob"], self.rob_total, config.rob_size, "rob"),
            (totals["ifq"], self.ifq_total, config.ifq_size, "ifq"),
        ]
        for summed, total, capacity, name in checks:
            if summed != total:
                raise AssertionError(
                    "%s per-thread sum %d != global total %d" % (name, summed, total)
                )
            if total > capacity:
                raise AssertionError(
                    "%s total %d exceeds capacity %d" % (name, total, capacity)
                )
        return True
