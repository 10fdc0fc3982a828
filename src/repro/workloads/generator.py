"""Synthetic instruction-stream generator.

Each :class:`SyntheticStream` turns a :class:`BenchmarkProfile` into an
endless, deterministic sequence of :class:`Instruction` records with
dependence, branch and memory-address annotations.  The pipeline executes
these exactly as a trace-driven simulator executes a real trace.

Determinism and checkpointing: all randomness comes from one
``random.Random`` seeded from (profile name, thread id, seed) and lives
on the stream object, so pickling the processor
(:class:`~repro.pipeline.checkpoint.Checkpoint`) captures the generator
state and the OFF-LINE learner can replay an epoch from a checkpoint and
observe the identical instruction stream.
"""

import random
import zlib


def _stable_hash(text):
    """Process-independent hash (``hash(str)`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


class OpClass:
    """Operation classes (plain strings for speed in the hot path)."""

    IALU = "IALU"
    IMUL = "IMUL"
    FADD = "FADD"
    FMUL = "FMUL"
    LOAD = "LOAD"
    STORE = "STORE"
    BRANCH = "BR"
    CALL = "CALL"
    RETURN = "RET"

    ALL = (IALU, IMUL, FADD, FMUL, LOAD, STORE, BRANCH, CALL, RETURN)
    INT_OPS = frozenset((IALU, IMUL, LOAD, STORE, BRANCH, CALL, RETURN))
    FP_OPS = frozenset((FADD, FMUL))
    MEM_OPS = frozenset((LOAD, STORE))
    CTRL_OPS = frozenset((BRANCH, CALL, RETURN))


class Instruction:
    """One dynamic instruction.

    Static fields come from the generator; the pipeline attaches dynamic
    state at dispatch and clears it with :meth:`reset` when a squashed
    instruction is re-fetched.
    """

    __slots__ = (
        # static
        "thread", "seq", "op", "is_fp", "srcs", "pc", "taken", "addr",
        # dynamic pipeline state
        "gen", "order", "remaining_srcs", "dependents", "dispatched",
        "issued", "done", "squashed", "prediction", "mispredicted",
        "mem_level", "uses_int_rename", "uses_fp_rename", "uses_lsq",
    )

    def __init__(self, thread, seq, op, is_fp, srcs, pc, taken=False, addr=None):
        self.thread = thread
        self.seq = seq
        self.op = op
        self.is_fp = is_fp
        self.srcs = srcs
        self.pc = pc
        self.taken = taken
        self.addr = addr
        # reset() inlined — construction is the hottest allocation site in
        # the simulator; keep the dynamic-state fields in sync with reset().
        self.gen = 0
        self.order = 0
        self.remaining_srcs = 0
        self.dependents = None
        self.dispatched = False
        self.issued = False
        self.done = False
        self.squashed = False
        self.prediction = None
        self.mispredicted = False
        self.mem_level = None
        self.uses_int_rename = False
        self.uses_fp_rename = False
        self.uses_lsq = False

    def reset(self):
        """Clear dynamic pipeline state (called on fetch and re-fetch).

        Bumps ``gen`` so stale references held by event heaps or producer
        wake-up lists from a squashed incarnation are recognised and
        ignored.
        """
        self.gen += 1
        self.order = 0
        self.remaining_srcs = 0
        self.dependents = None
        self.dispatched = False
        self.issued = False
        self.done = False
        self.squashed = False
        self.prediction = None
        self.mispredicted = False
        self.mem_level = None
        self.uses_int_rename = False
        self.uses_fp_rename = False
        self.uses_lsq = False

    @property
    def is_mem(self):
        return self.op == OpClass.LOAD or self.op == OpClass.STORE

    @property
    def is_ctrl(self):
        return self.op in OpClass.CTRL_OPS

    def __repr__(self):
        return "Instruction(t%d #%d %s)" % (self.thread, self.seq, self.op)


class SyntheticStream:
    """Endless instruction stream for one benchmark profile.

    Parameters
    ----------
    profile:
        The :class:`~repro.workloads.profile.BenchmarkProfile` to realise.
    thread_id:
        Hardware context this stream feeds; also offsets the address space
        so co-scheduled programs contend for cache capacity, not identical
        lines.
    seed:
        Reproducibility seed.
    phase_period:
        Override of the profile's phase period in instructions (scaled
        configs shrink epochs and pass a matching smaller period).
    """

    _ADDR_SPACE_BITS = 36  # per-thread address-space stride

    def __init__(self, profile, thread_id=0, seed=0, phase_period=None):
        self.profile = profile
        self.thread_id = thread_id
        self.seed = seed
        self.phase_period = phase_period or profile.phase_period
        self.rng = random.Random(  # repro: allow-nondeterminism[ND105] (seeded from (profile, thread, seed))
            _stable_hash(profile.name) * 1_000_003 + thread_id * 997 + seed
        )
        self.seq = 0
        self._base = thread_id << self._ADDR_SPACE_BITS
        self._code_words = max(1, profile.code_footprint // 4)
        self._burst_remaining = 0
        self._burst_cooldown = 0
        self._last_trigger_seq = None
        self._call_depth = 0
        # Error-diffusion accumulators for quasi-periodic miss scheduling;
        # start at random phase so co-scheduled threads do not lock-step.
        self._far_debt = self.rng.random()
        self._l2_debt = self.rng.random()
        # Per-site branch biases: mostly strongly biased sites, a few mixed,
        # controlled by branch_predictability.
        site_rng = random.Random(_stable_hash(profile.name) * 31 + 7777)  # repro: allow-nondeterminism[ND105] (stable per-profile seed)
        self._branch_bias = []
        for __ in range(profile.branch_sites):
            if site_rng.random() < profile.branch_predictability:
                bias = 0.03 if site_rng.random() < 0.5 else 0.97
            else:
                bias = 0.2 + 0.6 * site_rng.random()
            self._branch_bias.append(bias)
        # Hot-path precomputation: cumulative op-class thresholds (same
        # left-to-right float addition order as the original inline sums,
        # so the draws compare bit-identically), address bases, and a
        # phase-parameter cache that only re-derives params at phase
        # boundaries instead of per instruction.
        self._cum_load = profile.load_frac
        self._cum_store = profile.load_frac + profile.store_frac
        self._cum_branch = (profile.load_frac + profile.store_frac
                            + profile.branch_frac)
        self._cum_fp = (profile.load_frac + profile.store_frac
                        + profile.branch_frac + profile.fp_frac)
        self._call_frac_2x = 2 * profile.call_frac
        self._code_base = self._base + 0x4000_0000
        self._branch_base = self._base + 0x4800_0000
        self._params_cached = None
        self._params_expiry = -1  # seq at which the cached params lapse

    # -- phase handling ----------------------------------------------------

    def _current_params(self):
        seq = self.seq
        if seq < self._params_expiry:
            return self._params_cached
        profile = self.profile
        freq = profile.freq.value
        if freq == "No":
            self._params_cached = profile.phase_a
            self._params_expiry = float("inf")
            return self._params_cached
        period = self.phase_period
        if freq == "Low":
            period *= profile.low_freq_multiple
        index = seq // period
        self._params_cached = profile.phase_a if index % 2 == 0 \
            else profile.phase_b
        self._params_expiry = (index + 1) * period
        return self._params_cached

    @property
    def phase_index(self):
        """Coarse phase id of the current position (for BBV-style checks)."""
        return self.seq // self.phase_period

    def _phase_parity(self):
        """0/1 phase identity (matches :meth:`_current_params` switching)."""
        profile = self.profile
        if profile.freq.value == "No":
            return 0
        period = self.phase_period
        if profile.freq.value == "Low":
            period *= profile.low_freq_multiple
        return (self.seq // period) % 2

    def _branch_site(self):
        """Pick a static branch site.

        Phases execute different code: profiles with phase variation draw
        their sites from disjoint halves of the site table per phase, so
        BBV signatures actually distinguish phases (Section 5's detection
        hinges on this — in real programs a phase change is a code
        change).
        """
        sites = self.profile.branch_sites
        if self.profile.freq.value == "No":
            return self.rng.randrange(sites)
        half = max(1, sites // 2)
        return self._phase_parity() * half + self.rng.randrange(half)

    # -- draw helpers --------------------------------------------------------

    def _geometric(self, mean):
        if mean <= 1.0:
            return 1
        return 1 + int(self.rng.expovariate(1.0 / (mean - 1.0 + 1e-9)))

    def _pick_sources(self, params, independent=False):
        """Choose producer seq numbers for a new instruction."""
        if self.seq == 0:
            return ()
        rng = self.rng
        if independent:
            # Burst loads: depend only on far-away producers so they can all
            # be in flight at once (memory-level parallelism).
            distance = int(params.dep_distance * 4) + self._geometric(params.dep_distance)
            return (max(0, self.seq - distance),)
        if rng.random() < params.serial_frac:
            return (self.seq - 1,)
        n_src = 2 if rng.random() < 0.35 else 1
        srcs = []
        for __ in range(n_src):
            distance = self._geometric(params.dep_distance)
            if distance <= self.seq:
                srcs.append(self.seq - distance)
        return tuple(srcs)

    def _pick_address(self, params):
        """Choose a data address, honouring burst (clustered-miss) state.

        Far (memory-region) and L2-region accesses are scheduled with an
        error-diffusion accumulator rather than independent coin flips:
        the long-run rates equal ``mem_frac``/``l2_frac`` exactly, but the
        arrivals are quasi-periodic, like the strided loops that dominate
        SPEC memory traffic.  This keeps per-epoch IPC stationary, which
        matters because the hill climber's Delta-sized gradient signal
        must be visible above inter-epoch noise even in the scaled-down
        epochs this reproduction uses.
        """
        rng = self.rng
        profile = self.profile
        if self._burst_remaining > 0:
            # A burst in progress: the next far miss arrives after
            # ``burst_gap`` more data accesses.  Spacing the independent
            # misses across the instruction window is what makes partition
            # depth matter — only a window covering the whole burst span
            # can overlap all the misses (the paper's cache-miss
            # clustering / memory-level-parallelism case).
            self._burst_cooldown -= 1
            if self._burst_cooldown <= 0:
                self._burst_remaining -= 1
                self._burst_cooldown = max(1, int(params.burst_gap))
                return (self._base + 0x2000_0000
                        + (rng.randrange(profile.mem_region) & ~63), "member")
            # fall through: a normal near access between burst misses
        else:
            self._far_debt += params.mem_frac
            if self._far_debt >= 1.0:
                self._far_debt -= 1.0
                kind = "far"
                if params.miss_burst > 0:
                    self._burst_remaining = max(1, int(round(params.miss_burst)))
                    self._burst_cooldown = max(1, int(params.burst_gap))
                    kind = "trigger"
                return (self._base + 0x2000_0000
                        + (rng.randrange(profile.mem_region) & ~63), kind)
        self._l2_debt += params.l2_frac
        if self._l2_debt >= 1.0:
            self._l2_debt -= 1.0
            return self._base + 0x1000_0000 + (rng.randrange(profile.l2_region) & ~7), None
        return self._base + (rng.randrange(profile.l1_region) & ~7), None

    # -- main API ------------------------------------------------------------

    def next_instruction(self):
        """Generate the next dynamic instruction."""
        params = self._current_params()
        profile = self.profile
        rng = self.rng
        seq = self.seq
        pc = self._code_base + (seq % self._code_words) * 4

        draw = rng.random()
        taken = False
        addr = None
        is_fp = False

        if draw < self._cum_load:
            op = OpClass.LOAD
            addr, kind = self._pick_address(params)
            if kind == "trigger":
                # Burst-group head: pointer-chases the previous group's
                # head, so groups are serially dependent...
                srcs = (self._last_trigger_seq,) \
                    if self._last_trigger_seq is not None else ()
                self._last_trigger_seq = seq
            elif kind == "member":
                # ...while misses inside one group depend only on their
                # group head and overlap freely (memory-level parallelism
                # bounded by how much of the group fits in the window).
                srcs = (self._last_trigger_seq,) \
                    if self._last_trigger_seq is not None else ()
            else:
                srcs = self._pick_sources(params)
        elif draw < self._cum_store:
            op = OpClass.STORE
            addr, __ = self._pick_address(params)
            srcs = self._pick_sources(params)
        elif draw < self._cum_branch:
            call_draw = rng.random()
            if call_draw < profile.call_frac and self._call_depth < 32:
                op = OpClass.CALL
                self._call_depth += 1
                taken = True
            elif call_draw < self._call_frac_2x and self._call_depth > 0:
                op = OpClass.RETURN
                self._call_depth -= 1
                taken = True
            else:
                op = OpClass.BRANCH
                site = self._branch_site()
                pc = self._branch_base + site * 4
                taken = rng.random() < self._branch_bias[site]
            srcs = self._pick_sources(params)
        elif profile.fp_frac and draw < self._cum_fp:
            op = OpClass.FMUL if rng.random() < 0.4 else OpClass.FADD
            is_fp = True
            srcs = self._pick_sources(params)
        elif rng.random() < profile.mul_frac:
            op = OpClass.IMUL
            srcs = self._pick_sources(params)
        else:
            op = OpClass.IALU
            srcs = self._pick_sources(params)

        instruction = Instruction(self.thread_id, seq, op, is_fp, srcs, pc, taken, addr)
        self.seq += 1
        return instruction
