"""Shared experiment machinery.

Everything here is deterministic given (scale, seed): warmup runs the
caches/predictors to steady state before measurement (the paper
fast-forwards to SimPoint regions instead).  Every weighted metric needs
each thread's stand-alone SingleIPC run, so :func:`solo_ipc` memoizes
them in a bounded in-process LRU keyed by the full profile value and the
scale fields the run depends on (config, epoch size, epoch count,
warmup, seed).  Sweeps persist the same values across processes in the
result cache (:func:`repro.experiments.parallel.solo_key`) and seed this
LRU through :func:`remember_solo` before a cell runs.
"""

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, replace

from repro.core.controller import EpochController, EpochResult
from repro.core.metrics import AvgIPC, HarmonicMeanWeightedIPC, WeightedIPC
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.icount import ICountPolicy


@dataclass(frozen=True)
class ExperimentScale:
    """One knob bundle controlling experiment cost.

    The paper's scale (64K-cycle epochs, 1B-instruction windows, stride-2
    exhaustive search) is out of reach for a Python simulator, so every
    experiment takes a scale; EXPERIMENTS.md records which scale produced
    the reported numbers.
    """

    config: SMTConfig
    #: Epoch length in cycles.
    epoch_size: int = 4096
    #: Measured epochs per run.
    epochs: int = 24
    #: Unmeasured warmup cycles before the first epoch.
    warmup: int = 24000
    #: OFF-LINE / surface grid stride over the rename shares.
    stride: int = 16
    #: Workloads evaluated per Table 3 group (None: all seven).
    workloads_per_group: int = None
    #: RAND-HILL trial budget per epoch.
    rand_hill_budget: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("epoch_size", "epochs", "stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(
                    "ExperimentScale.%s must be a positive int, got %r"
                    % (name, value))
        if not isinstance(self.warmup, int) or self.warmup < 0:
            raise ValueError(
                "ExperimentScale.warmup must be a non-negative int, got %r"
                % (self.warmup,))
        if self.workloads_per_group is not None and (
                not isinstance(self.workloads_per_group, int)
                or self.workloads_per_group < 1):
            raise ValueError(
                "ExperimentScale.workloads_per_group must be None or an "
                "int >= 1, got %r" % (self.workloads_per_group,))
        if not isinstance(self.rand_hill_budget, int) \
                or self.rand_hill_budget <= 0:
            raise ValueError(
                "ExperimentScale.rand_hill_budget must be a positive int, "
                "got %r" % (self.rand_hill_budget,))

    @classmethod
    def smoke(cls):
        """Unit-test scale: seconds per experiment."""
        return cls(config=SMTConfig.tiny(), epoch_size=1024, epochs=6,
                   warmup=2000, stride=8, workloads_per_group=2,
                   rand_hill_budget=8)

    @classmethod
    def bench(cls):
        """Benchmark-harness scale: the EXPERIMENTS.md numbers."""
        return cls(config=SMTConfig.fast(), epoch_size=4096, epochs=40,
                   warmup=12000, stride=16, workloads_per_group=None,
                   rand_hill_budget=32)

    @classmethod
    def full(cls):
        """Closest tractable approximation of the paper's scale."""
        return cls(config=SMTConfig.paper(), epoch_size=65536, epochs=32,
                   warmup=100000, stride=32, workloads_per_group=None,
                   rand_hill_budget=128)

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)

    @property
    def hill_software_cost(self):
        """Per-invocation software stall, scaled so it keeps the paper's
        proportion (200 cycles per 64K-cycle epoch)."""
        return max(1, 200 * self.epoch_size // 65536)

    @property
    def hill_sample_period(self):
        """SingleIPC sampling period: the paper's 40 epochs.

        Short scaled windows therefore take only one or two solo samples
        (rotating threads); unsampled threads keep the 1.0 default
        estimate.  Sampling more often measurably hurts — every solo epoch
        idles the other threads — which the sample-period ablation
        quantifies."""
        return 40


@dataclass
class RunResult:
    """Outcome of one (workload, policy) run."""

    workload: str
    policy: str
    ipcs: list
    committed: list
    cycles: int
    single_ipcs: list = None
    epoch_history: list = field(default_factory=list)
    #: Optional reliability report attached by
    #: :func:`repro.reliability.guard.run_policy_resilient` (retries,
    #: repairs, faults injected, resume point).
    reliability: dict = None

    def to_dict(self):
        """JSON-serializable form (floats round-trip exactly via repr)."""
        from dataclasses import asdict

        return {
            "workload": self.workload,
            "policy": self.policy,
            "ipcs": list(self.ipcs),
            "committed": list(self.committed),
            "cycles": self.cycles,
            "single_ipcs": None if self.single_ipcs is None
            else list(self.single_ipcs),
            "epoch_history": [asdict(epoch) for epoch in self.epoch_history],
            "reliability": self.reliability,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            ipcs=list(data["ipcs"]),
            committed=list(data["committed"]),
            cycles=data["cycles"],
            single_ipcs=None if data.get("single_ipcs") is None
            else list(data["single_ipcs"]),
            epoch_history=[EpochResult(**record)
                           for record in data.get("epoch_history", [])],
            reliability=data.get("reliability"),
        )

    @property
    def avg_ipc(self):
        return AvgIPC().value(self.ipcs)

    @property
    def weighted_ipc(self):
        return WeightedIPC().value(self.ipcs, self.single_ipcs)

    @property
    def harmonic_weighted_ipc(self):
        return HarmonicMeanWeightedIPC().value(self.ipcs, self.single_ipcs)

    def metric_value(self, metric):
        if metric.needs_single_ipc:
            return metric.value(self.ipcs, self.single_ipcs)
        return metric.value(self.ipcs)


CacheInfo = namedtuple("CacheInfo", "hits misses evictions maxsize currsize")

#: SingleIPC cache bound: generous for any realistic sweep (22 benchmarks x
#: a handful of scales/seeds) while keeping unbounded multi-config sweeps
#: from growing the cache without limit.
SOLO_CACHE_MAXSIZE = 512


class _LRUCache:
    """Small bounded LRU map with ``functools.lru_cache``-style counters."""

    def __init__(self, maxsize):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data = OrderedDict()

    def get(self, key):
        try:
            self._data.move_to_end(key)
        except KeyError:
            self.misses += 1
            return None
        self.hits += 1
        return self._data[key]

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def info(self):
        return CacheInfo(hits=self.hits, misses=self.misses,
                         evictions=self.evictions, maxsize=self.maxsize,
                         currsize=len(self._data))

    def clear(self):
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data


_SOLO_CACHE = _LRUCache(SOLO_CACHE_MAXSIZE)


def _solo_memo_key(profile, scale):
    # The whole (frozen) profile, not its name: two profiles that share a
    # name but differ in any parameter run different solos.
    return (profile, scale.config, scale.epoch_size, scale.epochs,
            scale.warmup, scale.seed)


def solo_ipc(profile, scale):
    """Stand-alone IPC of one benchmark on the scaled machine (cached).

    Measured as an end-to-end run over ``epochs * epoch_size`` cycles after
    warmup — the paper's "SingleIPC from an end-to-end run".  A miss of
    the in-process LRU is a derivation, so ``solo_cache_info().misses``
    counts the solo runs this process actually simulated.
    """
    key = _solo_memo_key(profile, scale)
    cached = _SOLO_CACHE.get(key)
    if cached is not None:
        return cached
    proc = SMTProcessor(scale.config, [profile], seed=scale.seed,
                        policy=ICountPolicy())
    proc.run(scale.warmup)
    before = proc.stats.copy()
    proc.run(scale.epoch_size * scale.epochs)
    committed, cycles = proc.stats.delta_since(before)
    value = committed[0] / max(cycles, 1)
    _SOLO_CACHE.put(key, value)
    return value


def remember_solo(profile, scale, value):
    """Seed the LRU with a SingleIPC derived elsewhere (another process,
    an earlier sweep), so :func:`solo_ipc` returns it without a run.

    Seeding counts neither as a hit nor as a miss; the lookup that later
    returns the value counts as a hit.
    """
    _SOLO_CACHE.put(_solo_memo_key(profile, scale), value)


def solo_ipcs(workload, scale):
    """SingleIPC_i for every thread of a workload."""
    return [solo_ipc(profile, scale) for profile in workload.profiles]


def solo_cache_info():
    """Hit/miss/eviction/size counters of the bounded SingleIPC cache."""
    return _SOLO_CACHE.info()


def clear_solo_cache():
    _SOLO_CACHE.clear()


def make_processor(workload, policy, scale, warm=True):
    """Build (and optionally warm) a processor for a workload + policy."""
    proc = SMTProcessor(scale.config, workload.profiles, seed=scale.seed,
                        policy=policy)
    if warm and scale.warmup:
        proc.run(scale.warmup)
    return proc


def run_policy(workload, policy, scale, epochs=None, checker=None,
               injector=None, sanitize_partitions=False):
    """Run one policy over a workload for the scaled window.

    Returns a :class:`RunResult` with SingleIPCs attached so every metric
    of Section 3.1.1 can be evaluated on it.  ``checker`` / ``injector`` /
    ``sanitize_partitions`` pass straight through to the
    :class:`~repro.core.controller.EpochController` (see
    :mod:`repro.reliability`); the guarded, resumable variant is
    :func:`repro.reliability.guard.run_policy_resilient`.
    """
    proc = make_processor(workload, policy, scale)
    controller = EpochController(proc, epoch_size=scale.epoch_size,
                                 checker=checker, injector=injector,
                                 sanitize_partitions=sanitize_partitions)
    controller.run(epochs if epochs is not None else scale.epochs)
    committed, cycles = controller.totals()
    return RunResult(
        workload=workload.name,
        policy=policy.name,
        ipcs=controller.overall_ipcs(),
        committed=committed,
        cycles=cycles,
        single_ipcs=solo_ipcs(workload, scale),
        epoch_history=controller.history,
    )


def run_policy_multi(workload, policy_factory, scale, seeds=(0, 1, 2),
                     epochs=None):
    """Run one policy across several workload seeds.

    Returns (results, summary) where ``summary`` maps each Section 3.1.1
    metric name to (mean, population stdev) across seeds — the variance a
    single-seed experiment hides.
    """
    import statistics

    results = []
    for seed in seeds:
        seeded = scale.with_overrides(seed=seed)
        results.append(run_policy(workload, policy_factory(), seeded,
                                  epochs=epochs))
    summary = {}
    for name, getter in (
        ("avg_ipc", lambda result: result.avg_ipc),
        ("weighted_ipc", lambda result: result.weighted_ipc),
        ("harmonic_weighted_ipc",
         lambda result: result.harmonic_weighted_ipc),
    ):
        values = [getter(result) for result in results]
        spread = statistics.pstdev(values) if len(values) > 1 else 0.0
        summary[name] = (statistics.mean(values), spread)
    return results, summary


def compare_policies(workload, policy_factories, scale, epochs=None,
                     engine=None):
    """Run several policies on one workload.

    ``policy_factories`` maps display name -> zero-argument callable
    returning a fresh policy (policies are stateful, one per run).
    Returns {name: RunResult}.

    With an ``engine`` (a :class:`~repro.experiments.parallel.SweepEngine`
    built at the same scale), the runs go through the parallel sweep
    layer instead: results come from the content-addressed cache when
    available and fan out over the worker pool otherwise.  The factory
    *names* must then be canonical policy specs (every name the CLI
    accepts qualifies); the callables are ignored because workers rebuild
    policies by name.
    """
    if engine is not None:
        return engine.compare_policies(workload, list(policy_factories),
                                       epochs=epochs)
    results = {}
    for name, factory in policy_factories.items():
        results[name] = run_policy(workload, factory(), scale, epochs=epochs)
    return results


def select_workloads(groups, scale):
    """The Table 3 workloads for the given groups, honouring the scale's
    per-group subset limit."""
    from repro.workloads.mixes import workloads_in_group

    selected = []
    for group in groups:
        members = workloads_in_group(group)
        if scale.workloads_per_group is not None:
            members = members[: scale.workloads_per_group]
        selected.extend(members)
    return selected


def baseline_factories():
    """The paper's three baselines (Figures 4/9/10)."""
    from repro.policies.dcra import DCRAPolicy  # repro: dispatch[DCRA]
    from repro.policies.flush import FlushPolicy  # repro: dispatch[FLUSH]

    return {
        "ICOUNT": ICountPolicy,
        "FLUSH": FlushPolicy,
        "DCRA": DCRAPolicy,
    }
