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

:func:`run_policy` is the one epoch loop.  Given a ``run_dir`` it keeps
crash-safe per-epoch state there (:class:`RunStore`): because everything
a run depends on lives inside the pickled controller (stream RNGs
included), a killed run picks up at its last checkpoint and produces
exactly the metrics of an uninterrupted one at the same seed.
"""

import json
import os
import pickle
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
    #: Partition repairs and faults injected, for a run with an
    #: ``injector`` or ``sanitize_partitions`` (``repro verify``); None
    #: for every other run, so cached sweep results never carry one.
    reliability: dict = None

    def to_dict(self):
        """JSON-serializable form (floats round-trip exactly via repr).

        Epoch records are built field by field rather than through
        ``dataclasses.asdict``, whose generic deep copy dominated warm
        reads; the result equals ``asdict(epoch)`` for every
        :class:`EpochResult` (``tests/test_runner.py`` holds them equal).
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "ipcs": list(self.ipcs),
            "committed": list(self.committed),
            "cycles": self.cycles,
            "single_ipcs": None if self.single_ipcs is None
            else list(self.single_ipcs),
            "epoch_history": [{
                "epoch_id": epoch.epoch_id,
                "kind": epoch.kind,
                "committed": list(epoch.committed),
                "cycles": epoch.cycles,
                "ipcs": list(epoch.ipcs),
                "shares": None if epoch.shares is None
                else list(epoch.shares),
                "solo_thread": epoch.solo_thread,
            } for epoch in self.epoch_history],
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


class RunStore:
    """Crash-safe on-disk state of one run.

    Layout of ``run_dir``::

        ckpt_NNNNNN.pkl   controller snapshot after NNNNNN completed epochs
                          (only the two most recent are kept)
        manifest.jsonl    append-only log: one record per completed epoch
        result.json       final RunResult (present only when complete)

    All non-append writes go through write-to-temp + ``os.replace`` so a
    kill mid-write can never corrupt the latest good state.
    """

    def __init__(self, run_dir):
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.manifest_path = os.path.join(run_dir, "manifest.jsonl")
        self.result_path = os.path.join(run_dir, "result.json")

    def _write_atomic(self, path, data, mode="wb"):
        tmp = path + ".tmp"
        with open(tmp, mode) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _checkpoint_files(self):
        found = []
        for name in os.listdir(self.run_dir):
            if name.startswith("ckpt_") and name.endswith(".pkl"):
                try:
                    found.append((int(name[5:-4]), name))
                except ValueError:
                    continue
        return sorted(found)

    def save_checkpoint(self, epochs_done, blob, keep=2):
        self._write_atomic(os.path.join(
            self.run_dir, "ckpt_%06d.pkl" % epochs_done), blob)
        for __, name in self._checkpoint_files()[:-keep]:
            try:
                os.remove(os.path.join(self.run_dir, name))
            except OSError:
                pass

    def latest_checkpoint(self):
        """(epochs_done, blob) of the newest readable checkpoint, or None.

        Falls back to the previous checkpoint when the newest is
        unreadable (e.g. the process died mid-write on a filesystem
        without atomic rename).
        """
        for epochs_done, name in reversed(self._checkpoint_files()):
            path = os.path.join(self.run_dir, name)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                pickle.loads(blob)  # readability probe
            except Exception:
                continue
            return epochs_done, blob
        return None

    def append_manifest(self, record):
        with open(self.manifest_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def manifest_records(self):
        if not os.path.exists(self.manifest_path):
            return []
        records = []
        with open(self.manifest_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn final line from a kill mid-append
        return records

    def save_result(self, result):
        payload = json.dumps(result.to_dict(), indent=1)
        self._write_atomic(self.result_path, payload, mode="w")

    def load_result(self):
        if not os.path.exists(self.result_path):
            return None
        try:
            with open(self.result_path) as handle:
                return RunResult.from_dict(json.load(handle))
        except Exception:
            return None


def _snapshot_controller(controller):
    """Serialize everything a resumed run needs: the processor (policy and
    stream RNGs included) plus the controller's accounting."""
    return pickle.dumps({
        "proc": controller.proc,
        "epoch_id": controller.epoch_id,
        "history": controller.history,
        "start_stats": controller._start_stats,
        "repairs": controller.repairs,
    }, protocol=pickle.HIGHEST_PROTOCOL)


def _restore_controller(blob, epoch_size, **options):
    state = pickle.loads(blob)
    controller = EpochController(state["proc"], epoch_size=epoch_size,
                                 **options)
    controller.epoch_id = state["epoch_id"]
    controller.history = state["history"]
    controller._start_stats = state["start_stats"]
    controller.repairs = state["repairs"]
    return controller


def run_policy(workload, policy, scale, epochs=None, checker=None,
               injector=None, sanitize_partitions=False, run_dir=None,
               on_epoch=None):
    """Run one policy over a workload for the scaled window.

    Returns a :class:`RunResult` with SingleIPCs attached so every metric
    of Section 3.1.1 can be evaluated on it.  ``checker`` / ``injector`` /
    ``sanitize_partitions`` pass straight through to the
    :class:`~repro.core.controller.EpochController` (see
    :mod:`repro.reliability`).

    With a ``run_dir`` the run checkpoints the whole controller after
    every epoch (:class:`RunStore`).  A later call with the same
    ``run_dir`` returns the stored ``result.json`` of a finished run, or
    continues from the newest readable checkpoint; ``policy`` is then
    unused, because the checkpointed one (with its learned state) takes
    over.  ``on_epoch``, if given, is called with the number of completed
    epochs after each epoch's writes (the sweep's heartbeat and chaos
    hook).  Nothing here retries: an exception ends the run, and a
    resumed call continues from the last completed epoch.
    """
    target = scale.epochs if epochs is None else epochs
    options = dict(checker=checker, injector=injector,
                   sanitize_partitions=sanitize_partitions)
    store = None if run_dir is None else RunStore(run_dir)
    found = None
    if store is not None:
        finished = store.load_result()
        if finished is not None:
            return finished
        found = store.latest_checkpoint()
    if found is not None:
        controller = _restore_controller(found[1], scale.epoch_size,
                                         **options)
    else:
        controller = EpochController(make_processor(workload, policy, scale),
                                     epoch_size=scale.epoch_size, **options)
        if store is not None:
            store.save_checkpoint(0, _snapshot_controller(controller))
    while controller.epoch_id < target:
        epoch = controller.run_epoch()
        if store is not None:
            store.save_checkpoint(controller.epoch_id,
                                  _snapshot_controller(controller))
            store.append_manifest({
                "epoch_id": epoch.epoch_id,
                "kind": epoch.kind,
                "committed": list(epoch.committed),
                "cycles": epoch.cycles,
                "ipcs": list(epoch.ipcs),
                "shares": epoch.shares,
                "solo_thread": epoch.solo_thread,
            })
        if on_epoch is not None:
            on_epoch(controller.epoch_id)
    committed, cycles = controller.totals()
    result = RunResult(
        workload=workload.name,
        policy=controller.proc.policy.name,
        ipcs=controller.overall_ipcs(),
        committed=committed,
        cycles=cycles,
        single_ipcs=solo_ipcs(workload, scale),
        epoch_history=controller.history,
        reliability=None if injector is None and not sanitize_partitions
        else {"partition_repairs": len(controller.repairs),
              "faults_injected": ({} if injector is None
                                  else injector.summary())},
    )
    if store is not None:
        store.save_result(result)
    return result


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
