"""Differential harness: the event-driven fast core must be byte-identical
to the stage-every-cycle reference loop.

Every test runs the same experiment under both cores (via
:class:`~repro.pipeline.fastpath.forced_core`) and compares canonical
serializations — sorted-key JSON of :meth:`RunResult.to_dict` for run
stats, full processor pickles for checkpoints, ``merged_json`` for sweeps.
Equal strings mean equal bytes, which is the fast core's entire contract
(docs/INTERNALS.md): stats, checkpoints and sweep exports may never depend
on which core produced them.
"""

import json
import pickle

import pytest

from repro.core.controller import EpochController
from repro.experiments.parallel import (
    SweepEngine,
    grid_cells,
    merged_json,
    policy_factory,
)
from repro.experiments.runner import (
    ExperimentScale,
    clear_solo_cache,
    make_processor,
    run_policy,
)
from repro.pipeline.fastpath import CORE_MODES, forced_core
from repro.policies import BASELINE_POLICIES
from repro.reliability.faults import (
    FaultInjector,
    MemoryLatencySpike,
    MisbehavingPolicy,
    PartitionScramble,
    TransientFetchStall,
)
from repro.workloads.mixes import get_workload

#: Every policy family the sweep layer can run (the baseline registry plus
#: the two hill climbers), so a new baseline cannot land without entering
#: the differential harness.
FAMILIES = sorted(BASELINE_POLICIES) + ["HILL", "PHASE-HILL"]

SEEDS = (0, 1, 2)


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


def _run_blob(workload, family, scale, core, injector=None, policy=None,
              sanitize=False):
    """Canonical bytes of one run under one core.

    The SingleIPC cache is cleared first so the solo runs themselves
    execute under ``core`` instead of leaking across the comparison.
    """
    clear_solo_cache()
    with forced_core(core):
        built = policy() if policy is not None \
            else policy_factory(family, scale)()
        result = run_policy(workload, built, scale, injector=injector,
                            sanitize_partitions=sanitize)
    return json.dumps(result.to_dict(), sort_keys=True)


class TestEveryFamilyByteIdentical:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family(self, family, scale):
        workload = get_workload("art-mcf")
        for seed in SEEDS:
            seeded = scale.with_overrides(seed=seed)
            fast = _run_blob(workload, family, seeded, "fast")
            reference = _run_blob(workload, family, seeded, "reference")
            assert fast == reference, \
                "%s diverged between cores at seed %d" % (family, seed)

    def test_four_thread_workload(self, scale):
        workload = get_workload("art-mcf-swim-twolf")
        for family in ("ICOUNT", "DCRA", "HILL"):
            fast = _run_blob(workload, family, scale, "fast")
            reference = _run_blob(workload, family, scale, "reference")
            assert fast == reference, family


class TestCheckpointsByteIdentical:
    def _mid_run_pickle(self, scale, core):
        workload = get_workload("art-mcf")
        with forced_core(core):
            proc = make_processor(workload,
                                  policy_factory("HILL", scale)(), scale)
            controller = EpochController(proc, epoch_size=scale.epoch_size)
            controller.run(max(1, scale.epochs // 2))
            return pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL)

    def test_mid_run_processor_pickle(self, scale):
        """A mid-run checkpoint (full processor pickle, policy and stream
        RNG state included) carries no trace of the producing core.  HILL
        exercises ``charge_stall`` between fast-forwarded stretches."""
        pickles = {core: self._mid_run_pickle(scale, core)
                   for core in CORE_MODES}
        assert len(set(pickles.values())) == 1, sorted(pickles)


class TestSweepExportByteIdentical:
    def test_merged_json(self, scale, monkeypatch):
        cells = grid_cells(workloads=["art-mcf"],
                           policies=["ICOUNT", "FLUSH", "DCRA"],
                           seeds=(0, 1))
        exports = {}
        for core in CORE_MODES:
            clear_solo_cache()
            monkeypatch.setenv("REPRO_CORE", core)
            engine = SweepEngine(scale, jobs=1, use_cache=False)
            results = engine.run_cells(cells)
            exports[core] = merged_json(cells, results, scale)
        assert len(set(exports.values())) == 1, sorted(exports)


class TestFaultInjectionByteIdentical:
    def test_injector_run(self, scale):
        """Fault injection fires at epoch boundaries from a seeded RNG;
        both cores must see the identical fault schedule and end state."""
        workload = get_workload("art-mcf")
        blobs = {}
        for core in CORE_MODES:
            injector = FaultInjector(
                [MemoryLatencySpike(extra_latency=400,
                                    burst_probability=0.5),
                 TransientFetchStall(stall_cycles=300, probability=0.5),
                 PartitionScramble(probability=0.5)],
                seed=7)
            blobs[core] = _run_blob(workload, "DCRA", scale, core,
                                    injector=injector, sanitize=True)
        assert blobs["fast"] == blobs["reference"]

    def test_misbehaving_policy_run(self, scale):
        workload = get_workload("art-mcf")
        blobs = {}
        for core in CORE_MODES:
            make_policy = lambda: MisbehavingPolicy(
                policy_factory("DCRA", scale)(), probability=1.0, seed=11)
            blobs[core] = _run_blob(workload, None, scale, core,
                                    policy=make_policy, sanitize=True)
        assert blobs["fast"] == blobs["reference"]
