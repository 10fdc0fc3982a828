"""Tests for the reliability subsystem: invariant checking, fault
injection, partition sanitizing, and the guarded/resumable runner."""

import json
import os

import pytest

from repro.core.controller import EpochController, EpochResult
from repro.core.hill_climbing import make_hill_policy
from repro.experiments.runner import ExperimentScale, run_policy
from repro.pipeline.resources import sanitize_shares
from repro.policies.icount import ICountPolicy
from repro.policies.static_partition import StaticPartitionPolicy
from repro.reliability.faults import (
    FaultInjector,
    MemoryLatencySpike,
    MisbehavingPolicy,
    PartitionScramble,
    RNGDesync,
    TransientFetchStall,
)
from repro.reliability.guard import (
    BudgetExceeded,
    LivelockDetected,
    RunInterrupted,
    RunStore,
    Watchdog,
    compare_policies_resilient,
    run_policy_resilient,
)
from repro.reliability.invariants import InvariantChecker, InvariantViolation
from repro.reliability.verify import run_verification
from repro.workloads.mixes import get_workload


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


@pytest.fixture
def workload():
    return get_workload("art-mcf")


def hill_factory(scale):
    return lambda: make_hill_policy(
        "wipc", software_cost=scale.hill_software_cost,
        sample_period=scale.hill_sample_period)


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------


class TestInvariantChecker:
    def test_clean_runs_pass(self, scale, workload):
        for factory in (ICountPolicy, StaticPartitionPolicy,
                        hill_factory(scale)):
            checker = InvariantChecker(fidelity_period=3)
            run_policy(workload, factory(), scale, checker=checker)
            assert checker.checks_run == scale.epochs
            assert checker.fidelity_checks_run == 2

    def test_occupancy_corruption_detected(self, scale, workload):
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, ICountPolicy(), scale)
        checker = InvariantChecker()
        controller = EpochController(proc, epoch_size=scale.epoch_size,
                                     checker=checker)
        controller.run_epoch()
        proc.threads[0].iq_int += 1  # break conservation
        with pytest.raises(InvariantViolation) as excinfo:
            controller.run_epoch()
        assert excinfo.value.invariant == "resource-conservation"
        assert excinfo.value.epoch_id == 1
        assert excinfo.value.to_dict()["invariant"] == "resource-conservation"

    def test_partition_corruption_detected(self, scale, workload):
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, StaticPartitionPolicy(), scale)
        checker = InvariantChecker()
        controller = EpochController(proc, epoch_size=scale.epoch_size,
                                     checker=checker)
        proc.partitions.shares[0] += 5  # non-conserving
        with pytest.raises(InvariantViolation) as excinfo:
            controller.run_epoch()
        assert excinfo.value.invariant == "partition-legality"

    def test_monotone_counter_violation_detected(self, scale, workload):
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, ICountPolicy(), scale)
        checker = InvariantChecker()
        controller = EpochController(proc, epoch_size=scale.epoch_size,
                                     checker=checker)
        controller.run_epoch()
        # The checker samples at epoch boundaries, so push the counter
        # further back than one epoch can recover.
        proc.stats.committed[0] -= 10 ** 9
        with pytest.raises(InvariantViolation) as excinfo:
            controller.run_epoch()
        assert excinfo.value.invariant == "monotone-counters"

    def test_structured_context(self):
        violation = InvariantViolation("x", "boom", epoch_id=3, cycle=99,
                                       details={"a": 1})
        assert "epoch 3" in str(violation)
        assert "cycle 99" in str(violation)
        assert violation.to_dict()["details"] == {"a": "1"}


# ----------------------------------------------------------------------
# Partition sanitizing
# ----------------------------------------------------------------------


class TestSanitize:
    def test_sanitize_shares_clamps_and_conserves(self):
        assert sum(sanitize_shares([-5, 100], 32, 8, 2)) == 32
        assert sanitize_shares([-5, 100], 32, 8, 2)[0] >= 8
        assert sanitize_shares([16, 16, 7], 32, 8, 2) == [16, 16]

    def test_sanitize_shares_garbage_falls_back_to_equal(self):
        assert sanitize_shares(None, 32, 8, 2) == [16, 16]
        assert sanitize_shares(["x", object()], 32, 8, 2) == [16, 16]
        assert sanitize_shares([1], 33, 8, 2) == [17, 16]

    def test_sanitize_preserves_preference_order(self):
        result = sanitize_shares([30, 10], 32, 8, 2)
        assert sum(result) == 32
        assert result[0] > result[1]

    def test_registers_repair(self, scale, workload):
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, StaticPartitionPolicy(), scale,
                              warm=False)
        partitions = proc.partitions
        assert partitions.sanitize() is None          # legal: no-op
        assert partitions.repair_count == 0
        partitions.shares = [-3, 999]
        partitions.limit_int_rename = [-3, 999]
        description = partitions.sanitize()
        assert description is not None
        assert partitions.repair_count == 1
        assert partitions.legality_error() is None
        assert sum(partitions.shares) == proc.config.rename_int

    def test_wrong_length_lists_repaired(self, scale, workload):
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, StaticPartitionPolicy(), scale,
                              warm=False)
        proc.partitions.shares = [4, 4, 4]
        proc.partitions.limit_int_rename = [4]
        assert proc.partitions.sanitize() is not None
        assert len(proc.partitions.limit_int_rename) == proc.num_threads
        assert proc.partitions.legality_error() is None


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class TestFaults:
    def run_with_faults(self, scale, workload, faults, policy=None,
                        seed=7):
        injector = FaultInjector(faults, seed=seed)
        result = run_policy(
            workload, policy or hill_factory(scale)(), scale,
            injector=injector, sanitize_partitions=True)
        return result, injector

    def test_memory_latency_spike_degrades_and_recovers(self, scale,
                                                        workload):
        fault = MemoryLatencySpike(extra_latency=500, burst_probability=1.0,
                                   burst_epochs=2)
        result, injector = self.run_with_faults(scale, workload, [fault],
                                                policy=ICountPolicy())
        assert injector.summary()["mem-latency-spike"] >= 1
        clean = run_policy(workload, ICountPolicy(), scale)
        assert result.avg_ipc < clean.avg_ipc

    def test_transient_fetch_stall_logged(self, scale, workload):
        fault = TransientFetchStall(stall_cycles=400, probability=1.0)
        result, injector = self.run_with_faults(scale, workload, [fault])
        assert injector.summary()["transient-fetch-stall"] == scale.epochs
        assert result.cycles > 0

    def test_rng_desync_diverges_from_clean_twin(self, scale, workload):
        fault = RNGDesync(probability=1.0)
        result, __ = self.run_with_faults(scale, workload, [fault],
                                          policy=ICountPolicy())
        clean = run_policy(workload, ICountPolicy(), scale)
        assert result.committed != clean.committed

    def test_partition_scramble_is_repaired(self, scale, workload):
        fault = PartitionScramble(probability=1.0)
        injector = FaultInjector([fault], seed=3)
        from repro.experiments.runner import make_processor

        proc = make_processor(workload, hill_factory(scale)(), scale)
        controller = EpochController(
            proc, epoch_size=scale.epoch_size, injector=injector,
            sanitize_partitions=True,
            checker=InvariantChecker())  # checker passes: repairs precede it
        controller.run(scale.epochs)
        assert injector.summary()["partition-scramble"] >= 1
        assert len(controller.repairs) >= 1
        assert proc.partitions.legality_error() is None

    def test_misbehaving_policy_clamped_not_crashed(self, scale, workload):
        policy = MisbehavingPolicy(hill_factory(scale)(), probability=1.0,
                                   seed=11)
        result = run_policy(workload, policy, scale,
                            sanitize_partitions=True,
                            checker=InvariantChecker())
        assert policy.corruptions >= scale.epochs - 1
        assert result.cycles > 0

    def test_misbehaving_policy_detected_without_sanitizing(self, scale,
                                                            workload):
        policy = MisbehavingPolicy(hill_factory(scale)(), probability=1.0,
                                   seed=11)
        with pytest.raises(InvariantViolation) as excinfo:
            run_policy(workload, policy, scale,
                       checker=InvariantChecker())
        assert excinfo.value.invariant == "partition-legality"

    def test_faults_are_checkpoint_safe(self, scale, workload):
        """Fidelity replays must still pass with every fault active:
        all fault effects live inside the checkpointed state."""
        faults = [MemoryLatencySpike(burst_probability=0.5),
                  TransientFetchStall(), RNGDesync(),
                  PartitionScramble()]
        injector = FaultInjector(faults, seed=5)
        run_policy(workload,
                   MisbehavingPolicy(hill_factory(scale)(), seed=6),
                   scale, injector=injector, sanitize_partitions=True,
                   checker=InvariantChecker(fidelity_period=2))


# ----------------------------------------------------------------------
# Watchdog + guard
# ----------------------------------------------------------------------


def _epoch(epoch_id, committed):
    return EpochResult(epoch_id=epoch_id, kind="normal",
                       committed=committed, cycles=100)


class TestWatchdog:
    def test_livelock_detected_after_streak(self):
        watchdog = Watchdog(livelock_epochs=3)
        watchdog.observe(_epoch(0, [0, 0]))
        watchdog.observe(_epoch(1, [0, 0]))
        with pytest.raises(LivelockDetected) as excinfo:
            watchdog.observe(_epoch(2, [0, 0]))
        assert excinfo.value.epochs == 3

    def test_progress_resets_streak(self):
        watchdog = Watchdog(livelock_epochs=2)
        watchdog.observe(_epoch(0, [0, 0]))
        watchdog.observe(_epoch(1, [5, 0]))
        watchdog.observe(_epoch(2, [0, 0]))  # streak back to 1: no raise


class TestResilientRunner:
    def test_matches_plain_run_policy(self, scale, workload):
        factory = hill_factory(scale)
        straight = run_policy(workload, factory(), scale)
        guarded = run_policy_resilient(workload, factory(), scale)
        assert guarded.ipcs == straight.ipcs
        assert guarded.committed == straight.committed
        assert guarded.cycles == straight.cycles
        assert guarded.reliability["retries"] == 0

    def test_interrupt_and_resume_identical(self, tmp_path, scale, workload):
        factory = hill_factory(scale)
        straight = run_policy(workload, factory(), scale)
        run_dir = str(tmp_path / "run")
        with pytest.raises(RunInterrupted):
            run_policy_resilient(workload, factory(), scale,
                                 run_dir=run_dir, stop_after=2)
        resumed = run_policy_resilient(workload, factory(), scale,
                                       run_dir=run_dir, resume=True)
        assert resumed.reliability["resumed_from"] == 2
        assert resumed.ipcs == straight.ipcs
        assert resumed.committed == straight.committed
        assert resumed.cycles == straight.cycles
        # A second resume short-circuits to the stored result.
        again = run_policy_resilient(workload, factory(), scale,
                                     run_dir=run_dir, resume=True)
        assert again.ipcs == straight.ipcs

    def test_budget_exceeded_is_structured_and_resumable(self, tmp_path,
                                                         scale, workload):
        run_dir = str(tmp_path / "run")
        with pytest.raises(BudgetExceeded):
            run_policy_resilient(workload, hill_factory(scale)(), scale,
                                 run_dir=run_dir, max_cycles=1)
        resumed = run_policy_resilient(workload, hill_factory(scale)(),
                                       scale, run_dir=run_dir, resume=True)
        straight = run_policy(workload, hill_factory(scale)(), scale)
        assert resumed.ipcs == straight.ipcs

    def test_retry_after_injected_violation(self, scale, workload,
                                            monkeypatch):
        """A one-shot failure is retried from the last good epoch and the
        run completes."""
        calls = {"n": 0}
        original = EpochController.run_epoch

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 3:
                raise InvariantViolation("test-fault", "injected once")
            return original(self)

        monkeypatch.setattr(EpochController, "run_epoch", flaky)
        result = run_policy_resilient(workload, ICountPolicy(), scale,
                                      max_retries=2)
        assert result.reliability["retries"] == 1
        assert "test-fault" in result.reliability["failures"][0]

    def test_retries_exhausted_reraises(self, scale, workload, monkeypatch):
        def always_fails(self):
            raise InvariantViolation("test-fault", "permanent")

        monkeypatch.setattr(EpochController, "run_epoch", always_fails)
        with pytest.raises(InvariantViolation):
            run_policy_resilient(workload, ICountPolicy(), scale,
                                 max_retries=2)

    def test_compare_resilient_resume_dir_layout(self, tmp_path, scale,
                                                 workload):
        factories = {"ICOUNT": ICountPolicy,
                     "STATIC": StaticPartitionPolicy}
        results = compare_policies_resilient(
            workload, factories, scale, str(tmp_path))
        assert set(results) == {"ICOUNT", "STATIC"}
        # One directory per run, named by its canonical cell's cache key.
        from repro.experiments.parallel import run_path

        subdirs = sorted(os.listdir(str(tmp_path)))
        assert subdirs == sorted(
            os.path.basename(run_path(str(tmp_path), workload.name, name,
                                      scale)) for name in factories)
        for subdir in subdirs:
            assert (tmp_path / subdir / "result.json").exists()


class TestRunStore:
    def test_checkpoint_pruning_keeps_two(self, tmp_path):
        store = RunStore(str(tmp_path))
        for epoch in range(5):
            store.save_checkpoint(epoch, b"\x80\x04N.")  # pickled None
        names = sorted(name for name in os.listdir(str(tmp_path))
                       if name.startswith("ckpt_"))
        assert names == ["ckpt_000003.pkl", "ckpt_000004.pkl"]

    def test_latest_checkpoint_skips_corrupt(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint(1, b"\x80\x04N.")
        with open(str(tmp_path / "ckpt_000002.pkl"), "wb") as handle:
            handle.write(b"torn-write-garbage")
        epochs_done, blob = store.latest_checkpoint()
        assert epochs_done == 1

    def test_manifest_tolerates_torn_tail(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.append_manifest({"epoch_id": 0})
        with open(store.manifest_path, "a") as handle:
            handle.write('{"epoch_id": 1, "trunc')
        assert store.manifest_records() == [{"epoch_id": 0}]

    def test_result_roundtrip_exact(self, tmp_path, scale, workload):
        result = run_policy(workload, ICountPolicy(), scale)
        store = RunStore(str(tmp_path))
        store.save_result(result)
        loaded = store.load_result()
        assert loaded.ipcs == result.ipcs
        assert loaded.committed == result.committed
        assert loaded.cycles == result.cycles
        assert loaded.single_ipcs == result.single_ipcs
        assert loaded.avg_ipc == result.avg_ipc
        assert loaded.weighted_ipc == result.weighted_ipc
        assert len(loaded.epoch_history) == len(result.epoch_history)
        assert loaded.epoch_history[0].committed == \
            result.epoch_history[0].committed


# ----------------------------------------------------------------------
# The verify suite
# ----------------------------------------------------------------------


class TestVerifySuite:
    def test_smoke_verification_passes(self, scale):
        lines = []
        code = run_verification(scale, out=lines.append,
                                fidelity_period=3)
        assert code == 0, "\n".join(lines)
        text = "\n".join(lines)
        assert "verify: PASS" in text
        assert text.count("PASS  ") == 3
        assert "TOLERATED" in text or "REPORTED" in text
        assert "FAIL" not in text
