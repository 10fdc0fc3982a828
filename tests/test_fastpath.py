"""Unit tests for the fast-forward core plumbing: core selection,
quiescence proofs, bulk skips, and the ``charge_stall`` event-shift
contract the fast path depends on."""

import pickle

import pytest

from repro.pipeline.config import SMTConfig
from repro.pipeline.fastpath import (
    CORE_MODES,
    apply_skip,
    core_mode,
    forced_core,
    quiescent_horizon,
)
from repro.pipeline import processor
from repro.pipeline.processor import SMTProcessor
from repro.policies.icount import ICountPolicy
from repro.workloads.mixes import get_workload


def make_proc(warm_cycles=0):
    workload = get_workload("art-mcf")
    proc = SMTProcessor(SMTConfig.tiny(), workload.profiles, seed=0,
                        policy=ICountPolicy())
    if warm_cycles:
        proc.run(warm_cycles)
    return proc


class TestCoreSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        assert core_mode() == "fast"

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "reference")
        assert core_mode() == "reference"

    def test_forced_core_shadows_even_invalid_env(self, monkeypatch):
        """An explicit forced_core never consults the environment, so a
        bad REPRO_CORE cannot break code that pinned its core."""
        monkeypatch.setenv("REPRO_CORE", "turbo")
        with forced_core("reference"):
            assert core_mode() == "reference"

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "turbo")
        with pytest.raises(ValueError, match="REPRO_CORE must be one of") \
                as excinfo:
            core_mode()
        # The error is where a user discovers the core names.
        assert "fast" in str(excinfo.value)
        assert "reference" in str(excinfo.value)

    def test_forced_core_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "reference")
        with forced_core("fast"):
            assert core_mode() == "fast"
        assert core_mode() == "reference"

    def test_forced_core_nests_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        with forced_core("reference"):
            with forced_core("fast"):
                assert core_mode() == "fast"
            assert core_mode() == "reference"
        assert core_mode() == "fast"

    def test_forced_core_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with forced_core("reference"):
                raise RuntimeError("boom")
        assert core_mode() == "fast"

    def test_forced_core_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="core mode must be one of"):
            forced_core("turbo")


class TestChargeStall:
    """``charge_stall`` must shift every pending event and future fetch
    block by exactly the stall length — otherwise work would complete
    "for free" during the frozen stretch, and the fast core's event
    horizon (read from the same heaps) would come unstuck from the
    reference loop's behaviour."""

    STALL = 137

    def test_events_shift_by_stall_length(self):
        proc = make_proc(warm_cycles=100)
        for __ in range(500):  # stop at a cycle with in-flight events
            if proc._completions or proc._detections:
                break
            proc.run(1)
        assert proc._completions or proc._detections, \
            "warmup should leave in-flight events"
        completions = list(proc._completions)
        detections = list(proc._detections)
        cycle = proc.cycle
        cycles = proc.stats.cycles
        proc.charge_stall(self.STALL)
        assert proc.cycle == cycle + self.STALL
        assert proc.stats.cycles == cycles + self.STALL
        assert proc._completions == [
            (when + self.STALL, order, instr, gen)
            for when, order, instr, gen in completions]
        assert proc._detections == [
            (when + self.STALL, order, instr, gen)
            for when, order, instr, gen in detections]

    def test_future_fetch_block_shifts_stale_does_not(self):
        proc = make_proc(warm_cycles=300)
        future = proc.cycle + 50
        stale = proc.cycle - 10
        proc.threads[0].fetch_blocked_until = future
        proc.threads[1].fetch_blocked_until = stale
        proc.charge_stall(self.STALL)
        assert proc.threads[0].fetch_blocked_until == future + self.STALL
        assert proc.threads[1].fetch_blocked_until == stale

    def test_zero_stall_is_noop(self):
        proc = make_proc(warm_cycles=100)
        before = pickle.dumps(proc)
        proc.charge_stall(0)
        assert pickle.dumps(proc) == before

    def test_stall_between_runs_identical_across_cores(self):
        """A stall injected between two run windows (the hill climber's
        pattern) must leave both cores on the same trajectory."""
        states = {}
        for core in CORE_MODES:
            with forced_core(core):
                proc = make_proc()
                proc.run(300)
                proc.charge_stall(self.STALL)
                proc.run(400)
            states[core] = pickle.dumps(proc,
                                        protocol=pickle.HIGHEST_PROTOCOL)
        assert states["fast"] == states["reference"]


class TestQuiescence:
    def test_active_machine_has_no_horizon(self):
        proc = make_proc()  # fresh front end: fetch would make progress
        assert quiescent_horizon(proc, proc.cycle + 1000) is None

    def test_blocked_machine_horizon_is_unblock_time(self):
        proc = make_proc()
        unblock = proc.cycle + 500
        for thread in proc.threads:
            thread.fetch_blocked_until = unblock
        assert quiescent_horizon(proc, proc.cycle + 1000) == unblock

    def test_horizon_capped_at_window_end(self):
        proc = make_proc()
        for thread in proc.threads:
            thread.fetch_blocked_until = proc.cycle + 500
        assert quiescent_horizon(proc, proc.cycle + 200) == proc.cycle + 200

    def test_pending_completion_bounds_horizon(self):
        proc = make_proc(warm_cycles=300)
        for thread in proc.threads:
            thread.fetch_blocked_until = proc.cycle + 10 ** 6
        horizon = quiescent_horizon(proc, proc.cycle + 10 ** 6)
        if horizon is not None and proc._completions:
            assert horizon <= proc._completions[0][0]

    def test_apply_skip_advances_cycle_and_stats(self):
        proc = make_proc()
        for thread in proc.threads:
            thread.fetch_blocked_until = proc.cycle + 500
        start = proc.cycle
        cycles = proc.stats.cycles
        horizon = quiescent_horizon(proc, start + 1000)
        skipped = apply_skip(proc, horizon)
        assert skipped == horizon - start
        assert proc.cycle == horizon
        assert proc.stats.cycles == cycles + skipped

    def test_run_skips_blocked_stretch(self, monkeypatch):
        """End-to-end: a fully blocked machine fast-forwards to the
        unblock time instead of grinding cycle by cycle."""
        proc = make_proc()
        for thread in proc.threads:
            thread.fetch_blocked_until = proc.cycle + 400
        skipped = []

        def counting_skip(machine, horizon):
            skipped.append(apply_skip(machine, horizon))
            return skipped[-1]

        monkeypatch.setattr(processor, "apply_skip", counting_skip)
        start = proc.stats.cycles
        with forced_core("fast"):
            proc.run(1000)
        assert sum(skipped) >= 400
        assert proc.stats.cycles - start == 1000
