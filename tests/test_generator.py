"""Unit tests for the synthetic instruction-stream generator."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generator import Instruction, OpClass, SyntheticStream
from repro.workloads.profile import BenchmarkProfile, PhaseParams, PhaseVariation
from repro.workloads.spec2000 import PROFILES, get_profile


def take(stream, count):
    return [stream.next_instruction() for __ in range(count)]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SyntheticStream(get_profile("gzip"), 0, seed=7)
        b = SyntheticStream(get_profile("gzip"), 0, seed=7)
        for x, y in zip(take(a, 500), take(b, 500)):
            assert (x.op, x.srcs, x.pc, x.taken, x.addr) == \
                   (y.op, y.srcs, y.pc, y.taken, y.addr)

    def test_different_seed_differs(self):
        a = take(SyntheticStream(get_profile("gzip"), 0, seed=1), 300)
        b = take(SyntheticStream(get_profile("gzip"), 0, seed=2), 300)
        assert any(x.op != y.op or x.addr != y.addr for x, y in zip(a, b))

    def test_different_thread_id_differs(self):
        a = take(SyntheticStream(get_profile("gzip"), 0, seed=1), 300)
        b = take(SyntheticStream(get_profile("gzip"), 1, seed=1), 300)
        assert any(x.op != y.op for x, y in zip(a, b))

    def test_thread_address_spaces_disjoint(self):
        a = SyntheticStream(get_profile("art"), 0, seed=1)
        b = SyntheticStream(get_profile("art"), 1, seed=1)
        addrs_a = {i.addr for i in take(a, 500) if i.addr is not None}
        addrs_b = {i.addr for i in take(b, 500) if i.addr is not None}
        assert addrs_a and addrs_b
        assert not (addrs_a & addrs_b)


class TestSnapshot:
    """A checkpoint pickles the whole machine; a stream's part of it is
    its own pickle round-trip (RNG state included)."""

    def test_snapshot_restore_replays_identically(self):
        stream = SyntheticStream(get_profile("art"), 0, seed=3)
        take(stream, 250)
        state = pickle.dumps(stream)
        first = [(i.op, i.srcs, i.addr, i.taken) for i in take(stream, 250)]
        stream = pickle.loads(state)
        second = [(i.op, i.srcs, i.addr, i.taken) for i in take(stream, 250)]
        assert first == second

    def test_snapshot_preserves_seq(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=3)
        take(stream, 100)
        state = pickle.dumps(stream)
        take(stream, 50)
        stream = pickle.loads(state)
        assert stream.seq == 100


class TestStreamContents:
    def test_seq_monotonic(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1)
        seqs = [i.seq for i in take(stream, 100)]
        assert seqs == list(range(100))

    def test_sources_are_older(self):
        stream = SyntheticStream(get_profile("mcf"), 0, seed=1)
        for instr in take(stream, 2000):
            for src in instr.srcs:
                assert 0 <= src < instr.seq

    def test_mix_roughly_matches_profile(self):
        profile = get_profile("gzip")
        stream = SyntheticStream(profile, 0, seed=1)
        instrs = take(stream, 20000)
        loads = sum(1 for i in instrs if i.op == OpClass.LOAD)
        branches = sum(1 for i in instrs if i.op == OpClass.BRANCH)
        assert loads / len(instrs) == pytest.approx(profile.load_frac, abs=0.03)
        assert branches / len(instrs) == pytest.approx(
            profile.branch_frac, abs=0.04)

    def test_fp_profile_emits_fp_ops(self):
        stream = SyntheticStream(get_profile("apsi"), 0, seed=1)
        instrs = take(stream, 5000)
        assert any(i.op in OpClass.FP_OPS for i in instrs)

    def test_int_profile_emits_no_fp_ops(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1)
        instrs = take(stream, 5000)
        assert not any(i.op in OpClass.FP_OPS for i in instrs)

    def test_mem_ops_have_addresses(self):
        stream = SyntheticStream(get_profile("art"), 0, seed=1)
        for instr in take(stream, 2000):
            if instr.is_mem:
                assert instr.addr is not None
            else:
                assert instr.addr is None

    def test_calls_and_returns_balance_roughly(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1)
        depth = 0
        for instr in take(stream, 20000):
            if instr.op == OpClass.CALL:
                depth += 1
            elif instr.op == OpClass.RETURN:
                depth -= 1
            assert 0 <= depth <= 32

    def test_mem_profile_emits_far_accesses(self):
        stream = SyntheticStream(get_profile("art"), 0, seed=1)
        far = [i for i in take(stream, 5000)
               if i.op == OpClass.LOAD and (i.addr & 0x2000_0000)]
        assert len(far) > 20

    def test_ilp_profile_emits_no_far_accesses(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1)
        far = [i for i in take(stream, 5000)
               if i.op == OpClass.LOAD and i.addr and (i.addr & 0x2000_0000)]
        assert not far

    def test_burst_groups_chain_through_triggers(self):
        """Group heads pointer-chase each other; members depend on heads."""
        stream = SyntheticStream(get_profile("art"), 0, seed=1)
        far_loads = [i for i in take(stream, 8000)
                     if i.op == OpClass.LOAD and (i.addr & 0x2000_0000)]
        assert len(far_loads) >= 10
        far_seqs = {i.seq for i in far_loads}
        chained = sum(1 for i in far_loads
                      if i.srcs and i.srcs[0] in far_seqs)
        # Nearly all far loads depend on an earlier far load (their group
        # head or the previous head).
        assert chained >= 0.8 * (len(far_loads) - 1)


class TestPhases:
    def test_none_freq_params_never_change(self):
        stream = SyntheticStream(get_profile("bzip2"), 0, seed=1,
                                 phase_period=100)
        first = stream._current_params()
        take(stream, 1000)
        assert stream._current_params() == first

    def test_high_freq_alternates(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1,
                                 phase_period=100)
        seen = set()
        for __ in range(400):
            seen.add(stream._current_params().dep_distance)
            stream.next_instruction()
        assert len(seen) == 2

    def test_low_freq_alternates_slower(self):
        profile = get_profile("mcf")
        stream = SyntheticStream(profile, 0, seed=1, phase_period=100)
        boundary = 100 * profile.low_freq_multiple
        params_early = stream._current_params()
        take(stream, boundary + 10)
        assert stream._current_params() != params_early

    def test_phase_index(self):
        stream = SyntheticStream(get_profile("gzip"), 0, seed=1,
                                 phase_period=50)
        take(stream, 120)
        assert stream.phase_index == 2


class TestInstructionRecord:
    def test_reset_bumps_generation(self):
        instr = Instruction(0, 0, OpClass.IALU, False, (), 0)
        gen = instr.gen
        instr.dispatched = True
        instr.reset()
        assert instr.gen == gen + 1
        assert instr.dispatched is False

    def test_is_mem_and_ctrl(self):
        load = Instruction(0, 0, OpClass.LOAD, False, (), 0, addr=8)
        branch = Instruction(0, 1, OpClass.BRANCH, False, (), 0, taken=True)
        alu = Instruction(0, 2, OpClass.IALU, False, (), 0)
        assert load.is_mem and not load.is_ctrl
        assert branch.is_ctrl and not branch.is_mem
        assert not alu.is_mem and not alu.is_ctrl

    def test_repr(self):
        instr = Instruction(1, 5, OpClass.LOAD, False, (), 0, addr=8)
        assert "t1" in repr(instr) and "LOAD" in repr(instr)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(0, 5))
def test_property_any_profile_generates_valid_stream(name, seed):
    stream = SyntheticStream(get_profile(name), 0, seed=seed)
    for instr in take(stream, 300):
        assert instr.op in OpClass.ALL
        assert all(0 <= s < instr.seq for s in instr.srcs)
        if instr.is_mem:
            assert instr.addr is not None
        assert instr.pc >= 0
