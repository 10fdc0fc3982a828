"""Tests for trace recording and replay."""

import pickle

import pytest

from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.icount import ICountPolicy
from repro.workloads.generator import Instruction, OpClass, SyntheticStream
from repro.workloads.spec2000 import get_profile
from repro.workloads.tracefile import (
    TraceStream,
    format_instruction,
    parse_instruction,
    record_trace,
)


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "gzip.trace"
    stream = SyntheticStream(get_profile("gzip"), 0, seed=4)
    record_trace(stream, 400, str(path))
    return str(path)


class TestFormat:
    def test_roundtrip(self):
        original = Instruction(0, 7, OpClass.LOAD, False, (3, 5), 4096,
                               False, 12345)
        parsed = parse_instruction(format_instruction(original), 0)
        assert parsed.seq == 7
        assert parsed.op == OpClass.LOAD
        assert parsed.srcs == (3, 5)
        assert parsed.addr == 12345

    def test_no_sources(self):
        original = Instruction(0, 0, OpClass.IALU, False, (), 0)
        parsed = parse_instruction(format_instruction(original), 0)
        assert parsed.srcs == ()
        assert parsed.addr is None

    def test_branch_taken(self):
        original = Instruction(0, 1, OpClass.BRANCH, False, (), 64, True)
        parsed = parse_instruction(format_instruction(original), 0)
        assert parsed.taken is True

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_instruction("1 2 3", 0)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            parse_instruction("0 WAT 0 - 0 0 -", 0)


class TestTraceStream:
    def test_replays_recorded_instructions(self, trace_path):
        reference = SyntheticStream(get_profile("gzip"), 0, seed=4)
        replay = TraceStream(trace_path)
        for __ in range(400):
            expected = reference.next_instruction()
            actual = replay.next_instruction()
            assert (expected.op, expected.srcs, expected.pc, expected.taken,
                    expected.addr) == (actual.op, actual.srcs, actual.pc,
                                       actual.taken, actual.addr)

    def test_wrap_keeps_seq_increasing(self, trace_path):
        replay = TraceStream(trace_path, wrap=True)
        seqs = [replay.next_instruction().seq for __ in range(900)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 900

    def test_wrapped_sources_stay_older(self, trace_path):
        replay = TraceStream(trace_path, wrap=True)
        for __ in range(1000):
            instr = replay.next_instruction()
            assert all(src < instr.seq for src in instr.srcs)

    def test_no_wrap_raises(self, trace_path):
        replay = TraceStream(trace_path, wrap=False)
        with pytest.raises(StopIteration):
            for __ in range(500):
                replay.next_instruction()

    def test_len(self, trace_path):
        assert len(TraceStream(trace_path)) == 400

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            TraceStream(str(path))

    def test_snapshot_restore(self, trace_path):
        replay = TraceStream(trace_path)
        for __ in range(10):
            replay.next_instruction()
        state = pickle.dumps(replay)  # a checkpoint's part for it
        first = replay.next_instruction().seq
        replay = pickle.loads(state)
        assert replay.next_instruction().seq == first


class TestTraceDrivenProcessor:
    def test_processor_runs_from_trace(self, trace_path):
        profile = get_profile("gzip")
        proc = SMTProcessor(
            SMTConfig.tiny(), [profile], seed=0, policy=ICountPolicy(),
            streams=[TraceStream(trace_path)],
        )
        proc.run(2000)
        assert proc.stats.committed[0] > 0
        assert proc.check_invariants()

    def test_trace_and_generator_agree(self, trace_path):
        """Driving the pipeline from the recorded trace commits the same
        instructions as the live generator, until the trace wraps."""
        profile = get_profile("gzip")
        live = SMTProcessor(SMTConfig.tiny(), [profile], seed=4,
                            policy=ICountPolicy())
        replayed = SMTProcessor(
            SMTConfig.tiny(), [profile], seed=0, policy=ICountPolicy(),
            streams=[TraceStream(trace_path)],
        )
        # 400 recorded instructions at IPC < 2 keep us inside the trace
        # for a couple hundred cycles.
        live.run(150)
        replayed.run(150)
        assert live.stats.committed == replayed.stats.committed

    def test_stream_count_mismatch_rejected(self, trace_path):
        with pytest.raises(ValueError):
            SMTProcessor(
                SMTConfig.tiny(),
                [get_profile("gzip"), get_profile("eon")],
                streams=[TraceStream(trace_path)],
            )
