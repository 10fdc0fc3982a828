"""Tests for partition registers and share arithmetic."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import clamp_shares, grid_size, share_grid, shift_shares
from repro.pipeline.config import SMTConfig
from repro.pipeline.resources import PartitionRegisters, equal_shares


def make_registers(num_threads=2):
    return PartitionRegisters(SMTConfig.tiny(), num_threads)


class TestPartitionRegisters:
    def test_unpartitioned_by_default(self):
        registers = make_registers()
        assert not registers.partitioned
        assert registers.limit_int_rename == [32, 32]

    def test_set_shares(self):
        registers = make_registers()
        registers.set_shares([8, 24])
        assert registers.partitioned
        assert registers.limit_int_rename == [8, 24]

    def test_proportional_iq_and_rob(self):
        registers = make_registers()
        registers.set_shares([8, 24])
        config = registers.config
        assert sum(registers.limit_int_iq) == config.iq_int_size
        assert sum(registers.limit_rob) == config.rob_size
        assert registers.limit_rob[1] > registers.limit_rob[0]
        assert registers.limit_int_iq[1] > registers.limit_int_iq[0]

    def test_clear(self):
        registers = make_registers()
        registers.set_shares([8, 24])
        registers.clear()
        assert not registers.partitioned
        assert registers.limit_rob == [64, 64]

    def test_wrong_thread_count_rejected(self):
        with pytest.raises(ValueError):
            make_registers().set_shares([32])

    def test_wrong_sum_rejected(self):
        with pytest.raises(ValueError):
            make_registers().set_shares([8, 8])

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            make_registers().set_shares([1, 31])

    def test_direct_limits(self):
        registers = make_registers()
        registers.set_limits_directly(int_rename=[10, 20], int_iq=[4, 8],
                                      rob=[30, 30])
        assert registers.limit_int_rename == [10, 20]
        assert registers.limit_int_iq == [4, 8]
        assert registers.limit_rob == [30, 30]
        assert not registers.partitioned  # direct caps are not shares

    def test_snapshot_roundtrip(self):
        registers = make_registers()
        registers.set_shares([8, 24])
        state = pickle.dumps(registers)  # a checkpoint's part for them
        registers.clear()
        registers = pickle.loads(state)
        assert registers.shares == [8, 24]
        assert registers.limit_int_rename == [8, 24]

    def test_four_threads(self):
        registers = make_registers(4)
        registers.set_shares([8, 8, 8, 8])
        assert sum(registers.limit_rob) == registers.config.rob_size


class TestEqualShares:
    def test_exact_division(self):
        assert equal_shares(SMTConfig.tiny(), 2) == [16, 16]

    def test_remainder_distributed(self):
        shares = equal_shares(SMTConfig.tiny(), 3)
        assert sum(shares) == 32
        assert max(shares) - min(shares) <= 1


class TestClampShares:
    def test_identity_when_legal(self):
        assert clamp_shares([10, 22], 32, 2) == [10, 22]

    def test_raises_when_infeasible(self):
        with pytest.raises(ValueError):
            clamp_shares([1, 1], 32, 17)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clamp_shares([], 32, 2)

    def test_clamps_below_minimum(self):
        result = clamp_shares([0, 32], 32, 4)
        assert result[0] >= 4
        assert sum(result) == 32

    def test_deficit_taken_from_largest(self):
        result = clamp_shares([30, 30], 32, 2)
        assert sum(result) == 32
        assert min(result) >= 2


class TestShiftShares:
    def test_favored_gains(self):
        result = shift_shares([16, 16], favored=0, delta=4, total=32, minimum=2)
        assert result == [20, 12]

    def test_multi_thread_shift(self):
        result = shift_shares([8, 8, 8, 8], favored=2, delta=2, total=32,
                              minimum=2)
        assert result == [6, 6, 14, 6]

    def test_respects_minimum(self):
        result = shift_shares([4, 28], favored=1, delta=4, total=32, minimum=4)
        assert result[0] >= 4
        assert sum(result) == 32


class TestShareGrid:
    def test_two_thread_grid(self):
        grid = list(share_grid(2, 32, 2, 8))
        assert all(sum(shares) == 32 for shares in grid)
        assert all(min(shares) >= 2 for shares in grid)
        assert [shares[0] for shares in grid] == [2, 10, 18, 26]

    def test_grid_size_matches(self):
        assert grid_size(2, 32, 2, 8) == 4

    def test_three_thread_grid_covers_space(self):
        grid = list(share_grid(3, 32, 4, 8))
        assert grid
        for shares in grid:
            assert sum(shares) == 32
            assert min(shares) >= 4

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            list(share_grid(2, 32, 2, 0))

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            list(share_grid(4, 8, 4, 2))


@settings(max_examples=100, deadline=None)
@given(
    shares=st.lists(st.integers(-50, 300), min_size=2, max_size=6),
    minimum=st.integers(1, 8),
)
def test_property_clamp_always_legal(shares, minimum):
    total = 128
    if total < minimum * len(shares):
        return
    result = clamp_shares(shares, total, minimum)
    assert sum(result) == total
    assert all(share >= minimum for share in result)
    assert len(result) == len(shares)


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(2, 5),
    favored=st.integers(0, 4),
    delta=st.integers(1, 16),
)
def test_property_shift_preserves_total(count, favored, delta):
    if favored >= count:
        return
    anchor = equal_shares(SMTConfig.fast(), count)
    result = shift_shares(anchor, favored, delta, 128, 4)
    assert sum(result) == 128
    assert all(share >= 4 for share in result)
    # the favored thread never loses
    assert result[favored] >= anchor[favored]


@settings(max_examples=50, deadline=None)
@given(stride=st.integers(1, 32))
def test_property_grid_deterministic_and_legal(stride):
    first = list(share_grid(2, 128, 4, stride))
    second = list(share_grid(2, 128, 4, stride))
    assert first == second
    assert all(sum(shares) == 128 for shares in first)
