"""Unit tests for the branch-prediction substrate.

A processor checkpoint (``pipeline.checkpoint``, a run's ``ckpt_*.pkl``)
is a pickle of the whole machine, so each ``test_snapshot_roundtrip``
pins that one predictor survives a pickle round-trip with its state.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch.bimodal import BimodalPredictor, COUNTER_MAX
from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.hybrid import HybridPredictor
from repro.branch.ras import ReturnAddressStack


class TestBimodal:
    def test_initial_prediction_is_taken(self):
        assert BimodalPredictor(64).predict(0) is True

    def test_learns_not_taken(self):
        predictor = BimodalPredictor(64)
        predictor.update(0, False)
        predictor.update(0, False)
        assert predictor.predict(0) is False

    def test_counter_saturates(self):
        predictor = BimodalPredictor(64)
        for __ in range(10):
            predictor.update(0, True)
        assert predictor.table[predictor._index(0)] == COUNTER_MAX

    def test_hysteresis(self):
        predictor = BimodalPredictor(64)
        for __ in range(4):
            predictor.update(0, True)
        predictor.update(0, False)  # one reversal does not flip
        assert predictor.predict(0) is True

    def test_pcs_alias_by_table_size(self):
        predictor = BimodalPredictor(4)
        predictor.update(0, False)
        predictor.update(0, False)
        assert predictor.predict(4 * 4) is False  # same index

    def test_snapshot_roundtrip(self):
        predictor = BimodalPredictor(64)
        predictor.update(8, False)
        expected = list(predictor.table)
        state = pickle.dumps(predictor)
        predictor.update(8, True)
        predictor = pickle.loads(state)
        assert predictor.table == expected

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            BimodalPredictor(0)


class TestGshare:
    def test_history_shifts(self):
        predictor = GsharePredictor(256)
        predictor.shift_history(True)
        predictor.shift_history(False)
        assert predictor.history == 0b10

    def test_history_masked(self):
        predictor = GsharePredictor(16)  # 4 bits of history
        for __ in range(10):
            predictor.shift_history(True)
        assert predictor.history == 0b1111

    def test_learns_history_pattern(self):
        """Alternating branch is perfectly predictable through history."""
        predictor = GsharePredictor(1024)
        outcome = True
        for __ in range(200):
            predictor.update(64, outcome)
            predictor.shift_history(outcome)
            outcome = not outcome
        correct = 0
        for __ in range(40):
            if predictor.predict(64) == outcome:
                correct += 1
            predictor.update(64, outcome)
            predictor.shift_history(outcome)
            outcome = not outcome
        assert correct >= 36

    def test_update_with_recorded_history(self):
        predictor = GsharePredictor(256)
        history = predictor.history
        predictor.shift_history(True)  # speculate past it
        predictor.update(0, False, history_at_predict=history)
        index = ((0 >> 2) ^ history) % 256
        assert predictor.table[index] == 1  # decremented from weakly-taken

    def test_snapshot_roundtrip(self):
        predictor = GsharePredictor(64)
        predictor.update(0, False)
        predictor.shift_history(True)
        expected = (list(predictor.table), predictor.history)
        state = pickle.dumps(predictor)
        predictor.shift_history(True)
        predictor = pickle.loads(state)
        assert (predictor.table, predictor.history) == expected


class TestHybrid:
    def test_prediction_token_carries_history(self):
        predictor = HybridPredictor(64, 64, 64)
        token = predictor.predict(0)
        assert token.history_at_predict == 0
        # history shifted speculatively
        assert predictor.gshare.history == int(token.taken)

    def test_learns_biased_site(self):
        predictor = HybridPredictor(256, 256, 256)
        for __ in range(50):
            token = predictor.predict(40)
            predictor.update(40, False, token)
        token = predictor.predict(40)
        assert token.taken is False

    def test_meta_chooser_moves_toward_better_component(self):
        predictor = HybridPredictor(256, 256, 256)
        rng = random.Random(7)
        # Strongly biased site: bimodal is reliable, gshare suffers from a
        # noisy history another site injects.
        for __ in range(300):
            noisy = rng.random() < 0.5
            token = predictor.predict(80)
            predictor.update(80, True, token)
            predictor.gshare.shift_history(noisy)
        token = predictor.predict(80)
        assert token.taken is True

    def test_mispredict_rate_tracked(self):
        predictor = HybridPredictor(64, 64, 64)
        token = predictor.predict(0)
        predictor.update(0, not token.taken, token)
        assert predictor.mispredicts == 1
        assert predictor.mispredict_rate == 1.0

    def test_repair_history(self):
        predictor = HybridPredictor(64, 64, 64)
        predictor.predict(0)
        predictor.predict(4)
        predictor.repair_history(0b1)
        assert predictor.gshare.history == 0b1

    def test_snapshot_roundtrip(self):
        predictor = HybridPredictor(64, 64, 64)
        token = predictor.predict(0)
        predictor.update(0, True, token)
        meta = list(predictor.meta)
        state = pickle.dumps(predictor)
        token = predictor.predict(8)
        predictor.update(8, False, token)
        predictor = pickle.loads(state)
        assert predictor.lookups == 1
        assert predictor.meta == meta


class TestBTB:
    def test_miss_returns_none(self):
        assert BranchTargetBuffer(64, 4).lookup(0) is None

    def test_insert_then_hit(self):
        btb = BranchTargetBuffer(64, 4)
        btb.insert(0, 1234)
        assert btb.lookup(0) == 1234

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(8, 2)  # 4 sets, 2 ways
        stride = 4 * 4  # same set
        btb.insert(0 * stride, 1)
        btb.insert(1 * stride, 2)
        btb.insert(2 * stride, 3)  # evicts the first
        assert btb.lookup(0) is None
        assert btb.lookup(stride) == 2

    def test_update_existing_entry(self):
        btb = BranchTargetBuffer(64, 4)
        btb.insert(0, 1)
        btb.insert(0, 2)
        assert btb.lookup(0) == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(10, 4)

    def test_snapshot_roundtrip(self):
        btb = BranchTargetBuffer(64, 4)
        btb.insert(0, 1)
        state = pickle.dumps(btb)
        btb.insert(4, 2)
        btb = pickle.loads(state)
        assert btb.lookup(4) is None
        assert btb.lookup(0) == 1


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(8)
        ras.push(100)
        ras.push(200)
        assert ras.pop() == 200
        assert ras.pop() == 100

    def test_empty_pop_returns_none(self):
        assert ReturnAddressStack(8).pop() is None

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(4)
        for value in range(6):
            ras.push(value)
        # Stack holds the 4 most recent; oldest were overwritten.
        assert ras.pop() == 5
        assert ras.pop() == 4
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_len(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.push(2)
        assert len(ras) == 2
        ras.pop()
        assert len(ras) == 1

    def test_snapshot_roundtrip(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        state = pickle.dumps(ras)
        ras.pop()
        ras = pickle.loads(state)
        assert ras.pop() == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=30))
def test_property_ras_is_lifo_within_capacity(values):
    ras = ReturnAddressStack(64)
    for value in values:
        ras.push(value)
    for value in reversed(values):
        assert ras.pop() == value
    assert ras.pop() is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
                min_size=1, max_size=200))
def test_property_hybrid_counts_consistent(events):
    predictor = HybridPredictor(128, 128, 128)
    for pc, taken in events:
        token = predictor.predict(pc)
        predictor.update(pc, taken, token)
    assert predictor.lookups == len(events)
    assert 0 <= predictor.mispredicts <= predictor.lookups
