"""Gshare branch predictor: 2-bit counters indexed by PC XOR global history."""

from repro.branch.bimodal import COUNTER_MAX, WEAKLY_TAKEN


class GsharePredictor:
    """Global-history predictor with XOR indexing.

    The speculative history register is updated at prediction time and is
    pickled with the processor so checkpoint replay is exact.
    """

    def __init__(self, entries=8192):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.history_bits = entries.bit_length() - 1
        self.history_mask = (1 << self.history_bits) - 1
        self.table = [WEAKLY_TAKEN] * entries
        self.history = 0

    def _index(self, pc):
        return ((pc >> 2) ^ self.history) % self.entries

    def predict(self, pc):
        """Return the predicted direction (True = taken)."""
        return self.table[self._index(pc)] >= WEAKLY_TAKEN

    def update(self, pc, taken, history_at_predict=None):
        """Train the counter used for this branch.

        ``history_at_predict`` lets the caller train the entry that actually
        produced the prediction when updates happen out of order (at branch
        resolution rather than fetch).
        """
        if history_at_predict is None:
            index = self._index(pc)
        else:
            index = ((pc >> 2) ^ history_at_predict) % self.entries
        counter = self.table[index]
        if taken:
            if counter < COUNTER_MAX:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1

    def shift_history(self, taken):
        """Push the resolved/predicted direction into the history register."""
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
