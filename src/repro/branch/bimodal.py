"""Bimodal branch predictor: a table of 2-bit saturating counters indexed by
the branch PC."""

WEAKLY_NOT_TAKEN = 1
WEAKLY_TAKEN = 2
COUNTER_MAX = 3


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters.

    Counters start weakly-taken, matching the usual SimpleScalar
    initialisation.
    """

    def __init__(self, entries=2048):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.table = [WEAKLY_TAKEN] * entries

    def _index(self, pc):
        return (pc >> 2) % self.entries

    def predict(self, pc):
        """Return the predicted direction (True = taken)."""
        return self.table[self._index(pc)] >= WEAKLY_TAKEN

    def update(self, pc, taken):
        """Train the counter for ``pc`` with the resolved direction."""
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            if counter < COUNTER_MAX:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1
