"""Hybrid (tournament) branch predictor: gshare + bimodal with a meta
chooser, the Table 1 configuration (8192-entry gshare, 2048-entry bimodal,
8192-entry meta table).
"""

from dataclasses import dataclass

from repro.branch.bimodal import BimodalPredictor, COUNTER_MAX, WEAKLY_TAKEN
from repro.branch.gshare import GsharePredictor


@dataclass(frozen=True)
class Prediction:
    """One hybrid prediction plus the state needed to train it later."""

    taken: bool
    gshare_taken: bool
    bimodal_taken: bool
    history_at_predict: int


class HybridPredictor:
    """Meta-chooser tournament predictor.

    ``predict`` returns a :class:`Prediction` token; the pipeline passes it
    back to :meth:`update` at branch resolution so the component that made
    each prediction is trained against the recorded global history.
    """

    def __init__(self, gshare_entries=8192, bimodal_entries=2048, meta_entries=8192):
        self.gshare = GsharePredictor(gshare_entries)
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.meta_entries = meta_entries
        # Meta counter semantics: >= WEAKLY_TAKEN selects gshare.
        self.meta = [WEAKLY_TAKEN] * meta_entries
        self.mispredicts = 0
        self.lookups = 0

    def _meta_index(self, pc):
        return (pc >> 2) % self.meta_entries

    def predict(self, pc):
        """Predict the direction of the branch at ``pc``."""
        self.lookups += 1
        gshare_taken = self.gshare.predict(pc)
        bimodal_taken = self.bimodal.predict(pc)
        use_gshare = self.meta[self._meta_index(pc)] >= WEAKLY_TAKEN
        taken = gshare_taken if use_gshare else bimodal_taken
        prediction = Prediction(
            taken=taken,
            gshare_taken=gshare_taken,
            bimodal_taken=bimodal_taken,
            history_at_predict=self.gshare.history,
        )
        # Speculatively shift the predicted direction into the history, as
        # real front ends do.
        self.gshare.shift_history(taken)
        return prediction

    def update(self, pc, taken, prediction):
        """Train both components and the chooser with the resolved direction."""
        if prediction.taken != taken:
            self.mispredicts += 1
        self.gshare.update(pc, taken, prediction.history_at_predict)
        self.bimodal.update(pc, taken)
        gshare_correct = prediction.gshare_taken == taken
        bimodal_correct = prediction.bimodal_taken == taken
        if gshare_correct != bimodal_correct:
            index = self._meta_index(pc)
            counter = self.meta[index]
            if gshare_correct:
                if counter < COUNTER_MAX:
                    self.meta[index] = counter + 1
            elif counter > 0:
                self.meta[index] = counter - 1

    def repair_history(self, history):
        """Restore the global history after a squash (mispredict recovery)."""
        self.gshare.history = history & self.gshare.history_mask

    @property
    def mispredict_rate(self):
        if self.lookups == 0:
            return 0.0
        return self.mispredicts / self.lookups
