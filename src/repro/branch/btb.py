"""Branch target buffer: a small set-associative LRU tag store mapping branch
PCs to targets (Table 1: 2048 entries, 4-way)."""


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, entries=2048, assoc=4):
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets = [dict() for __ in range(self.num_sets)]
        self._stamp = 0

    def _index_tag(self, pc):
        word = pc >> 2
        return word % self.num_sets, word // self.num_sets

    def lookup(self, pc):
        """Return the cached target for ``pc`` or None on a BTB miss."""
        index, tag = self._index_tag(pc)
        entry = self._sets[index].get(tag)
        if entry is None:
            return None
        self._stamp += 1
        target, __ = entry
        self._sets[index][tag] = (target, self._stamp)
        return target

    def insert(self, pc, target):
        """Record the resolved target for ``pc``."""
        index, tag = self._index_tag(pc)
        btb_set = self._sets[index]
        self._stamp += 1
        if tag not in btb_set and len(btb_set) >= self.assoc:
            victim = min(btb_set, key=lambda key: btb_set[key][1])
            del btb_set[victim]
        btb_set[tag] = (target, self._stamp)
