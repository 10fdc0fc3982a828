"""A set-associative cache with true-LRU replacement.

This is a functional (hit/miss) model: it tracks tag state only, not data.
It is deterministic and its whole state pickles with the processor, which
the OFF-LINE learner relies on to replay an epoch from a checkpoint
bit-identically.
"""

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Running hit/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self):
        return self.accesses - self.misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def copy(self):
        return CacheStats(self.accesses, self.misses)


@dataclass
class Cache:
    """Set-associative cache with LRU replacement and fill-time tracking.

    A line allocated on a miss is tagged with the *fill time* the caller
    supplies (via :meth:`set_fill`): until that cycle, further accesses to
    the line "hit under fill" and must wait for the remaining fill latency,
    like loads merged into an MSHR.  Without this, a load squashed after
    issue would find its line magically present on re-execution, making
    flush-style policies nearly free.

    Parameters
    ----------
    name:
        Label used in reports (e.g. ``"DL1"``).
    size_bytes:
        Total capacity in bytes.
    block_bytes:
        Line size in bytes; must be a power of two.
    assoc:
        Associativity (ways per set).
    latency:
        Hit latency in cycles (reported by the hierarchy, not used here).
    """

    name: str
    size_bytes: int
    block_bytes: int
    assoc: int
    latency: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        self.num_sets = self.size_bytes // (self.block_bytes * self.assoc)
        if self.num_sets < 1:
            raise ValueError(
                "cache %s has no sets: size=%d block=%d assoc=%d"
                % (self.name, self.size_bytes, self.block_bytes, self.assoc)
            )
        self._block_shift = self.block_bytes.bit_length() - 1
        # One dict per set mapping tag -> [last-use stamp, fill time].  The
        # dict is both the presence test and, via the stamps, the LRU order.
        self._sets = [dict() for __ in range(self.num_sets)]
        self._stamp = 0

    def _index_tag(self, addr):
        block = addr >> self._block_shift
        return block % self.num_sets, block // self.num_sets

    def access(self, addr, now=0):
        """Look up ``addr``; allocate on miss.

        Returns (hit, wait): ``hit`` is True when the line was present;
        ``wait`` is the remaining fill delay when the line is still in
        flight (0 for a settled line or a fresh miss — the caller assigns
        the new line's fill time via :meth:`set_fill`).
        """
        # _index_tag inlined: this is the hottest method in the memory
        # model (one call per load/store/fetch-block probe).
        block = addr >> self._block_shift
        num_sets = self.num_sets
        cache_set = self._sets[block % num_sets]
        tag = block // num_sets
        stamp = self._stamp + 1
        self._stamp = stamp
        stats = self.stats
        stats.accesses += 1
        entry = cache_set.get(tag)
        if entry is not None:
            entry[0] = stamp
            wait = entry[1] - now
            return True, wait if wait > 0 else 0
        stats.misses += 1
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=lambda key: cache_set[key][0])
            del cache_set[victim]
        cache_set[tag] = [stamp, now]
        return False, 0

    def set_fill(self, addr, fill_time):
        """Record when the (just-allocated) line's data arrives."""
        index, tag = self._index_tag(addr)
        entry = self._sets[index].get(tag)
        if entry is not None:
            entry[1] = fill_time

    def probe(self, addr):
        """Check for presence without updating LRU state or stats."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def flush(self):
        """Invalidate every line (stats are preserved)."""
        for cache_set in self._sets:
            cache_set.clear()
