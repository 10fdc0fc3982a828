"""Three-level memory hierarchy: IL1 + DL1 backed by a unified L2 and main
memory, with the Table 1 latencies (1-cycle L1, 20-cycle L2, 300-cycle
memory first chunk).

Loads return an :class:`AccessResult` carrying the total latency and where
the access was satisfied; the pipeline uses ``missed_l2`` to drive the FLUSH
and STALL policies and DCRA's fast/slow classification.
"""

from repro.memory.cache import Cache

L1_LEVEL = "L1"
L2_LEVEL = "L2"
MEM_LEVEL = "MEM"


class AccessResult:
    """Outcome of one memory access.

    A plain ``__slots__`` record rather than a dataclass: one is built per
    memory access, which makes construction cost part of the simulator's
    per-instruction budget, and the miss flags are precomputed for the
    same reason.
    """

    __slots__ = ("latency", "level", "missed_l1", "missed_l2")

    def __init__(self, latency, level):
        self.latency = latency
        self.level = level  # L1_LEVEL, L2_LEVEL or MEM_LEVEL
        self.missed_l1 = level != L1_LEVEL
        self.missed_l2 = level == MEM_LEVEL

    def __repr__(self):
        return "AccessResult(latency=%r, level=%r)" % (self.latency, self.level)


class MemoryHierarchy:
    """IL1/DL1 + unified L2 + main memory.

    Parameters come from :class:`repro.pipeline.config.SMTConfig`; this class
    only needs the cache geometries and latencies.
    """

    def __init__(self, il1, dl1, ul2, mem_latency):
        if not (isinstance(il1, Cache) and isinstance(dl1, Cache) and isinstance(ul2, Cache)):
            raise TypeError("il1, dl1 and ul2 must be Cache instances")
        self.il1 = il1
        self.dl1 = dl1
        self.ul2 = ul2
        self.mem_latency = mem_latency

    def _access(self, l1, addr, now):
        hit, wait = l1.access(addr, now)
        if hit:
            # A hit on an in-flight line waits for the remaining fill (the
            # MSHR-merge case); a settled hit costs the L1 latency.
            return AccessResult(max(l1.latency, wait), L1_LEVEL)
        l2_hit, l2_wait = self.ul2.access(addr, now)
        if l2_hit:
            latency = l1.latency + max(self.ul2.latency, l2_wait)
            l1.set_fill(addr, now + latency)
            return AccessResult(latency, L2_LEVEL)
        latency = l1.latency + self.ul2.latency + self.mem_latency
        self.ul2.set_fill(addr, now + latency)
        l1.set_fill(addr, now + latency)
        return AccessResult(latency, MEM_LEVEL)

    def load(self, addr, now=0):
        """Data load through DL1 -> UL2 -> memory at cycle ``now``."""
        return self._access(self.dl1, addr, now)

    def store(self, addr, now=0):
        """Stores use the same lookup path as loads (write-allocate)."""
        return self._access(self.dl1, addr, now)

    def ifetch(self, addr, now=0):
        """Instruction fetch through IL1 -> UL2 -> memory."""
        return self._access(self.il1, addr, now)
