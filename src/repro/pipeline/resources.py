"""Per-thread resource partition registers.

Following Section 3.1.2 of the paper, learning partitions a *single* unit
resource — the integer rename registers — and the integer issue queue and
ROB partitions are derived in proportion.  :class:`PartitionRegisters`
holds the per-thread limits for the three partitioned structures and
performs the proportional derivation; ``None`` limits mean the structure is
unpartitioned (baseline policies like ICOUNT/FLUSH run this way).
"""

import enum


class ResourceKind(enum.Enum):
    """The three explicitly partitioned shared structures (Figure 3)."""

    INT_RENAME = "int_rename"
    INT_IQ = "int_iq"
    ROB = "rob"


class PartitionRegisters:
    """Partition limits for each thread in each partitioned structure.

    The canonical setting is a vector of integer-rename-register *shares*
    (one per thread, summing to the rename pool size); IQ and ROB limits
    are scaled proportionally.  This mirrors the paper's observation that
    per-thread usage of the three structures is correlated, so one knob
    suffices.
    """

    def __init__(self, config, num_threads):
        self.config = config
        self.num_threads = num_threads
        self.shares = None  # the int-rename shares, or None if unpartitioned
        self.limit_int_rename = [config.rename_int] * num_threads
        self.limit_int_iq = [config.iq_int_size] * num_threads
        self.limit_rob = [config.rob_size] * num_threads
        #: Number of :meth:`sanitize` repairs performed over this register
        #: file's lifetime (reliability accounting).
        self.repair_count = 0

    @property
    def partitioned(self):
        return self.shares is not None

    def clear(self):
        """Remove partitioning: every thread may use every entry."""
        config = self.config
        self.shares = None
        self.limit_int_rename = [config.rename_int] * self.num_threads
        self.limit_int_iq = [config.iq_int_size] * self.num_threads
        self.limit_rob = [config.rob_size] * self.num_threads

    def set_shares(self, shares):
        """Program the partition registers from integer-rename shares.

        ``shares`` must have one entry per thread and sum to the rename
        pool size; each entry must respect the configured minimum.
        """
        config = self.config
        shares = [int(share) for share in shares]
        if len(shares) != self.num_threads:
            raise ValueError(
                "expected %d shares, got %d" % (self.num_threads, len(shares))
            )
        if sum(shares) != config.rename_int:
            raise ValueError(
                "shares must sum to %d, got %d (%r)"
                % (config.rename_int, sum(shares), shares)
            )
        for share in shares:
            if share < config.min_partition:
                raise ValueError(
                    "share %d below minimum partition %d" % (share, config.min_partition)
                )
        self.shares = list(shares)
        self.limit_int_rename = list(shares)
        self.limit_int_iq = self._proportional(shares, config.iq_int_size)
        self.limit_rob = self._proportional(shares, config.rob_size)

    def set_limits_directly(self, int_rename=None, int_iq=None, rob=None):
        """Set raw per-thread caps (used by DCRA, which computes its own
        per-structure limits rather than deriving them from one knob)."""
        if int_rename is not None:
            self.limit_int_rename = list(int_rename)
        if int_iq is not None:
            self.limit_int_iq = list(int_iq)
        if rob is not None:
            self.limit_rob = list(rob)
        self.shares = None

    def _proportional(self, shares, capacity):
        """Scale rename shares onto a structure of ``capacity`` entries,
        rounding while conserving the total."""
        total = self.config.rename_int
        limits = [max(1, (share * capacity) // total) for share in shares]
        # Distribute rounding slack to the largest shares, preserving order.
        slack = capacity - sum(limits)
        order = sorted(range(len(shares)), key=lambda i: shares[i], reverse=True)
        index = 0
        while slack > 0:
            limits[order[index % len(order)]] += 1
            slack -= 1
            index += 1
        return limits

    # -- robustness --------------------------------------------------------

    def legality_error(self):
        """Describe what is illegal about the current register state, or
        return ``None`` when every limit is well-formed.

        Written defensively: it must not itself crash on wrong-length or
        non-numeric limit lists (the fault injector produces both).
        """
        config = self.config
        num = self.num_threads
        for name, limits in (("int_rename", self.limit_int_rename),
                             ("int_iq", self.limit_int_iq),
                             ("rob", self.limit_rob)):
            if not isinstance(limits, list) or len(limits) != num:
                return "%s limits malformed: %r" % (name, limits)
            for value in limits:
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 1:
                    return "%s limit %r not a positive int" % (name, value)
        if self.shares is None:
            return None
        shares = self.shares
        if not isinstance(shares, list) or len(shares) != num:
            return "shares malformed: %r" % (shares,)
        for share in shares:
            if not isinstance(share, int) or isinstance(share, bool):
                return "share %r not an int" % (share,)
            if share < config.min_partition:
                return "share %d below minimum %d" % (share, config.min_partition)
        if sum(shares) != config.rename_int:
            return "shares sum %d != rename pool %d" % (sum(shares),
                                                        config.rename_int)
        return None

    def sanitize(self):
        """Detect and repair illegal register state in place.

        A misbehaving policy (or injected fault) can leave the partition
        registers out of range, non-conserving, or structurally malformed;
        left alone, the pipeline would either crash (wrong-length limit
        lists) or silently starve/oversubscribe threads.  This clamps and
        re-normalizes instead: legal shares are re-derived when possible,
        otherwise the registers fall back to an equal split (or to
        unpartitioned defaults when shares were never programmed).

        Returns a description of the repair, or ``None`` if the state was
        already legal.  Repairs are counted in :attr:`repair_count`.
        """
        problem = self.legality_error()
        if problem is None:
            return None
        if self.shares is None:
            self.clear()
        else:
            try:
                self.set_shares(sanitize_shares(
                    self.shares, self.config.rename_int,
                    self.config.min_partition, self.num_threads))
            except ValueError:
                # No legal share vector exists (e.g. the minimum partition
                # cannot be honoured for this thread count): fail open to
                # the unpartitioned machine rather than crash.
                self.clear()
        self.repair_count = getattr(self, "repair_count", 0) + 1
        return problem


def sanitize_shares(shares, total, minimum, num_threads):
    """Coerce an arbitrary (possibly garbage) share vector into a legal one.

    Guarantees: the result has ``num_threads`` entries, each at least
    ``minimum`` (or the largest feasible floor when ``minimum *
    num_threads > total``), summing exactly to ``total``.  Recoverable
    inputs are clamped and re-normalized with largest-remainder rounding;
    structurally hopeless inputs (wrong length, non-numeric) fall back to
    an equal split.
    """
    if minimum * num_threads > total:
        minimum = total // num_threads
    try:
        cleaned = [int(share) for share in shares]
    except (TypeError, ValueError):
        cleaned = None
    if cleaned is None or len(cleaned) != num_threads:
        cleaned = None
    if cleaned is not None:
        ceiling = total - minimum * (num_threads - 1)
        cleaned = [min(max(share, minimum), ceiling) for share in cleaned]
        # Re-normalize to the exact total: walk threads from the largest
        # share down, adding or shaving one register at a time (never
        # below the minimum), so relative preferences survive the repair.
        order = sorted(range(num_threads),
                       key=lambda i: (-cleaned[i], i))
        deficit = total - sum(cleaned)
        index = 0
        stuck = 0
        while deficit != 0 and stuck < num_threads:
            tid = order[index % num_threads]
            index += 1
            if deficit > 0:
                cleaned[tid] += 1
                deficit += -1
                stuck = 0
            elif cleaned[tid] > minimum:
                cleaned[tid] -= 1
                deficit += 1
                stuck = 0
            else:
                stuck += 1
        if deficit != 0:
            cleaned = None
    if cleaned is None:
        base = total // num_threads
        cleaned = [base] * num_threads
        for index in range(total - base * num_threads):
            cleaned[index] += 1
    return cleaned


def equal_shares(config, num_threads):
    """An equal split of the integer rename registers (the hill climber's
    initial anchor), conserving the exact total."""
    base = config.rename_int // num_threads
    shares = [base] * num_threads
    for index in range(config.rename_int - base * num_threads):
        shares[index] += 1
    return shares
