"""Reliability subsystem: invariant checking, fault injection, sweep
supervision, chaos and the verify suite.

See ``docs/RELIABILITY.md`` for the full story; the short version:

* :mod:`repro.reliability.invariants` — per-epoch pipeline invariant
  verification (resource conservation, partition legality, monotone
  counters, checkpoint round-trip fidelity), raising structured
  :class:`InvariantViolation` errors.
* :mod:`repro.reliability.faults` — composable fault models perturbing
  the learning loop (memory-latency bursts, transient fetch stalls, RNG
  desync, partition-register corruption, misbehaving policies).
* :mod:`repro.reliability.supervisor` — cell-level containment for
  parallel sweeps: heartbeat timeouts, retry with deterministic backoff,
  pool rebuild after ``BrokenProcessPool``, a ``quarantine.jsonl``
  ledger, and graceful degrade to serial execution.
* :mod:`repro.reliability.chaos` — the ``python -m repro chaos``
  harness, one preset table for both tiers: configurable worker faults
  (SIGKILL at epoch N, hangs, corrupted payloads, flakes) for the
  supervisor, daemon faults via :mod:`repro.service.chaos`, and one
  fault-free reference proving each converges to the same merged
  results.
* :mod:`repro.reliability.verify` — the ``python -m repro verify``
  suite (clean invariants + fault matrix).
"""

from repro.reliability.faults import (
    FaultEvent,
    FaultInjector,
    MemoryLatencySpike,
    MisbehavingPolicy,
    PartitionScramble,
    RNGDesync,
    TransientFetchStall,
)
from repro.reliability.invariants import InvariantChecker, InvariantViolation
from repro.reliability.supervisor import (
    CellBootstrapError,
    CellResultError,
    CellSupervisor,
    QuarantineLedger,
    Supervision,
    SupervisorError,
    SweepAborted,
)
from repro.reliability.chaos import CHAOS_PRESETS, ChaosPlan, run_chaos
from repro.reliability.verify import run_verification

__all__ = [
    "CHAOS_PRESETS",
    "CellBootstrapError",
    "CellResultError",
    "CellSupervisor",
    "ChaosPlan",
    "FaultEvent",
    "FaultInjector",
    "InvariantChecker",
    "InvariantViolation",
    "MemoryLatencySpike",
    "MisbehavingPolicy",
    "PartitionScramble",
    "QuarantineLedger",
    "RNGDesync",
    "Supervision",
    "SupervisorError",
    "SweepAborted",
    "TransientFetchStall",
    "run_chaos",
    "run_verification",
]
