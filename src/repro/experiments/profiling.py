"""Simulator throughput profiling: KIPS, skip ratios, stage accounting.

This is the wall-clock half of the core observability story.  The
in-simulator half — :class:`~repro.pipeline.profile.CoreProfile` — counts
cycles and skips without ever reading a clock, so it stays deterministic;
this harness wraps a run with ``time.perf_counter`` and turns the counters
into throughput numbers (KIPS = thousands of committed instructions per
wall second).

Two entry points:

* :func:`profile_run` — one (workload, policy, core) run, returning a flat
  JSON-ready record.  Construction and cache warming are *excluded* from
  the wall: they are identical for both cores and would dilute the
  fast/reference ratio that the record exists to expose.
* :func:`bench_document` — the ``BENCH_core.json`` builder: MEM-heavy
  Figure 4 cells under the fast and reference cores at the paper's
  memory latency and at a far-memory stress latency, with per-cell
  speedups.  The stress latency exists because skip headroom scales with
  memory latency: at the paper's 300 cycles the machine is rarely fully
  quiescent for long, while at 2000 cycles (CXL/disaggregated-memory
  territory) MEM-bound workloads spend most of their cycles waiting and
  the fast core's advantage is large.  Reporting both keeps the headline
  number honest.

Wall-clock reads never feed back into simulation: a profiled run's stats
are byte-identical to an unprofiled one's (see
``tests/test_core_equivalence.py``).
"""

import time
from dataclasses import replace

from repro.core.controller import EpochController
from repro.experiments.runner import ExperimentScale, make_processor
from repro.pipeline.fastpath import CORE_MODES, forced_core
from repro.pipeline.profile import CoreProfile

__all__ = ["profile_run", "bench_document", "BENCH_CELLS",
           "STRESS_MEM_LATENCY"]

#: (workload, policy) cells benchmarked by :func:`bench_document`: the
#: MEM-heaviest Figure 4 cells (MEM2 group x the Figure 4 policy set),
#: where quiescence skipping has the most to say.
BENCH_CELLS = (
    ("art-mcf", "ICOUNT"),
    ("art-mcf", "FLUSH"),
    ("art-mcf", "DCRA"),
    ("art-twolf", "ICOUNT"),
    ("art-twolf", "FLUSH"),
    ("art-twolf", "DCRA"),
)

#: Far-memory stress latency (cycles) for the second bench column.  The
#: paper's machine uses 300; 2000 models a disaggregated/CXL-class memory
#: where MEM-bound threads are quiescent for most of their cycles.
STRESS_MEM_LATENCY = 2000


def profile_run(workload, policy, scale, core="fast", epochs=None):
    """Profile one (workload, policy) run under the given core.

    Runs warmup plus ``epochs`` measured epochs (defaults to the scale's)
    with a :class:`~repro.pipeline.profile.CoreProfile` attached, timing
    the run loop only — processor construction and cache warming cost the
    same under either core and are excluded so the fast/reference ratio
    reflects the loops being compared.

    Returns a flat dict: identity (workload/policy/core), work done
    (cycles/committed/ipc), throughput (wall_s/kips) and the profile
    counters (executed/skipped cycles, skip events, skip ratio, per-stage
    active-cycle counts).
    """
    if core not in CORE_MODES:
        raise ValueError("core must be one of %s, got %r"
                         % ("/".join(CORE_MODES), core))
    proc = make_processor(workload, policy, scale, warm=False)
    proc.profile = profile = CoreProfile()
    controller = EpochController(proc, epoch_size=scale.epoch_size)
    with forced_core(core):
        start = time.perf_counter()  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
        if scale.warmup:
            proc.run(scale.warmup)
        controller.run(scale.epochs if epochs is None else epochs)
        wall_s = time.perf_counter() - start  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
    committed = proc.stats.total_committed()
    cycles = proc.stats.cycles
    record = {
        "workload": workload.name,
        "policy": policy.name,
        "core": core,
        "cycles": cycles,
        "committed": committed,
        "ipc": committed / max(cycles, 1),
        "wall_s": wall_s,
        "kips": committed / 1000.0 / wall_s if wall_s > 0 else 0.0,
    }
    record.update(profile.to_dict())
    return record


def _bench_scale(base, mem_latency, epochs, warmup):
    """The bench scale: paper config with one latency knob turned."""
    return base.with_overrides(
        epochs=epochs, warmup=warmup,
        config=replace(base.config, mem_latency=mem_latency))


def bench_document(scale=None, epochs=2, warmup=10000, cells=BENCH_CELLS,
                   mem_latencies=None, progress=None):
    """Build the ``BENCH_core.json`` document.

    Every cell in ``cells`` runs under the fast and reference cores at
    each memory latency (default: the base config's own latency plus the
    far-memory stress latency), on the paper machine config
    (``ExperimentScale.full()``) trimmed to ``epochs`` epochs after
    ``warmup`` cycles.  ``progress``, when given, is called with a
    one-line string before each run.
    """
    from repro.experiments.parallel import policy_factory
    from repro.workloads.mixes import get_workload

    base = ExperimentScale.full() if scale is None else scale
    if mem_latencies is None:
        mem_latencies = (base.config.mem_latency, STRESS_MEM_LATENCY)
    results = []
    for mem_latency in mem_latencies:
        cell_scale = _bench_scale(base, mem_latency, epochs, warmup)
        for workload_name, policy_name in cells:
            workload = get_workload(workload_name)
            cell = {"workload": workload_name, "policy": policy_name,
                    "mem_latency": mem_latency}
            for core in ("fast", "reference"):
                if progress is not None:
                    progress("%s / %s @ mem=%d [%s]"
                             % (workload_name, policy_name, mem_latency,
                                core))
                policy = policy_factory(policy_name, cell_scale)()
                record = profile_run(workload, policy, cell_scale,
                                     core=core)
                cell[core] = record
            fast_wall = cell["fast"]["wall_s"]
            cell["speedup"] = (cell["reference"]["wall_s"] / fast_wall
                               if fast_wall > 0 else 0.0)
            results.append(cell)
    return {
        "schema": "repro-bench-core/v2",
        "config": "paper",
        "epoch_size": base.epoch_size,
        "epochs": epochs,
        "warmup": warmup,
        "mem_latencies": list(mem_latencies),
        "cells": results,
    }
