"""Core-throughput micro-benchmarks: fast vs reference run loop.

Times the same epoch window under both cores on a MEM-heavy Figure 4 cell
(art-mcf), where long main-memory stalls give the quiescence detector
something to skip.  The headroom scales with memory latency; these
benchmarks pin the paper's latency and the far-memory stress latency that
``scripts/bench_core.py --check`` gates on.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import make_processor
from repro.experiments.parallel import policy_factory
from repro.pipeline import processor
from repro.pipeline.fastpath import apply_skip, forced_core
from repro.workloads.mixes import get_workload

CORES = ("fast", "reference")

#: Far-memory latency (cycles) for the stress benchmarks; matches
#: ``STRESS_MEM_LATENCY`` in ``scripts/bench_core.py``.
FAR_MEM = 2000


def _warm_proc(scale, mem_latency=None):
    if mem_latency is not None:
        scale = scale.with_overrides(
            config=replace(scale.config, mem_latency=mem_latency))
    workload = get_workload("art-mcf")
    policy = policy_factory("FLUSH", scale)()
    return make_processor(workload, policy, scale, warm=True)


@pytest.mark.parametrize("core", CORES)
def test_core_throughput_paper_latency(benchmark, scale, core):
    proc = _warm_proc(scale)
    cycles = scale.epoch_size

    def run_epoch():
        with forced_core(core):
            proc.run(cycles)

    benchmark.pedantic(run_epoch, rounds=5, iterations=1)
    assert proc.stats.total_committed() > 0


@pytest.mark.parametrize("core", CORES)
def test_core_throughput_far_memory(benchmark, scale, core):
    proc = _warm_proc(scale, mem_latency=FAR_MEM)
    cycles = scale.epoch_size

    def run_epoch():
        with forced_core(core):
            proc.run(cycles)

    benchmark.pedantic(run_epoch, rounds=5, iterations=1)
    assert proc.stats.total_committed() > 0


def test_fast_core_skip_coverage(scale, monkeypatch):
    """Not a timing benchmark: records how much of the far-memory window
    the fast core skipped (the mechanism behind the speedup above)."""
    proc = _warm_proc(scale, mem_latency=FAR_MEM)
    skipped = []

    def counting_skip(machine, horizon):
        skipped.append(apply_skip(machine, horizon))
        return skipped[-1]

    monkeypatch.setattr(processor, "apply_skip", counting_skip)
    start = proc.stats.cycles
    with forced_core("fast"):
        proc.run(scale.epoch_size)
    assert proc.stats.cycles - start == scale.epoch_size
    assert sum(skipped) > 0
