#!/usr/bin/env python
"""CI smoke check of the simulator's core lane.

``python scripts/bench_core.py --check`` runs two legs and exits 1 with
a diagnostic when either fails:

1. One MEM-heavy Figure 4 cell (art-mcf under FLUSH) on the paper
   machine config at the far-memory stress latency, on a trimmed window,
   under both shipped run loops (``_run_fast`` and ``_run_reference``,
   selected with ``forced_core``, no observer attached).  Both loops must
   simulate the same cycles and commit the same instructions; then the
   fast core's KIPS (thousands of committed instructions per wall
   second) must be at least the reference core's.  That cell's true
   speedup is ~2x, so the >= 1.0 gate has a wide margin against
   CI-runner noise.
2. The persisted-solo gate at smoke scale: sweep MEM2 x ICOUNT DCRA
   into a fresh result cache, forget every in-process SingleIPC, and
   sweep MEM2 x ICOUNT DCRA HILL on the same cache.  The second sweep
   must derive zero solo runs (it reads them from the cache) and its
   merged JSON must be byte-identical to an uncached sweep of the same
   grid.
"""

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.controller import EpochController  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    SweepEngine,
    merged_json,
    policy_factory,
)
from repro.experiments.runner import (  # noqa: E402
    ExperimentScale,
    clear_solo_cache,
    make_processor,
    solo_cache_info,
)
from repro.pipeline.fastpath import forced_core  # noqa: E402
from repro.workloads.mixes import get_workload  # noqa: E402

#: Far-memory stress latency (cycles) of the throughput leg.  The paper's
#: machine uses 300; 2000 models a disaggregated/CXL-class memory where
#: MEM-bound threads are quiescent for most of their cycles, which is
#: where the fast core's quiescence skipping has the most to say.
STRESS_MEM_LATENCY = 2000

#: The throughput leg's trimmed window: warm-up cycles, then epochs.
WARMUP_CYCLES = 5000
EPOCHS = 1


def timed_run(core):
    """Run the stress cell under ``core``; return ((cycles, committed),
    KIPS).

    Only the run loop is timed: construction and cache warming cost the
    same under either core and would dilute the ratio being gated.
    """
    base = ExperimentScale.full()
    scale = base.with_overrides(
        epochs=EPOCHS, warmup=WARMUP_CYCLES,
        config=replace(base.config, mem_latency=STRESS_MEM_LATENCY))
    proc = make_processor(get_workload("art-mcf"),
                          policy_factory("FLUSH", scale)(), scale,
                          warm=False)
    controller = EpochController(proc, epoch_size=scale.epoch_size)
    with forced_core(core):
        start = time.perf_counter()  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
        proc.run(scale.warmup)
        controller.run(scale.epochs)
        wall_s = time.perf_counter() - start  # repro: allow-nondeterminism[ND101] (throughput measurement, not results)
    committed = proc.stats.total_committed()
    return (proc.stats.cycles, committed), committed / 1000.0 / wall_s


def check_core_throughput():
    """The fast-vs-reference gate; returns an error line or ``None``."""
    work, kips = {}, {}
    for core in ("fast", "reference"):
        print("[bench] art-mcf / FLUSH @ mem=%d [%s]"
              % (STRESS_MEM_LATENCY, core))
        work[core], kips[core] = timed_run(core)
    print("[bench] fast %.1f KIPS vs reference %.1f KIPS"
          % (kips["fast"], kips["reference"]))
    if work["fast"] != work["reference"]:
        return ("cores disagree on simulated (cycles, committed): fast %r "
                "vs reference %r" % (work["fast"], work["reference"]))
    if kips["fast"] < kips["reference"]:
        return ("fast core slower than reference (%.1f < %.1f KIPS) on "
                "art-mcf/FLUSH @ mem=%d"
                % (kips["fast"], kips["reference"], STRESS_MEM_LATENCY))
    print("[bench] OK: fast-core speedup %.2fx"
          % (kips["fast"] / kips["reference"]))
    return None


def check_persisted_solos():
    """The persisted-solo gate; returns an error line or ``None``."""
    scale = ExperimentScale.smoke()
    extended_grid = {"groups": ["MEM2"],
                     "policies": ["ICOUNT", "DCRA", "HILL"]}
    with tempfile.TemporaryDirectory(prefix="bench-solos-") as cache_dir:
        SweepEngine(scale, cache_dir=cache_dir).sweep(
            groups=["MEM2"], policies=["ICOUNT", "DCRA"])
        clear_solo_cache()
        engine = SweepEngine(scale, cache_dir=cache_dir)
        cells, results = engine.sweep(**extended_grid)
        derived = solo_cache_info().misses
        extended = merged_json(cells, results, scale)
    clear_solo_cache()
    cells, results = SweepEngine(scale, use_cache=False).sweep(
        **extended_grid)
    print("[bench] solo gate: %d cached, %d simulated, %d solo run(s) "
          "derived" % (engine.stats["hits"], engine.stats["misses"],
                       derived))
    if derived:
        return ("extending a cached MEM2 grid derived %d SingleIPC "
                "run(s); expected 0 (all read from the cache)" % derived)
    if extended != merged_json(cells, results, scale):
        return ("extending a cached MEM2 grid is not byte-identical to "
                "an uncached sweep of the same grid")
    print("[bench] OK: persisted solos are read, not re-derived, and "
          "change no byte")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="run both legs: fast KIPS >= reference KIPS "
                             "on one stress cell, then the persisted-solo "
                             "identity gate")
    parser.parse_args(argv)
    for check in (check_core_throughput, check_persisted_solos):
        error = check()
        if error is not None:
            print("error: " + error, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
