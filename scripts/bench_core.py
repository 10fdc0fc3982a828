#!/usr/bin/env python
"""Build ``BENCH_core.json`` (fast vs reference core throughput) or run
the CI smoke check.

Two modes:

``python scripts/bench_core.py --out BENCH_core.json``
    Full bench matrix (see :func:`repro.experiments.profiling.bench_document`):
    MEM-heavy Figure 4 cells under the fast and reference cores at the
    paper's memory latency and at the far-memory stress latency with
    per-cell speedups.  Takes several minutes on the paper machine
    config.

``python scripts/bench_core.py --check``
    CI smoke, two legs.  First one MEM-heavy Figure 4 cell (art-mcf
    under FLUSH) at the stress latency on a trimmed window, asserting
    the fast core's KIPS is at least the reference core's — that cell's
    true speedup is ~2x, so the >= 1.0 gate has a wide margin against
    CI-runner noise.  Then the persisted-solo gate at smoke scale: sweep
    MEM2 x ICOUNT DCRA into a fresh result cache, forget every in-process
    SingleIPC, and sweep MEM2 x ICOUNT DCRA HILL on the same cache.  The
    second sweep must derive zero solo runs (it reads them from the
    cache) and its merged JSON must be byte-identical to an uncached
    sweep of the same grid.  Exits 1 with a diagnostic on failure.
"""

import argparse
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.experiments.parallel import SweepEngine, merged_json  # noqa: E402
from repro.experiments.profiling import (  # noqa: E402
    STRESS_MEM_LATENCY,
    bench_document,
)
from repro.experiments.runner import (  # noqa: E402
    ExperimentScale,
    clear_solo_cache,
    solo_cache_info,
)


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
    return None


def run_check(epochs, warmup):
    """One stress cell, both cores, then the persisted-solo gate."""
    document = bench_document(epochs=epochs, warmup=warmup,
                              cells=(("art-mcf", "FLUSH"),),
                              mem_latencies=(STRESS_MEM_LATENCY,),
                              progress=lambda line: print("[bench] " + line))
    cell = document["cells"][0]
    fast, reference = cell["fast"], cell["reference"]
    print("[bench] fast %.1f KIPS (skip ratio %.3f) vs reference %.1f KIPS"
          % (fast["kips"], fast["skip_ratio"], reference["kips"]))
    if fast["committed"] != reference["committed"] \
            or fast["cycles"] != reference["cycles"]:
        print("error: cores disagree on simulated work: fast %r "
              "vs reference %r"
              % ((fast["cycles"], fast["committed"]),
                 (reference["cycles"], reference["committed"])),
              file=sys.stderr)
        return 1
    if fast["kips"] < reference["kips"]:
        print("error: fast core slower than reference "
              "(%.1f < %.1f KIPS) on art-mcf/FLUSH @ mem=%d"
              % (fast["kips"], reference["kips"], STRESS_MEM_LATENCY),
              file=sys.stderr)
        return 1
    print("[bench] OK: fast-core speedup %.2fx" % cell["speedup"])
    error = check_persisted_solos()
    if error is not None:
        print("error: " + error, file=sys.stderr)
        return 1
    print("[bench] OK: persisted solos are read, not re-derived, and "
          "change no byte")
    return 0


def run_full(out, epochs, warmup):
    document = bench_document(epochs=epochs, warmup=warmup,
                              progress=lambda line: print("[bench] " + line))
    with open(out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    best = max(document["cells"], key=lambda cell: cell["speedup"])
    print("[bench] %d cells written to %s; best speedup %.2fx "
          "(%s/%s @ mem=%d, skip ratio %.3f)"
          % (len(document["cells"]), out, best["speedup"],
             best["workload"], best["policy"], best["mem_latency"],
             best["fast"]["skip_ratio"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_core.json"),
                        metavar="FILE", help="where to write the document")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: one stress cell, assert fast KIPS "
                             ">= reference KIPS; then the persisted-solo "
                             "identity gate")
    parser.add_argument("--epochs", type=int, default=None,
                        help="measured epochs per run (default: 2 full, "
                             "1 for --check)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup cycles per run (default: 10000 full, "
                             "5000 for --check)")
    args = parser.parse_args(argv)
    if args.check:
        return run_check(epochs=args.epochs or 1,
                         warmup=args.warmup if args.warmup is not None
                         else 5000)
    return run_full(args.out, epochs=args.epochs or 2,
                    warmup=args.warmup if args.warmup is not None
                    else 10000)


if __name__ == "__main__":
    sys.exit(main())
