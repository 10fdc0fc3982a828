#!/usr/bin/env python
"""Build ``BENCH_core.json`` (fast vs reference core throughput) or run
the CI smoke check.

Two modes:

``python scripts/bench_core.py --out BENCH_core.json``
    Full bench matrix (see :func:`repro.experiments.profiling.bench_document`):
    MEM-heavy Figure 4 cells under the fast and reference cores at the
    paper's memory latency and at the far-memory stress latency with
    per-cell speedups, plus the ``"grid"`` section — a fig4-style sweep
    grid timed end to end under two lanes (per-cell hermetic fast and
    per-cell fast sharing the in-process SingleIPC cache; see
    :func:`repro.experiments.profiling.bench_grid`).  Takes several
    minutes on the paper machine config.

``python scripts/bench_core.py --check``
    CI smoke, two legs.  First one MEM-heavy Figure 4 cell (art-mcf
    under FLUSH) at the stress latency on a trimmed window, asserting
    the fast core's KIPS is at least the reference core's — that cell's
    true speedup is ~2x, so the >= 1.0 gate has a wide margin against
    CI-runner noise.  Then a four-cell MEM2 grid through both lanes,
    asserting the lanes stayed byte-identical (bench_grid raises
    otherwise) and the shared-solo ``fast-serial`` lane's aggregate
    KIPS is at least the hermetic fast lane's.  Exits 1 with a
    diagnostic on failure.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.experiments.profiling import (  # noqa: E402
    STRESS_MEM_LATENCY,
    bench_document,
    bench_grid,
)


def run_check(epochs, warmup):
    """One stress cell, both cores, then a small two-lane grid."""
    document = bench_document(epochs=epochs, warmup=warmup,
                              cells=(("art-mcf", "FLUSH"),),
                              mem_latencies=(STRESS_MEM_LATENCY,),
                              progress=lambda line: print("[bench] " + line),
                              grid=False)
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
    # Leg two: solo sharing on a small MEM-bound grid.  bench_grid
    # raises if the lanes' results diverge, so reaching the KIPS gate
    # already proves byte-identity.
    grid = bench_grid(epochs=epochs, warmup=warmup, groups=("MEM2",),
                      policies=("ICOUNT", "FLUSH"), workloads_per_group=2,
                      progress=lambda line: print("[bench] " + line))
    fast_lane, serial = grid["lanes"]["fast"], grid["lanes"]["fast-serial"]
    print("[bench] grid (%d cells): fast %.1f KIPS vs fast-serial %.1f KIPS"
          % (grid["cells"], fast_lane["kips"], serial["kips"]))
    if serial["kips"] < fast_lane["kips"]:
        print("error: fast-serial lane slower than hermetic fast "
              "(%.1f < %.1f aggregate KIPS) on the MEM2 smoke grid"
              % (serial["kips"], fast_lane["kips"]), file=sys.stderr)
        return 1
    print("[bench] OK: solo-sharing speedup %.2fx"
          % serial["speedup_vs_fast"])
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
    grid = document["grid"]
    print("[bench] grid (%d cells @ mem=%d): fast-serial %.2fx over "
          "hermetic fast"
          % (grid["cells"], grid["mem_latency"],
             grid["lanes"]["fast-serial"]["speedup_vs_fast"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_core.json"),
                        metavar="FILE", help="where to write the document")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: one stress cell, assert fast KIPS "
                             ">= reference KIPS")
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
