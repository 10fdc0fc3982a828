"""Warm reads of a fully cached sweep grid, in one long-lived process.

Each repetition builds a fresh ``SweepEngine`` over the cache directory,
calls ``run_cells`` and ``merged_json``, and checks the merged bytes
against the expected sha256 (a mismatch or a cache miss is a failed
repetition).  The process serves bursts so that warm samples are spread
over the whole run: each stdin line ``[seconds, min_reps]`` runs one
burst and answers one JSON line ``{"times_ms": [...], "failed": n}``.
At end of input a traced reader prints its trace summary::

    python3 perfbench/warm.py SPEC.json
"""

import hashlib
import json
import os
import sys
import time


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    from repro.experiments.parallel import SweepEngine, grid_cells, merged_json
    from repro.experiments.runner import ExperimentScale

    scale = getattr(ExperimentScale, spec["scale"])().with_overrides(
        **spec["overrides"])
    cells = grid_cells(groups=spec["groups"], policies=spec["policies"],
                       seeds=(scale.seed,),
                       workloads_per_group=spec["workloads_per_group"])

    def read():
        engine = SweepEngine(scale, jobs=1, cache_dir=spec["cache_dir"])
        results = engine.run_cells(cells)
        return engine, merged_json(cells, results, scale,
                                   quarantined=engine.quarantined)

    if tracer is not None:
        read = tracer.wrap(read, "root")
    for line in sys.stdin:
        seconds, min_reps = json.loads(line)
        times_ms, failed = [], 0
        deadline = time.perf_counter() + seconds
        while len(times_ms) < min_reps or time.perf_counter() < deadline:
            start = time.perf_counter()
            engine, text = read()
            times_ms.append((time.perf_counter() - start) * 1000.0)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != spec["digest"] or engine.stats["misses"]:
                failed += 1
        print(json.dumps({"times_ms": times_ms, "failed": failed}),
              flush=True)
    if tracer is not None:
        summary = tracer.summary()
        del summary["records"]
        print(json.dumps({"trace": summary}), flush=True)


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    main(sys.argv[1])
