"""Span tracer for the per-layer benchmark run.

Wraps the public entry points of each simulator layer with
``perf_counter`` spans from outside the program (nothing under ``src/``
changes), then hands over to ``repro.cli.main``.  Run as a script it is a
drop-in for ``python -m repro``::

    python3 perfbench/tracer.py TRACE.json -- sweep --scale bench ...
    python3 perfbench/tracer.py TRACE.json -- worker --server URL

and writes ``TRACE.json`` when the command exits (also on SIGTERM).

Every span has a name, a start, an end and a parent.  Self time is the
span's duration minus the time its child spans cover.  Coarse spans
(cells, SingleIPC runs, cache and merge calls, supervision) are kept as
individual records; the per-instruction, per-access and per-hook spans
run millions of times, so they are aggregated in memory as count, total
and self time per name at the moment they end — the same numbers,
without one record per call.
"""

import json
import os
import signal
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: span name -> accounting bucket.  Every span's self time lands in
#: exactly one bucket; the remainder of the traced wall time is
#: ``other`` (the root span's self time).
BUCKETS = {
    "workloads.next_instruction": "workloads",
    "branch.predict": "branch",
    "branch.update": "branch",
    "branch.btb_lookup": "branch",
    "branch.btb_insert": "branch",
    "memory.load": "memory",
    "memory.store": "memory",
    "memory.ifetch": "memory",
    "pipeline.run": "pipeline",
    "pipeline.apply_skip": "pipeline",
    "pipeline.horizon": "pipeline.horizon",
    "policies.hook": "policies",
    "core.begin_epoch": "core",
    "core.finish_epoch": "core",
    "core.plan_epoch": "core",
    "core.on_epoch_end": "core",
    "solo": "experiments",
    "cell": "experiments",
    "fingerprint": "fingerprint",
    "cache.key": "cache.key",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "merge": "merge",
    "reliability": "reliability",
    "service.submit": "service.submit",
    "service.status": "service.status",
    "service.result": "service.result",
    "root": "other",
}

#: Spans kept as individual (name, start, end, parent) records.
RECORDED = frozenset({"root", "cell", "solo", "fingerprint", "cache.key",
                      "cache.get", "cache.put", "merge", "reliability",
                      "service.submit", "service.status",
                      "service.result"})

POLICY_HOOKS = ("fetch_priority", "on_cycle", "on_l2_miss_detected",
                "on_load_complete", "on_squash", "quiescent_wake",
                "on_quiesce")


class Tracer:
    """In-memory span stack with per-name aggregates.

    One stack serves the process: traced calls come from one thread at a
    time (while a worker's simulation thread runs, its main thread only
    waits and sends heartbeats, which are not traced).
    """

    def __init__(self):
        self._stack = []          # [name, child_seconds, record_index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.records = []         # [name, start, end, parent_index]

    def wrap(self, fn, name, after=None):
        """``fn`` with a span around every call.

        A call nested directly in a span of the same name is not counted
        again (a subclass hook calling ``super()``), but its time still
        splits correctly.  ``after(args, result, tracer)`` runs outside
        the span, so counting costs nothing in the layer's self time.
        """
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        records = self.records if name in RECORDED else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = None
            if records is not None:
                index = len(records)
                records.append([name, 0.0, 0.0, self._record_parent()])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[0] != name:
                    calls[name] += 1
                    incl_s[name] += duration
                if index is not None:
                    records[index][1] = start
                    records[index][2] = end
            if after is not None:
                after(args, result, self)
            return result

        return traced

    def _record_parent(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def clear(self):
        """Drop the aggregates (in place: the wrappers hold the dicts)."""
        for table in (self.calls, self.self_s, self.incl_s, self.counts):
            table.clear()
        del self.records[:]

    def bucket_self(self):
        totals = defaultdict(float)
        for name, value in self.self_s.items():
            totals[BUCKETS[name]] += value
        return dict(totals)

    def summary(self):
        """Aggregates as JSON-ready dicts; ``wall_s`` is the time spent
        under root spans, which the buckets' self times must sum to."""
        return {"wall_s": self.incl_s.get("root", 0.0),
                "calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "counts": dict(self.counts), "buckets": self.bucket_self(),
                "records": self.records}


# -- layer instrumentation ---------------------------------------------


def _count_mispredict(args, result, tracer):
    # HybridPredictor.update(pc, taken, prediction)
    tracer.counts["branch.updates"] += 1
    if args[3].taken != args[2]:
        tracer.counts["branch.mispredicts"] += 1


def _count_horizon(args, result, tracer):
    if result is not None:
        tracer.counts["pipeline.horizon.hits"] += 1


def _count_skip(args, result, tracer):
    tracer.counts["pipeline.skipped"] += result


def _count_get(args, result, tracer):
    if result is not None:
        tracer.counts["cache.get.hits"] += 1


def _count_merge(args, result, tracer):
    tracer.counts["merge.bytes"] += len(result.encode())


def _count_result(args, result, tracer):
    tracer.counts["service.result.bytes"] += len(result.encode())


def install(tracer):
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.branch.btb import BranchTargetBuffer
    from repro.branch.hybrid import HybridPredictor
    from repro.core.controller import EpochController
    from repro.core.hill_climbing import HillClimbingPolicy
    from repro.experiments import parallel, runner
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline import processor
    from repro.policies.base import ResourcePolicy
    from repro.policies.dcra import DCRAPolicy
    from repro.policies.flush import FlushPolicy
    from repro.policies.icount import ICountPolicy
    from repro.reliability import guard
    from repro.reliability.supervisor import CellSupervisor
    from repro.service.client import ServiceClient
    from repro.workloads.generator import SyntheticStream

    patch = tracer.patch
    patch(SyntheticStream, "next_instruction", "workloads.next_instruction")
    patch(HybridPredictor, "predict", "branch.predict")
    patch(HybridPredictor, "update", "branch.update", _count_mispredict)
    patch(BranchTargetBuffer, "lookup", "branch.btb_lookup")
    patch(BranchTargetBuffer, "insert", "branch.btb_insert")
    for attr in ("load", "store", "ifetch"):
        patch(MemoryHierarchy, attr, "memory." + attr)

    run = processor.SMTProcessor.run

    def counted_run(proc, num_cycles):
        # Cache statistics are deltas over simulated cycles only: the
        # warm-up touches in the constructor are reset before any run.
        hierarchy = proc.hierarchy
        dl1, ul2 = hierarchy.dl1.stats, hierarchy.ul2.stats
        before = (proc.cycle, dl1.accesses, dl1.misses, ul2.accesses,
                  ul2.misses)
        run(proc, num_cycles)
        counts = tracer.counts
        counts["pipeline.cycles"] += proc.cycle - before[0]
        counts["memory.dl1_accesses"] += dl1.accesses - before[1]
        counts["memory.dl1_misses"] += dl1.misses - before[2]
        counts["memory.ul2_accesses"] += ul2.accesses - before[3]
        counts["memory.ul2_misses"] += ul2.misses - before[4]

    processor.SMTProcessor.run = tracer.wrap(counted_run, "pipeline.run")
    patch(processor, "quiescent_horizon", "pipeline.horizon",
          _count_horizon)
    patch(processor, "apply_skip", "pipeline.apply_skip", _count_skip)

    for cls in (ResourcePolicy, ICountPolicy, FlushPolicy, DCRAPolicy,
                HillClimbingPolicy):
        for hook in POLICY_HOOKS:
            if hook in vars(cls):
                patch(cls, hook, "policies.hook")

    patch(EpochController, "begin_epoch", "core.begin_epoch")
    patch(EpochController, "finish_epoch", "core.finish_epoch")
    patch(HillClimbingPolicy, "plan_epoch", "core.plan_epoch")
    patch(HillClimbingPolicy, "on_epoch_end", "core.on_epoch_end")

    solo = runner.solo_ipc

    def counted_solo(profile, scale):
        misses = runner.solo_cache_info().misses
        value = solo(profile, scale)
        tracer.counts["solo.derived"] += (
            runner.solo_cache_info().misses - misses)
        return value

    runner.solo_ipc = tracer.wrap(counted_solo, "solo")
    patch(parallel, "run_policy", "cell")
    patch(guard, "run_policy_resilient", "cell")

    patch(parallel, "code_fingerprint", "fingerprint")
    patch(parallel, "cache_key", "cache.key")
    patch(parallel.ResultCache, "get", "cache.get", _count_get)
    put = parallel.ResultCache.put

    def counted_put(cache, key, cell, result):
        put(cache, key, cell, result)
        tracer.counts["cache.put.bytes"] += os.path.getsize(cache._path(key))

    parallel.ResultCache.put = tracer.wrap(counted_put, "cache.put")
    patch(parallel, "merged_json", "merge", _count_merge)
    patch(CellSupervisor, "run", "reliability")

    patch(ServiceClient, "submit", "service.submit")
    patch(ServiceClient, "status", "service.status")
    patch(ServiceClient, "result", "service.result", _count_result)
    return tracer


def write_summary(tracer, path):
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(tracer.summary(), handle)
    os.replace(tmp, path)


def main(argv):
    """``tracer.py OUT -- <repro arguments>``: a traced ``python -m repro``."""
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT -- <repro arguments>", file=sys.stderr)
        return 2
    out = argv[0]
    tracer = install(Tracer())
    from repro.cli import main as repro_main

    def on_term(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_term)
    root = tracer.wrap(repro_main, "root")
    code = 1
    try:
        code = root(argv[2:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        write_summary(tracer, out)
    return code or 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main(sys.argv[1:]))
