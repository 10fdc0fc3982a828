#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SMT simulator's sweep paths.

    python3 perfbench/run.py --workload ilp-cold --seed 0 --trace 0

Three closed-loop, single-client workloads (see perfbench/README.md):
``ilp-cold`` and ``mem-extend`` time fresh ``repro sweep`` processes and
warm cached reads, ``submit-mixed`` times ``submit`` -> merged result
against a local ``repro serve`` daemon with one ``repro worker``.  Every
simulating process runs serially (``--jobs 1``).

Every operation must reproduce the pinned sha256 of the workload's
merged JSON (``digests.json``, at seed 0); with another seed, all
operations of the run must agree with each other.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` runs the traced variant and prints
the per-layer split.  The last line of stdout is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 0
POLICIES = ["ICOUNT", "FLUSH", "DCRA", "HILL"]
#: Named self times plus ``other`` must sum to the traced wall time
#: within this share of it.
ACCOUNTING_TOLERANCE = 0.01
CHILD_TIMEOUT_S = 150.0
#: Warm reads per run: at least this many, so ten lie beyond p90.
MIN_WARM = 100
#: Length of the warm burst after each cold sweep, as a share of
#: ``--seconds``: warm samples spread over the run instead of one window.
WARM_BURST_SHARE = 0.1

WORKLOADS = {
    # Dense ILP cells from an empty cache: per-instruction layers
    # dominate, SingleIPC runs are derived once and shared in-process.
    "ilp-cold": {
        "kind": "sweep", "scale": "bench", "groups": ["ILP2", "ILP4"],
        "workloads_per_group": 1,
        "overrides": {"epochs": 4, "epoch_size": 1024},
        "prefill": None, "min_cold": 3, "max_cold": 6,
    },
    # Add HILL to cached ICOUNT/FLUSH/DCRA results of MEM2/MEM4:
    # three quarters cache reads, quiescence skipping, learner epochs.
    "mem-extend": {
        "kind": "sweep", "scale": "bench", "groups": ["MEM2", "MEM4"],
        "workloads_per_group": 1, "overrides": {"epochs": 8},
        "prefill": {"groups": ["MEM2", "MEM4"],
                    "policies": ["ICOUNT", "FLUSH", "DCRA"]},
        "min_cold": 3, "max_cold": 8,
    },
    # Local daemon + one worker, smoke cells, ILP2 prefilled: transport,
    # leasing, polling and the daemon's merge are a visible share.
    "submit-mixed": {
        "kind": "service", "scale": "smoke",
        "groups": ["ILP2", "MIX2", "MEM2"], "workloads_per_group": 3,
        "overrides": {},
        "prefill": {"groups": ["ILP2"], "policies": POLICIES},
        "min_cold": 3, "max_cold": 8, "warm_per_cold": 60,
    },
}

END_TO_END = {"setup_s": "s", "cold_s": "s", "sim_kips": "kinstr/s",
              "warm_p50_ms": "ms", "warm_p90_ms": "ms", "peak_rss_mb": "MB"}


class OpFailed(Exception):
    """A timed operation produced no usable result."""


# -- processes --------------------------------------------------------------


def repro_argv(trace_out=None):
    """``python -m repro``, or its traced drop-in writing ``trace_out``."""
    if trace_out is None:
        return [sys.executable, "-m", "repro"]
    return [sys.executable, os.path.join(HERE, "tracer.py"), trace_out, "--"]


def reap(proc, timeout=CHILD_TIMEOUT_S):
    """Wait for ``proc`` (killing it after ``timeout``); returns
    ``(exit code, rusage)`` — the child's own peak RSS, not the max over
    every child this process has waited for."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def stop(proc):
    """SIGTERM and reap ``proc``; returns its rusage (None if already
    reaped)."""
    if proc.returncode is not None:
        return None
    proc.send_signal(signal.SIGTERM)
    return reap(proc, 30.0)[1]


def log_tail(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()[-400:].decode(errors="replace").strip()
    except OSError:
        return ""


class Run:
    """One benchmark invocation: workload spec, seed, work directory,
    child environment, operation tally and the expected digest."""

    def __init__(self, name, seed, seconds, work):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=SRC, TMPDIR=os.path.join(work, "tmp"),
                        REPRO_CACHE_DIR=os.path.join(work, "default-cache"))
        os.makedirs(self.env["TMPDIR"])
        self.attempted = 0
        self.errors = []
        self.expected = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "digests.json")) as handle:
                self.expected = json.load(handle)[name]

    def check(self, text, what):
        """Result identity: the pinned digest at the default seed, else
        agreement with the run's first result.  Returns an error or
        None."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            return ("%s: merged JSON sha256 %s… != expected %s…"
                    % (what, digest[:12], self.expected[:12]))
        return None

    def spawn(self, argv, log_path):
        with open(log_path, "ab") as log:
            return subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=log)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # -- grid --------------------------------------------------------------

    def sweep_args(self, groups, policies, cache_dir):
        spec = self.spec
        args = ["sweep", "--scale", spec["scale"], "--groups"] + groups
        args += ["--policies"] + policies
        args += ["--workloads-per-group", str(spec["workloads_per_group"]),
                 "--seed", str(self.seed), "--seeds", str(self.seed),
                 "--jobs", "1", "--cache-dir", cache_dir, "--quiet"]
        for field, value in sorted(spec["overrides"].items()):
            args += ["--" + field.replace("_", "-"), str(value)]
        return args

    def cells(self, groups, policies):
        from repro.experiments.parallel import grid_cells

        return {(cell.workload, cell.policy) for cell in grid_cells(
            groups=groups, policies=policies,
            workloads_per_group=self.spec["workloads_per_group"])}

    def prefill(self):
        """Cache directory holding the workload's prefilled cells, built
        by the code under test in this run (cache keys hash the sources,
        so a cache from another commit would be all misses).  Returns
        ``(directory, prefilled cells)``."""
        base = self.path("prefill")
        os.makedirs(base)
        prefill = self.spec["prefill"]
        if not prefill:
            return base, set()
        log = self.path("prefill.log")
        argv = repro_argv() + self.sweep_args(prefill["groups"],
                                              prefill["policies"], base)
        code, _usage = reap(self.spawn(argv, log))
        if code != 0:
            raise RuntimeError("prefill sweep exited %d: %s"
                               % (code, log_tail(log)))
        return base, self.cells(prefill["groups"], prefill["policies"])

    def committed(self, text, prefilled):
        """Committed instructions of the cells this operation simulated
        (solo runs are not in the merged records)."""
        return sum(sum(record["result"]["committed"])
                   for record in json.loads(text)["cells"]
                   if (record["workload"], record["policy"]) not in prefilled)


# -- sweep workloads --------------------------------------------------------


def cold_sweep(run, index, base, prefilled, trace_out=None):
    """One fresh ``repro sweep`` over a copy of the prefilled cache.

    Returns the sample; its ``error`` is set when the merged bytes or
    the cache hit count deviate."""
    rep = run.path("cold-%d" % index)
    cache = os.path.join(rep, "cache")
    shutil.copytree(base, cache)
    events = os.path.join(rep, "events.jsonl")
    out = os.path.join(rep, "merged.json")
    log = os.path.join(rep, "stderr.log")
    argv = repro_argv(trace_out) + run.sweep_args(run.spec["groups"],
                                                  POLICIES, cache)
    argv += ["--events", events, "--out", out]
    spawn_wall = time.time()
    start = time.perf_counter()
    code, usage = reap(run.spawn(argv, log))
    cold_s = time.perf_counter() - start
    if code != 0:
        raise OpFailed("cold sweep exited %d: %s" % (code, log_tail(log)))
    with open(events) as handle:
        begin = next((record for record in map(json.loads, handle)
                      if record["event"] == "sweep-start"), None)
    if begin is None:
        raise OpFailed("cold sweep emitted no sweep-start event")
    with open(out) as handle:
        text = handle.read()
    error = run.check(text, "cold sweep")
    if begin["cached"] != len(prefilled):
        error = ("cold sweep found %d cached cells, expected %d"
                 % (begin["cached"], len(prefilled)))
    return {"setup_s": begin["ts"] - spawn_wall, "cold_s": cold_s,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "committed": run.committed(text, prefilled),
            "cache": cache, "error": error}


class WarmReader:
    """The long-lived ``warm.py`` process over one fully cached grid."""

    def __init__(self, run, cache, trace=False):
        spec = run.spec
        spec_path = run.path("warm-spec.json")
        with open(spec_path, "w") as handle:
            json.dump({"scale": spec["scale"],
                       "overrides": dict(spec["overrides"], seed=run.seed),
                       "groups": spec["groups"], "policies": POLICIES,
                       "workloads_per_group": spec["workloads_per_group"],
                       "cache_dir": cache, "digest": run.expected,
                       "trace": trace}, handle)
        self.log = run.path("warm.log")
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "warm.py"), spec_path],
                env=run.env, cwd=ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err)

    def burst(self, run, seconds, min_reps):
        """One burst of warm reads; returns its per-read times in ms."""
        self.proc.stdin.write(json.dumps([seconds, min_reps]).encode()
                              + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("warm reader died: %s" % log_tail(self.log))
        reply = json.loads(line)
        run.attempted += len(reply["times_ms"])
        for _failure in range(reply["failed"]):
            run.errors.append("warm read returned other bytes or missed "
                              "the cache")
        return reply["times_ms"]

    def close(self):
        """End the process; returns its trace summary when traced."""
        self.proc.stdin.close()
        last = self.proc.stdout.read().strip()
        self.proc.stdout.close()
        reap(self.proc)
        return json.loads(last)["trace"] if last else None


def run_sweep(run):
    """Cold sweeps, each followed by a burst of warm reads, until
    ``--seconds`` is used."""
    base, prefilled = run.prefill()
    start = time.perf_counter()
    reps, warm_ms = [], []
    reader = None
    done = 0
    try:
        while True:
            done += 1
            run.attempted += 1
            try:
                rep = cold_sweep(run, done, base, prefilled)
            except OpFailed as exc:
                run.errors.append(str(exc))
            else:
                if rep["error"]:
                    run.errors.append(rep["error"])
                else:
                    reps.append(rep)
                    if reader is None:
                        reader = WarmReader(run, rep["cache"])
            if reader is not None:
                warm_ms += reader.burst(run, WARM_BURST_SHARE * run.seconds,
                                        0)
            if stop_repeating(run, start, done):
                break
        if reader is None:
            raise RuntimeError("no cold sweep succeeded: %s" % run.errors)
        if len(warm_ms) < MIN_WARM:
            warm_ms += reader.burst(run, 0.0, MIN_WARM - len(warm_ms))
    finally:
        if reader is not None:
            reader.close()
    return end_to_end(reps, warm_ms)


def stop_repeating(run, start, done):
    """Whether another cold operation would overrun ``--seconds``."""
    elapsed = time.perf_counter() - start
    return done >= run.spec["max_cold"] or (
        done >= run.spec["min_cold"]
        and elapsed * (done + 1) / done > run.seconds)


def run_sweep_traced(run):
    base, prefilled = run.prefill()
    run.attempted += 2
    untraced = cold_sweep(run, 1, base, prefilled)
    trace_path = run.path("cold-trace.json")
    traced = cold_sweep(run, 2, base, prefilled, trace_out=trace_path)
    with open(trace_path) as handle:
        cold = json.load(handle)
    reader = WarmReader(run, traced["cache"], trace=True)
    try:
        warm_reps = len(reader.burst(run, 0.0, MIN_WARM))
    finally:
        warm = reader.close()
    for rep in (untraced, traced):
        if rep["error"]:
            run.errors.append(rep["error"])
    gets = cold["calls"].get("cache.get", 0)
    hits = cold["counts"].get("cache.get.hits", 0)
    total = len(run.cells(run.spec["groups"], POLICIES))
    if gets != total or hits != len(prefilled):
        run.errors.append("traced cold sweep: %d of %d cache reads hit, "
                          "expected %d of %d"
                          % (hits, gets, len(prefilled), total))
    return layer_metrics(run, cold, warm, warm_reps, untraced["cold_s"],
                         traced["cold_s"])


# -- service workload -------------------------------------------------------


class Daemon:
    """``repro serve`` + one ``repro worker`` over a prefilled cache."""

    def __init__(self, run, index, base, worker_trace=None):
        self.dir = run.path("svc-%d" % index)
        cache = os.path.join(self.dir, "cache")
        shutil.copytree(base, cache)
        port_file = os.path.join(self.dir, "port")
        self.log = os.path.join(self.dir, "stderr.log")
        self.worker = None
        start = time.perf_counter()
        self.daemon = run.spawn(repro_argv() + [
            "serve", "--port", "0", "--port-file", port_file,
            "--cache-dir", cache, "--state-dir",
            os.path.join(self.dir, "state"), "--quiet"], self.log)
        try:
            self._start(run, port_file, worker_trace, start + 60.0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _start(self, run, port_file, worker_trace, deadline):
        from repro.service.client import ServiceClient

        while not os.path.exists(port_file):
            self._poll(deadline, "daemon port file")
        with open(port_file) as handle:
            url = "http://127.0.0.1:%d" % int(handle.read())
        self.client = ServiceClient(url, client="perfbench", timeout=60.0)
        while not self._answers(self.client.healthz):
            self._poll(deadline, "daemon /healthz")
        self.worker = run.spawn(repro_argv(worker_trace) + [
            "worker", "--server", url, "--quiet"], self.log)
        while not self._answers(
                lambda: self.client.stats()["workers"] >= 1):
            self._poll(deadline, "worker registration")

    def _poll(self, deadline, what):
        if self.daemon.poll() is not None or (
                self.worker is not None and self.worker.poll() is not None):
            raise RuntimeError("service process died waiting for %s: %s"
                               % (what, log_tail(self.log)))
        if time.perf_counter() > deadline:
            raise RuntimeError("timed out waiting for %s" % what)
        time.sleep(0.01)

    @staticmethod
    def _answers(probe):
        import urllib.error

        try:
            return probe()
        except (urllib.error.URLError, OSError):
            return False

    def request(self, run, what):
        """One ``repro submit`` of the whole grid, as the CLI does it:
        submit, follow the job's event stream to its end, confirm the
        status, fetch the merged result.  Returns ``(acceptance record,
        merged JSON, error or None)``.  A 429 is not retried: throttling
        fails the operation."""
        from repro.service.client import ServiceError

        spec = run.spec
        grid = {"groups": spec["groups"], "policies": POLICIES,
                "seeds": [run.seed],
                "workloads_per_group": spec["workloads_per_group"]}
        scale = dict(spec["overrides"], scale=spec["scale"], seed=run.seed)
        try:
            record = self.client.submit(grid=grid, scale=scale, retry=False)
            for _event in self.client.events(record["job"]):
                pass
            status = self.client.wait(record["job"], deadline=120.0)
            text = self.client.result(record["job"])
        except (ServiceError, OSError, ValueError) as exc:
            raise OpFailed("%s: %s: %s" % (what, type(exc).__name__, exc))
        if status.get("quarantined"):
            raise OpFailed("%s: %d cell(s) quarantined"
                           % (what, status["quarantined"]))
        return record, text, run.check(text, what)

    def close(self):
        """Stop the worker, then the daemon; returns the worker's rusage
        (the worker is the process that simulates)."""
        usage = stop(self.worker) if self.worker is not None else None
        stop(self.daemon)
        return usage


def service_cold(run, daemon, prefilled):
    """The timed cold submit; returns the sample with ``error`` set when
    the bytes or the daemon's cache hits deviate."""
    run.attempted += 1
    start = time.perf_counter()
    record, text, error = daemon.request(run, "cold submit")
    cold_s = time.perf_counter() - start
    stats = daemon.client.stats()
    if record["cached"] != len(prefilled) \
            or stats["cache_hits"] != len(prefilled):
        error = ("cold submit: %d cached, %d daemon cache hits, expected "
                 "%d" % (record["cached"], stats["cache_hits"],
                         len(prefilled)))
    return {"setup_s": daemon.setup_s, "cold_s": cold_s,
            "committed": run.committed(text, prefilled), "stats": stats,
            "error": error}


def service_warm(run, daemon, reps):
    """Fully cached submits; returns their times in ms."""
    times = []
    for _rep in range(reps):
        run.attempted += 1
        start = time.perf_counter()
        try:
            record, _text, error = daemon.request(run, "warm submit")
        except OpFailed as exc:
            run.errors.append(str(exc))
            continue
        elapsed = time.perf_counter() - start
        if record["cached"] != record["total"]:
            error = "warm submit simulated %d cell(s)" % (
                record["total"] - record["cached"])
        if error:
            run.errors.append(error)
        else:
            times.append(elapsed * 1000.0)
    return times


def run_service(run):
    """Fresh daemon + worker pairs, each with one cold submit and a run
    of warm submits, until ``--seconds`` is used."""
    base, prefilled = run.prefill()
    start = time.perf_counter()
    reps, warm_ms = [], []
    done = 0
    while True:
        done += 1
        daemon = Daemon(run, done, base)
        rep = None
        try:
            rep = service_cold(run, daemon, prefilled)
            warm_ms += service_warm(run, daemon, run.spec["warm_per_cold"])
        except OpFailed as exc:
            run.errors.append(str(exc))
        finally:
            usage = daemon.close()
        if rep is not None and rep["error"]:
            run.errors.append(rep["error"])
        elif rep is not None:
            rep["rss_mb"] = usage.ru_maxrss / 1024.0
            reps.append(rep)
        if stop_repeating(run, start, done):
            break
    if not reps:
        raise RuntimeError("no cold submit succeeded: %s" % run.errors)
    return end_to_end(reps, warm_ms)


def run_service_traced(run):
    import tracer as tracing

    base, prefilled = run.prefill()
    daemon = Daemon(run, 0, base)
    try:
        untraced = service_cold(run, daemon, prefilled)
    finally:
        daemon.close()
    client = tracing.install(tracing.Tracer())
    worker_trace = run.path("worker-trace.json")
    daemon = Daemon(run, 1, base, worker_trace=worker_trace)
    try:
        traced = client.wrap(service_cold, "root")(run, daemon, prefilled)
        client_cold = client.summary()
        client.clear()
        warm_reps = len(client.wrap(service_warm, "root")(run, daemon,
                                                          MIN_WARM))
        client_warm = client.summary()
    finally:
        daemon.close()
    for rep in (untraced, traced):
        if rep["error"]:
            run.errors.append(rep["error"])
    with open(worker_trace) as handle:
        worker = json.load(handle)
    return layer_metrics(run, worker, client_warm, warm_reps,
                         untraced["cold_s"], traced["cold_s"],
                         client=client_cold, daemon_stats=traced["stats"])


# -- metrics ----------------------------------------------------------------


def end_to_end(reps, warm_ms):
    if not reps or len(warm_ms) < MIN_WARM:
        raise RuntimeError("%d good cold and %d good warm samples (need 1 "
                           "and %d)" % (len(reps), len(warm_ms), MIN_WARM))
    median = statistics.median
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "cold_s": median(rep["cold_s"] for rep in reps),
        "sim_kips": median(rep["committed"] / rep["cold_s"] / 1000.0
                           for rep in reps),
        "warm_p50_ms": median(warm_ms),
        "warm_p90_ms": statistics.quantiles(warm_ms, n=10)[8],
        "peak_rss_mb": median(rep["rss_mb"] for rep in reps),
    }


PER_LAYER = {
    "workloads.calls": "count", "workloads.self_s": "s",
    "branch.calls": "count", "branch.self_s": "s",
    "branch.mispredict_ratio": "ratio",
    "memory.calls": "count", "memory.self_s": "s",
    "memory.dl1_miss_ratio": "ratio", "memory.ul2_miss_ratio": "ratio",
    "pipeline.cycles": "count", "pipeline.self_s": "s",
    "pipeline.horizon.calls": "count", "pipeline.horizon.hit_ratio": "ratio",
    "pipeline.horizon.self_s": "s", "pipeline.skip_ratio": "ratio",
    "policies.calls": "count", "policies.self_s": "s",
    "core.epochs": "count", "core.self_s": "s",
    "solo.calls": "count", "solo.derived": "count", "solo.incl_s": "s",
    "solo.share_of_cold": "ratio",
    "cell.calls": "count", "cell.incl_s": "s", "experiments.self_s": "s",
    "fingerprint.self_s": "s",
    "cache.key.calls": "count", "cache.key.self_s": "s",
    "cache.get.calls": "count", "cache.get.hit_ratio": "ratio",
    "cache.get.self_s": "s",
    "cache.put.calls": "count", "cache.put.self_s": "s",
    "cache.put.bytes": "B",
    "merge.self_s": "s", "merge.bytes": "B",
    "reliability.self_s": "s",
    "service.submit.self_s": "s", "service.polls": "count",
    "service.result.self_s": "s", "service.result.bytes": "B",
    "service.leases": "count", "service.cache_hits": "count",
    "service.lease_expiries": "count", "service.worker_busy_s": "s",
    "service.wait_s": "s",
    "other.self_s": "s",
    "warm.cache.key.self_ms": "ms", "warm.cache.get.self_ms": "ms",
    "warm.merge.self_ms": "ms", "warm.service.self_ms": "ms",
    "warm.other.self_ms": "ms",
    "trace.cold_s_untraced": "s", "trace.cold_s_traced": "s",
    "trace.overhead_ratio": "ratio", "trace.accounting_error": "ratio",
}

_EMPTY_TRACE = {"buckets": {}, "calls": {}, "counts": {}}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def accounting_error(trace):
    """|sum of bucket self times - time under root spans|, as a share of
    the latter."""
    return _ratio(abs(sum(trace["buckets"].values()) - trace["wall_s"]),
                  trace["wall_s"])


def layer_metrics(run, sim, warm, warm_reps, untraced_cold, traced_cold,
                  client=None, daemon_stats=None):
    """Per-layer metrics from the simulating process's trace ``sim``, the
    warm-read trace and, for the service, the client's cold-submit trace
    and the daemon's stats after it."""
    calls, counts, incl = sim["calls"], sim["counts"], sim["incl_s"]
    bucket = sim["buckets"].get
    count = counts.get
    metrics = {
        "workloads.calls": calls.get("workloads.next_instruction", 0),
        "workloads.self_s": bucket("workloads", 0.0),
        "branch.calls": sum(calls.get(name, 0) for name in (
            "branch.predict", "branch.update", "branch.btb_lookup",
            "branch.btb_insert")),
        "branch.self_s": bucket("branch", 0.0),
        "branch.mispredict_ratio": _ratio(count("branch.mispredicts", 0),
                                          count("branch.updates", 0)),
        "memory.calls": sum(calls.get(name, 0) for name in (
            "memory.load", "memory.store", "memory.ifetch")),
        "memory.self_s": bucket("memory", 0.0),
        "memory.dl1_miss_ratio": _ratio(count("memory.dl1_misses", 0),
                                        count("memory.dl1_accesses", 0)),
        "memory.ul2_miss_ratio": _ratio(count("memory.ul2_misses", 0),
                                        count("memory.ul2_accesses", 0)),
        "pipeline.cycles": count("pipeline.cycles", 0),
        "pipeline.self_s": bucket("pipeline", 0.0),
        "pipeline.horizon.calls": calls.get("pipeline.horizon", 0),
        "pipeline.horizon.hit_ratio": _ratio(
            count("pipeline.horizon.hits", 0),
            calls.get("pipeline.horizon", 0)),
        "pipeline.horizon.self_s": bucket("pipeline.horizon", 0.0),
        "pipeline.skip_ratio": _ratio(count("pipeline.skipped", 0),
                                      count("pipeline.cycles", 0)),
        "policies.calls": calls.get("policies.hook", 0),
        "policies.self_s": bucket("policies", 0.0),
        "core.epochs": calls.get("core.finish_epoch", 0),
        "core.self_s": bucket("core", 0.0),
        "solo.calls": calls.get("solo", 0),
        "solo.derived": count("solo.derived", 0),
        "solo.incl_s": incl.get("solo", 0.0),
        "solo.share_of_cold": _ratio(incl.get("solo", 0.0), traced_cold),
        "cell.calls": calls.get("cell", 0),
        "cell.incl_s": incl.get("cell", 0.0),
        "experiments.self_s": bucket("experiments", 0.0),
        "fingerprint.self_s": bucket("fingerprint", 0.0),
        "cache.key.calls": calls.get("cache.key", 0),
        "cache.key.self_s": bucket("cache.key", 0.0),
        "cache.get.calls": calls.get("cache.get", 0),
        "cache.get.hit_ratio": _ratio(count("cache.get.hits", 0),
                                      calls.get("cache.get", 0)),
        "cache.get.self_s": bucket("cache.get", 0.0),
        "cache.put.calls": calls.get("cache.put", 0),
        "cache.put.self_s": bucket("cache.put", 0.0),
        "cache.put.bytes": count("cache.put.bytes", 0),
        "merge.self_s": bucket("merge", 0.0),
        "merge.bytes": count("merge.bytes", 0),
        "reliability.self_s": bucket("reliability", 0.0),
        "other.self_s": bucket("other", 0.0),
        "trace.cold_s_untraced": untraced_cold,
        "trace.cold_s_traced": traced_cold,
        "trace.overhead_ratio": _ratio(traced_cold, untraced_cold),
    }
    service = client or _EMPTY_TRACE
    stats = daemon_stats or {}
    worker_busy = incl.get("cell", 0.0) if client else 0.0
    metrics.update({
        "service.submit.self_s": service["buckets"].get("service.submit",
                                                        0.0),
        "service.polls": service["calls"].get("service.status", 0),
        "service.result.self_s": service["buckets"].get("service.result",
                                                        0.0),
        "service.result.bytes": service["counts"].get("service.result.bytes",
                                                      0),
        "service.leases": stats.get("leases", 0),
        "service.cache_hits": stats.get("cache_hits", 0),
        "service.lease_expiries": stats.get("lease_expiries", 0),
        "service.worker_busy_s": worker_busy,
        "service.wait_s": traced_cold - worker_busy if client else 0.0,
    })
    per_rep = 1000.0 / max(1, warm_reps)
    warm_bucket = warm["buckets"].get
    metrics.update({
        "warm.cache.key.self_ms": warm_bucket("cache.key", 0.0) * per_rep,
        "warm.cache.get.self_ms": warm_bucket("cache.get", 0.0) * per_rep,
        "warm.merge.self_ms": warm_bucket("merge", 0.0) * per_rep,
        "warm.service.self_ms": per_rep * sum(
            warm_bucket(name, 0.0) for name in (
                "service.submit", "service.status", "service.result")),
        "warm.other.self_ms": warm_bucket("other", 0.0) * per_rep,
    })
    traces = [("simulating process", sim), ("warm reads", warm)]
    if client:
        traces.append(("client cold submit", client))
    errors = []
    for label, trace in traces:
        error = accounting_error(trace)
        errors.append(error)
        if error > ACCOUNTING_TOLERANCE:
            run.attempted += 1
            run.errors.append("%s: self times miss the traced wall time "
                              "by %.2f%%" % (label, 100.0 * error))
    metrics["trace.accounting_error"] = max(errors)
    return metrics


# -- entry point ------------------------------------------------------------


RUNNERS = {"sweep": (run_sweep, run_sweep_traced),
           "service": (run_service, run_service_traced)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("error: no simulator source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        values = RUNNERS[run.spec["kind"]][args.trace](run)
    except (OpFailed, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    units = PER_LAYER if args.trace else END_TO_END
    for error in run.errors:
        print("failed: %s" % error, file=sys.stderr)
    for name, unit in units.items():
        print("%-28s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
