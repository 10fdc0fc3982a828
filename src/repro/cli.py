"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-workloads``
    Print the Table 3 workloads (optionally one group).
``list-benchmarks``
    Print the Table 2 benchmark profiles.
``run``
    Run one workload under one policy and report per-thread IPCs and the
    three Section 3.1.1 metrics.
``compare``
    Run several policies on one workload side by side.
``solo``
    Stand-alone IPC of a single benchmark (the SingleIPC measurement).
``surface``
    The Figure 2 three-thread distribution surface.
``verify``
    Reliability suite: clean-run pipeline invariants (including
    checkpoint-fidelity replays) plus the fault-injection matrix.
    Exits non-zero on any violation or unhandled failure.
``sweep``
    Run a (workload x policy x seed) grid over a process pool
    (``--jobs N``) with content-addressed on-disk result caching,
    JSONL progress events, optional crash-safe per-cell resume, and a
    deterministic merged-JSON export (see docs/PARALLEL.md).  Cells run
    under the sweep supervisor: per-cell heartbeat timeouts
    (``--cell-timeout``), retry with deterministic backoff
    (``--max-attempts``), pool rebuild after a worker death, quarantine
    of repeat offenders, and degrade-to-serial (``--no-degrade``
    disables; docs/RELIABILITY.md "Sweep supervision").  Exits 1 when
    cells were quarantined (partial results), 2 on a worker bootstrap
    failure.
``chaos``
    Fault-injection harness: run a tiny grid while injecting faults per
    ``--preset`` and verify the merged results converge to a fault-free
    serial reference.  One preset table names each preset's tier: pool
    presets (kill-one-worker, kill-storm, ...) abuse the sweep
    supervisor; service presets (kill-worker, worker-storm, slow-client,
    queue-flood, split-result) abuse a live ``repro serve`` daemon and
    its worker fleet (docs/SERVICE.md).  Exits non-zero when results
    diverge.
``serve``
    The sweep service daemon: accept sweep jobs over HTTP/JSON, shard
    cells across pull-based ``repro worker`` processes under leases
    with heartbeat renewal, apply backpressure (429 + Retry-After) and
    per-client quotas, stream live JSONL events, and drain gracefully
    on SIGTERM — the queue persists and resumes on restart.
``worker``
    One pull-based sweep worker: lease cells from a ``repro serve``
    daemon, simulate them, heartbeat, upload results.
``submit``
    Submit a sweep grid to a daemon, stream its progress events, and
    fetch the merged JSON (byte-identical to a local serial sweep).
    Exits 1 when cells were quarantined.
``loadtest``
    Hammer a daemon with many concurrent clients on a warm cache and
    report latency percentiles, throughput and throttle counts.
``cache``
    ``info``/``clear`` for the sweep result cache.

All simulation commands accept ``--scale smoke|bench|full`` plus explicit
``--epochs`` / ``--epoch-size`` / ``--seed`` overrides.  ``run`` and
``compare`` additionally accept ``--resume-dir DIR``: each run then
checkpoints every epoch into a subdirectory of DIR named by its cache
key, and re-invoking the same command after an interruption continues
from the last completed epoch with identical metrics.

Unknown workload, benchmark, or policy names print a one-line error with
the valid choices and exit with status 2.
"""

import argparse
import sys

from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentScale, run_policy, solo_ipc
from repro.workloads.mixes import GROUPS, get_workload, workload_names
from repro.workloads.spec2000 import PROFILES, get_profile

_SCALES = {
    "smoke": ExperimentScale.smoke,
    "bench": ExperimentScale.bench,
    "full": ExperimentScale.full,
}


def _fail(message):
    """One-line usage error: print to stderr, exit with status 2."""
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def _get_workload_checked(name):
    try:
        return get_workload(name)
    except KeyError:
        _fail("unknown workload %r (valid: %s)"
              % (name, ", ".join(sorted(workload_names()))))


def _get_profile_checked(name):
    from repro.workloads.spec2000 import profile_names

    try:
        return get_profile(name)
    except KeyError:
        _fail("unknown benchmark %r (valid: %s)"
              % (name, ", ".join(sorted(profile_names()))))


def _policy_factory(name, scale):
    """Resolve a policy name (baselines + HILL[-metric] + PHASE-HILL).

    Name resolution lives in :mod:`repro.experiments.parallel` (the sweep
    workers share it); this wrapper only converts unknown names into the
    CLI's one-line exit-2 error.
    """
    from repro.experiments.parallel import policy_factory

    try:
        return policy_factory(name, scale)
    except ValueError as exc:
        _fail(str(exc))


def _scale_from(args):
    from repro.pipeline.fastpath import core_mode

    try:
        # Fail fast (exit 2) on a bad REPRO_CORE before any simulation
        # starts, instead of deep inside the first run() call.
        core_mode()
    except ValueError as exc:
        _fail(str(exc))
    scale = _SCALES[args.scale]()
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.epoch_size is not None:
        overrides["epoch_size"] = args.epoch_size
    if args.seed is not None:
        overrides["seed"] = args.seed
    return scale.with_overrides(**overrides) if overrides else scale


def _add_scale_args(parser):
    parser.add_argument("--scale", choices=sorted(_SCALES), default="bench")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--epoch-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def _add_resume_arg(parser):
    parser.add_argument("--resume-dir", default=None, metavar="DIR",
                        help="crash-safe run state directory; re-invoking "
                             "with the same DIR resumes an interrupted run")


def cmd_list_workloads(args):
    names = workload_names(args.group)
    rows = []
    for name in names:
        workload = get_workload(name)
        rows.append([workload.name, workload.group, workload.num_threads,
                     workload.rsc_sum])
    print(format_table(["workload", "group", "threads", "Rsc sum"], rows))


def cmd_list_benchmarks(args):
    rows = [
        [profile.name,
         "%s %s" % ("FP" if profile.is_fp else "Int", profile.ctype),
         profile.rsc_hint, profile.freq.value]
        for profile in PROFILES.values()
    ]
    print(format_table(["benchmark", "type", "Rsc (paper)", "Freq"], rows))


def _report_result(result):
    print(format_table(
        ["thread", "IPC", "SingleIPC"],
        [[tid, ipc, single] for tid, (ipc, single)
         in enumerate(zip(result.ipcs, result.single_ipcs))],
    ))
    print()
    print(format_table(
        ["metric", "value"],
        [["avg IPC", result.avg_ipc],
         ["weighted IPC", result.weighted_ipc],
         ["harmonic weighted IPC", result.harmonic_weighted_ipc]],
    ))


def _run(args, workload, name, policy, scale):
    """One run, checkpointed under ``--resume-dir`` when given."""
    run_dir = None
    if args.resume_dir is not None:
        from repro.experiments.parallel import run_path

        run_dir = run_path(args.resume_dir, workload.name, name, scale)
    return run_policy(workload, policy, scale, run_dir=run_dir)


def cmd_run(args):
    scale = _scale_from(args)
    workload = _get_workload_checked(args.workload)
    policy = _policy_factory(args.policy, scale)()
    print("running %s under %s (%d epochs x %d cycles)..."
          % (workload.name, policy.name, scale.epochs, scale.epoch_size))
    _report_result(_run(args, workload, args.policy, policy, scale))


def cmd_compare(args):
    import statistics

    scale = _scale_from(args)
    workload = _get_workload_checked(args.workload)
    factories = {
        name: _policy_factory(name, scale) for name in args.policies
    }
    print("comparing %s on %s..." % (", ".join(factories), workload.name))
    seeds = args.seeds if args.seeds is not None else [scale.seed]
    rows = []
    for name, factory in factories.items():
        results = [_run(args, workload, name, factory(),
                        scale.with_overrides(seed=seed)) for seed in seeds]
        values = [[result.avg_ipc, result.weighted_ipc,
                   result.harmonic_weighted_ipc] for result in results]
        if len(values) == 1:
            rows.append([name] + values[0])
        else:
            rows.append([name] + [
                "%.3f +/- %.3f" % (statistics.mean(column),
                                   statistics.pstdev(column))
                for column in zip(*values)])
    print(format_table(
        ["policy", "avg IPC", "weighted IPC", "harmonic weighted IPC"],
        rows,
    ))


def cmd_solo(args):
    scale = _scale_from(args)
    profile = _get_profile_checked(args.benchmark)
    value = solo_ipc(profile, scale)
    print("%s stand-alone IPC: %.3f" % (profile.name, value))


def cmd_verify(args):
    from repro.reliability.verify import run_verification

    scale = _scale_from(args)
    workload = args.workload
    _get_workload_checked(workload)  # fail fast with the friendly message
    if args.fidelity_period is not None and args.fidelity_period <= 0:
        _fail("--fidelity-period must be a positive number of epochs, "
              "got %d" % args.fidelity_period)
    return run_verification(scale, workload_name=workload,
                            fidelity_period=args.fidelity_period)


def cmd_surface(args):
    from repro.experiments.figures import fig2_surface

    scale = _scale_from(args)
    surface = fig2_surface(scale, benchmarks=tuple(args.benchmarks))
    for share0, row in surface.rows():
        print("share0=%3d: %s" % (share0, " ".join(
            "%d:%.2f" % (share1, value) for share1, value in row)))
    print("peak %.3f at %s" % (surface.peak_ipc, surface.peak_shares))


#: One renderer per canonical sweep event (``SWEEP_EVENTS`` in
#: repro.reliability.supervisor) — ``None`` marks events that are
#: intentionally silent on the progress line.  A drift test pins this
#: table's keys to exactly the event-name table, so adding an event
#: without deciding how (or whether) to render it fails the suite.
_EVENT_RENDERERS = {
    "sweep-start": lambda r: (
        "[sweep] %d cells: %d cached, %d to simulate (%d workers)"
        % (r["total"], r["cached"], r["pending"], r["jobs"])),
    "cell-cached": None,
    "cell-start": None,
    "cell-done": lambda r: (
        "[sweep] %d/%d done (%d cached, %d running%s) — %s"
        % (r["done"], r["total"], r["cached"], r["running"],
           (", eta %ds" % r["eta_s"]) if "eta_s" in r else "", r["cell"])),
    "sweep-done": lambda r: (
        "[sweep] finished: %d cells (%d cached, %d simulated) in %.1fs"
        % (r["total"], r["cached"], r["simulated"], r["wall_s"])),
    "cell-retry": lambda r: (
        "[sweep] retrying %s (attempt %d in %.1fs): %s"
        % (r["cell"], r["attempt"], r["delay_s"], r["error"])),
    "cell-timeout": lambda r: (
        "[sweep] %s heartbeat stale for %.0fs — killing its worker"
        % (r["cell"], r["timeout_s"])),
    "cell-quarantined": lambda r: (
        "[sweep] quarantined %s after %d attempts: %s"
        % (r["cell"], r["attempts"], r["error"])),
    "pool-broken": lambda r: (
        "[sweep] worker pool broke (%d so far); rebuilding"
        % r["breaks"]),
    "pool-rebuilt": None,
    "sweep-degraded": lambda r: (
        "[sweep] degrading to in-process serial execution: %s"
        % r["reason"]),
}

#: Renderers for the service-tier events (``SERVICE_EVENTS`` in
#: repro.service.protocol), pinned by the same drift test.
_SERVICE_EVENT_RENDERERS = {
    "job-accepted": lambda r: (
        "[sweep] job %s accepted: %d cells (%d cached, %d to run)"
        % (r["job"], r["total"], r["cached"], r["pending"])),
    "job-done": None,
    "cell-leased": lambda r: (
        "[sweep] %s leased to %s (attempt %d)"
        % (r["cell"], r["worker"], r["attempt"])),
    "lease-expired": lambda r: (
        "[sweep] lease on %s expired (worker %s presumed dead)"
        % (r["cell"], r["worker"])),
    "cell-requeued": None,
    "worker-registered": lambda r: (
        "[sweep] worker %s joined" % r["worker"]),
    "worker-lost": lambda r: (
        "[sweep] worker %s lost" % r["worker"]),
    "service-draining": lambda r: (
        "[sweep] daemon draining; job will resume after restart"),
    "service-resumed": lambda r: (
        "[sweep] daemon resumed this job from its persisted queue "
        "(%d cells still pending)" % r["pending"]),
}


def _print_sweep_event(record):
    """One-line live progress for ``repro sweep`` / ``repro submit``."""
    renderer = _EVENT_RENDERERS.get(
        record["event"], _SERVICE_EVENT_RENDERERS.get(record["event"]))
    if renderer is not None:
        print(renderer(record))


def _supervision_from(args, seed=0):
    """The ``Supervision`` of ``--cell-timeout``/``--max-attempts``/
    ``--no-degrade``; a value it rejects exits 2 naming the flag."""
    from repro.reliability.supervisor import Supervision

    try:
        return Supervision(cell_timeout=args.cell_timeout,
                           max_attempts=args.max_attempts,
                           degrade=not args.no_degrade, seed=seed)
    except ValueError as exc:
        _fail("--cell-timeout must be a positive number of seconds"
              if str(exc).startswith("cell_timeout")
              else "--max-attempts must be >= 1")


def cmd_sweep(args):
    from repro.experiments.parallel import (
        DEFAULT_POLICIES,
        SWEEP_PRESETS,
        SweepEngine,
        grid_cells,
        merged_json,
    )
    from repro.reliability.supervisor import CellBootstrapError, SweepAborted

    scale = _scale_from(args)
    supervision = _supervision_from(args, seed=scale.seed)
    groups = list(args.groups or [])
    policies = list(args.policies or [])
    if args.preset is not None:
        preset_groups, preset_policies = SWEEP_PRESETS[args.preset]
        groups = groups or list(preset_groups)
        policies = policies or list(preset_policies)
    if not args.workloads and not groups:
        _fail("sweep needs --workloads, --groups, or --preset")
    try:
        cells = grid_cells(
            workloads=args.workloads, groups=groups,
            policies=policies or DEFAULT_POLICIES,
            seeds=tuple(args.seeds), epochs=None,  # --epochs is in scale
            workloads_per_group=(args.workloads_per_group
                                 if args.workloads_per_group is not None
                                 else scale.workloads_per_group))
    except (KeyError, ValueError) as exc:
        # Both error paths already name the valid choices.
        _fail(exc.args[0] if exc.args else str(exc))
    engine = SweepEngine(
        scale, jobs=args.jobs, cache_dir=args.cache_dir,
        events_path=args.events, resume_dir=args.resume_dir,
        use_cache=not args.no_cache, supervision=supervision,
        on_event=None if args.quiet else _print_sweep_event)
    try:
        results = engine.run_cells(cells)
    except CellBootstrapError as exc:
        _fail(str(exc).splitlines()[0])
    except SweepAborted as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    rows = [
        [cell.workload, cell.policy, cell.seed, result.avg_ipc,
         result.weighted_ipc, result.harmonic_weighted_ipc]
        for cell, result in zip(cells, results) if result is not None
    ]
    print(format_table(
        ["workload", "policy", "seed", "avg IPC", "weighted IPC",
         "harmonic weighted IPC"], rows))
    if engine.quarantined:
        print("%d cell(s) quarantined after repeated failures "
              "(ledger: %s):" % (len(engine.quarantined),
                                 engine.quarantine_path))
        for cell, entry in engine.quarantined.items():
            error = entry.get("last_error", "").splitlines()
            print("  %s — %d attempts — %s"
                  % (cell.label, entry.get("attempts", 0),
                     error[0] if error else ""))
    if args.out is not None:
        import os

        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(merged_json(cells, results, scale,
                                     quarantined=engine.quarantined))
        print("merged results written to %s" % args.out)
    return 1 if engine.quarantined else 0


def cmd_chaos(args):
    from repro.reliability.chaos import run_chaos

    scale = _scale_from(args)
    _supervision_from(args)  # flag errors exit 2 before any work dir exists
    report = run_chaos(
        args.preset, scale, jobs=args.jobs, cell_timeout=args.cell_timeout,
        max_attempts=args.max_attempts, degrade=not args.no_degrade,
        keep=args.keep, work_dir=args.work_dir,
        log=None if args.quiet else (lambda msg: print("[chaos] %s" % msg)))
    print("[chaos] preset=%s tier=%s cells=%d %s"
          % (report["preset"], report["tier"], len(report["cells"]),
             " ".join("%s=%s" % (name, report[name])
                      for name in report["counters"])))
    print("[chaos] quarantined: %d (expected %d)%s"
          % (len(report["quarantined"]), report["expected_quarantined"],
             " — " + ", ".join(report["quarantined"])
             if report["quarantined"] else ""))
    print("[chaos] merged results %s the fault-free serial reference"
          % ("match" if report["identical"] else "DIVERGE from"))
    if report["work_dir"] is not None:
        print("[chaos] work dir kept at %s" % report["work_dir"])
    print("[chaos] %s" % ("OK" if report["ok"] else "FAILED"))
    return 0 if report["ok"] else 1


def cmd_cache(args):
    from repro.experiments.parallel import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "info":
        stats = cache.info()
        print(format_table(
            ["field", "value"],
            [["directory", stats.directory],
             ["entries", stats.entries],
             ["size", "%.1f KiB" % (stats.bytes / 1024.0)],
             ["solo entries", stats.solos],
             ["corrupt entries", stats.corrupt],
             ["corrupt size", "%.1f KiB" % (stats.corrupt_bytes / 1024.0)]]))
    else:  # clear
        removed = cache.clear(corrupt_only=args.corrupt_only)
        what = "corrupt sidelined" if args.corrupt_only else "cached"
        print("removed %d %s result(s) from %s"
              % (removed, what, cache.directory))


def cmd_serve(args):
    import asyncio
    import os
    import signal

    from repro.service.server import ServiceConfig, SweepService

    try:
        config = ServiceConfig(
            host=args.host, port=args.port, cache_dir=args.cache_dir,
            state_dir=args.state_dir, queue_limit=args.queue_limit,
            client_quota=args.client_quota,
            lease_timeout=args.lease_timeout,
            max_attempts=args.max_attempts)
    except ValueError as exc:
        _fail(str(exc))
    service = SweepService(config)
    say = (lambda message: None) if args.quiet else (
        lambda message: print("[serve] %s" % message, file=sys.stderr))

    async def _amain():
        await service.start()
        if args.port_file is not None:
            port_dir = os.path.dirname(args.port_file)
            if port_dir:
                os.makedirs(port_dir, exist_ok=True)
            tmp = args.port_file + ".tmp"
            with open(tmp, "w") as handle:
                handle.write("%d\n" % service.port)
            os.replace(tmp, args.port_file)
        say("listening on http://%s:%d (state: %s)"
            % (config.host, service.port, config.state_dir))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        say("draining: waiting for in-flight leases, persisting queue")
        await service.shutdown(drain=True)
        say("drained; queue persisted to %s" % config.state_dir)

    asyncio.run(_amain())
    return 0


def cmd_worker(args):
    from repro.service.worker import run_worker

    if args.poll_interval <= 0:
        _fail("--poll-interval must be a positive number of seconds")
    try:
        summary = run_worker(
            args.server, poll_interval=args.poll_interval,
            max_cells=args.max_cells, idle_exit=args.idle_exit,
            fault=args.fault, name=args.name,
            log=None if args.quiet else (
                lambda message: print("[worker] %s" % message,
                                      file=sys.stderr)))
    except (ValueError, RuntimeError) as exc:
        _fail(str(exc))
    if not args.quiet:
        print("[worker] served %d cell(s), %d failed attempt(s), "
              "%d lease(s) lost" % (summary["completed"],
                                    summary["failed"],
                                    summary["lease_lost"]),
              file=sys.stderr)
    return 0


def cmd_submit(args):
    import urllib.error

    from repro.service.client import ServiceClient, ServiceError

    if not args.workloads and not args.groups:
        _fail("submit needs --workloads or --groups")
    grid = {"seeds": args.seeds}
    if args.workloads:
        grid["workloads"] = args.workloads
    if args.groups:
        grid["groups"] = args.groups
    if args.policies:
        grid["policies"] = args.policies
    if args.workloads_per_group is not None:
        grid["workloads_per_group"] = args.workloads_per_group
    scale_spec = {"scale": args.scale}
    for field, value in (("epochs", args.epochs),
                         ("epoch_size", args.epoch_size),
                         ("seed", args.seed)):
        if value is not None:
            scale_spec[field] = value
    client = ServiceClient(args.server, client=args.client,
                           timeout=args.timeout)
    try:
        record = client.submit(grid=grid, scale=scale_spec,
                               deadline=args.timeout)
    except ServiceError as exc:
        _fail("submit to %s failed — %s" % (args.server, exc))
    except (urllib.error.URLError, OSError) as exc:
        _fail("cannot reach %s: %s" % (args.server, exc))
    job_id = record["job"]
    if args.no_wait:
        print(job_id)
        return 0
    try:
        for event in client.events(job_id):
            if not args.quiet:
                _print_sweep_event(event)
    except (urllib.error.URLError, OSError, ValueError):
        pass  # stream dropped (daemon draining); wait() takes over
    try:
        status = client.wait(job_id, deadline=args.timeout)
        text = client.result(job_id)
    except ServiceError as exc:
        _fail("job %s on %s failed — %s" % (job_id, args.server, exc))
    if args.out is not None:
        import os

        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(text)
        print("merged results written to %s" % args.out)
    else:
        print(text, end="")
    if status["quarantined"]:
        print("%d cell(s) quarantined on the service side"
              % status["quarantined"], file=sys.stderr)
        return 1
    return 0


def cmd_loadtest(args):
    from repro.service.loadtest import run_loadtest

    if args.clients < 1 or args.requests < 1:
        _fail("--clients and --requests must be >= 1")
    report = run_loadtest(
        clients=args.clients, requests=args.requests,
        workers=args.workers, server_url=args.server,
        scale_name=args.scale, epochs=args.epochs,
        log=None if args.quiet else (
            lambda message: print("[loadtest] %s" % message)))
    print(format_table(
        ["field", "value"],
        [["clients x requests", "%d x %d" % (report["clients"],
                                             report["requests_per_client"])],
         ["ok / errors / mismatched", "%d / %d / %d"
          % (report["ok"], report["errors"], report["mismatched"])],
         ["throttled (429)", report["throttled"]],
         ["warm sweep", "%.1fs" % report["warm_s"]],
         ["wall", "%.1fs" % report["wall_s"]],
         ["throughput", "%.1f jobs/s" % report["rps"]],
         ["latency p50/p95/max",
          "%.0f / %.0f / %.0f ms" % (report["latency_ms"]["p50"],
                                     report["latency_ms"]["p95"],
                                     report["latency_ms"]["max"])]]))
    if args.out is not None:
        import json

        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("loadtest report written to %s" % args.out)
    return 0 if report["identical"] and report["errors"] == 0 else 1


def _split_codes(tokens):
    """Flatten ``--select AS,MC`` and ``--select AS MC`` alike."""
    codes = []
    for token in tokens or ():
        codes.extend(part for part in token.split(",") if part)
    return tuple(codes)


def cmd_lint(args):
    from repro.analysis.lint import engine

    if args.explain is not None:
        if args.explain == "all":
            print(engine.explain_all())
            return 0
        try:
            print(engine.explain(args.explain))
        except KeyError:
            _fail("unknown rule %r (known: all, %s)"
                  % (args.explain,
                     ", ".join(sorted(engine.RULES))))
        return 0
    try:
        findings = engine.run_repo_lint(select=_split_codes(args.select),
                                        ignore=_split_codes(args.ignore))
        rendered = (engine.render_json(findings) if args.format == "json"
                    else engine.render_text(findings))
    except Exception as exc:  # internal error: exit 2, not a finding list
        _fail("lint pass crashed: %s: %s" % (type(exc).__name__, exc))
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 1 if findings else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learning-based SMT resource distribution (ISCA 2006 "
                    "reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("list-workloads",
                              help="the 42 Table 3 workloads")
    sub.add_argument("--group", choices=GROUPS, default=None)
    sub.set_defaults(func=cmd_list_workloads)

    sub = commands.add_parser("list-benchmarks",
                              help="the 22 Table 2 benchmarks")
    sub.set_defaults(func=cmd_list_benchmarks)

    sub = commands.add_parser("run", help="one workload under one policy")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--policy", default="HILL")
    _add_scale_args(sub)
    _add_resume_arg(sub)
    sub.set_defaults(func=cmd_run)

    sub = commands.add_parser("compare", help="several policies side by side")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--policies", nargs="+",
                     default=["ICOUNT", "FLUSH", "DCRA", "HILL"])
    sub.add_argument("--seeds", nargs="+", type=int, default=None,
                     help="evaluate across these seeds (reports mean "
                          "+/- stdev over several; default: --seed)")
    _add_scale_args(sub)
    _add_resume_arg(sub)
    sub.set_defaults(func=cmd_compare)

    sub = commands.add_parser("solo", help="stand-alone IPC of a benchmark")
    sub.add_argument("--benchmark", required=True)
    _add_scale_args(sub)
    sub.set_defaults(func=cmd_solo)

    sub = commands.add_parser("surface",
                              help="Figure 2 three-thread surface")
    sub.add_argument("--benchmarks", nargs=3,
                     default=["mesa", "vortex", "fma3d"])
    _add_scale_args(sub)
    sub.set_defaults(func=cmd_surface)

    sub = commands.add_parser(
        "verify",
        help="reliability suite: clean invariants + fault matrix "
             "(non-zero exit on violation)")
    sub.add_argument("--workload", default="art-mcf")
    sub.add_argument("--fidelity-period", type=int, default=2,
                     help="checkpoint-fidelity replay every N epochs")
    _add_scale_args(sub)
    # The matrix is ~10 guarded runs; smoke scale keeps it interactive.
    sub.set_defaults(func=cmd_verify, scale="smoke")

    sub = commands.add_parser(
        "sweep",
        help="run a (workload x policy x seed) grid over a process pool "
             "with on-disk result caching")
    sub.add_argument("--workloads", nargs="+", default=None,
                     help="explicit workload names")
    sub.add_argument("--groups", nargs="+", choices=GROUPS, default=None,
                     help="Table 3 groups to sweep")
    sub.add_argument("--preset", choices=("fig4", "fig9", "fig10", "sec5"),
                     default=None,
                     help="shorthand for a figure's grid (groups + policies)")
    sub.add_argument("--policies", nargs="+", default=None,
                     help="policies per workload (default: ICOUNT FLUSH "
                          "DCRA HILL)")
    sub.add_argument("--seeds", nargs="+", type=int, default=[0])
    sub.add_argument("--workloads-per-group", type=int, default=None,
                     metavar="N", help="first N workloads of each group")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (1 = serial; results are "
                          "byte-identical either way)")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="result cache (default: $REPRO_CACHE_DIR or "
                          "~/.cache/repro-sweeps)")
    sub.add_argument("--no-cache", action="store_true",
                     help="bypass the result cache entirely")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write merged results JSON here")
    sub.add_argument("--events", default=None, metavar="FILE",
                     help="append JSONL progress events here")
    sub.add_argument("--resume-dir", default=None, metavar="DIR",
                     help="per-cell crash-safe checkpoints; re-running "
                          "after a kill resumes mid-cell")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="kill and retry a cell whose per-epoch "
                          "heartbeat goes stale this long (default: no "
                          "timeout)")
    sub.add_argument("--max-attempts", type=int, default=3, metavar="N",
                     help="attempts per cell before it is quarantined "
                          "(default: 3)")
    sub.add_argument("--no-degrade", action="store_true",
                     help="abort instead of falling back to in-process "
                          "serial execution when the worker pool keeps "
                          "collapsing")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress live progress lines")
    _add_scale_args(sub)
    sub.set_defaults(func=cmd_sweep)

    from repro.reliability.chaos import CHAOS_PRESETS

    sub = commands.add_parser(
        "chaos",
        help="fault-injection harness for the sweep supervisor and the "
             "service daemon: inject faults and verify convergence")
    sub.add_argument("--preset", default="kill-one-worker",
                     choices=sorted(CHAOS_PRESETS),
                     help="fault scenario (repro.reliability.chaos."
                          "CHAOS_PRESETS): pool presets abuse the sweep "
                          "supervisor, service presets a live daemon")
    sub.add_argument("--jobs", type=int, default=2, metavar="N",
                     help="worker processes for the chaos sweep")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="override the preset's heartbeat timeout")
    sub.add_argument("--max-attempts", type=int, default=3, metavar="N")
    sub.add_argument("--no-degrade", action="store_true",
                     help="abort instead of degrading to serial when "
                          "the pool keeps collapsing")
    sub.add_argument("--keep", action="store_true",
                     help="keep the chaos work directory (cache, "
                          "events.jsonl, quarantine ledger)")
    sub.add_argument("--work-dir", default=None, metavar="DIR",
                     help="run inside DIR instead of a fresh tempdir")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-fault progress lines")
    _add_scale_args(sub)
    # The grid is 4 smoke-or-larger cells run twice (chaos + reference);
    # smoke keeps it interactive, like `verify`.
    sub.set_defaults(func=cmd_chaos, scale="smoke")

    sub = commands.add_parser(
        "lint",
        help="static self-analysis: determinism, policy contracts, "
             "async safety (exit 1 on findings)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--select", nargs="+", default=None, metavar="CODE",
                     help="only rules with these code prefixes; "
                          "space- or comma-separated (e.g. ND1 "
                          "PC203, or AS,ND)")
    sub.add_argument("--ignore", nargs="+", default=None, metavar="CODE",
                     help="drop rules with these code prefixes")
    sub.add_argument("--explain", default=None, metavar="RULE",
                     help="print one rule's documentation and exit "
                          "('all' lists the whole catalogue)")
    sub.set_defaults(func=cmd_lint)

    sub = commands.add_parser(
        "cache", help="inspect or empty the sweep result cache")
    cache_commands = sub.add_subparsers(dest="cache_command", required=True)
    cache_sub = cache_commands.add_parser(
        "info", help="entry count, size, SingleIPC entries, corrupt "
                     "entries, directory")
    cache_sub.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_sub.set_defaults(func=cmd_cache, corrupt_only=False)
    cache_sub = cache_commands.add_parser(
        "clear", help="delete every cached result")
    cache_sub.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_sub.add_argument("--corrupt-only", action="store_true",
                           help="remove only sidelined .corrupt entries, "
                                "keep every valid result")
    cache_sub.set_defaults(func=cmd_cache)

    sub = commands.add_parser(
        "serve",
        help="sweep service daemon: HTTP job queue with leases, quotas "
             "and graceful drain (docs/SERVICE.md)")
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral; see --port-file)")
    sub.add_argument("--port-file", default=None, metavar="FILE",
                     help="write the bound port here once listening "
                          "(race-free startup with --port 0)")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="result cache served to clients (default: "
                          "$REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")
    sub.add_argument("--state-dir", default=None, metavar="DIR",
                     help="job journal, queue snapshot, quarantine "
                          "ledger and shared resume checkpoints")
    sub.add_argument("--queue-limit", type=int, default=1024, metavar="N",
                     help="max backlog cells before submits get 429")
    sub.add_argument("--client-quota", type=int, default=256, metavar="N",
                     help="max pending cells per client id")
    sub.add_argument("--lease-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="heartbeat staleness after which a worker's "
                          "cell is reclaimed and requeued")
    sub.add_argument("--max-attempts", type=int, default=3, metavar="N",
                     help="attempts per cell before quarantine")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress daemon log lines")
    sub.set_defaults(func=cmd_serve)

    sub = commands.add_parser(
        "worker",
        help="pull-based sweep worker: lease cells from a daemon, "
             "simulate, heartbeat, upload")
    sub.add_argument("--server", required=True, metavar="URL",
                     help="daemon base URL, e.g. http://127.0.0.1:8732")
    sub.add_argument("--name", default=None,
                     help="worker display name in daemon events")
    sub.add_argument("--poll-interval", type=float, default=0.25,
                     metavar="SECONDS",
                     help="idle sleep between lease attempts")
    sub.add_argument("--max-cells", type=int, default=None, metavar="N",
                     help="exit after resolving N cells")
    sub.add_argument("--idle-exit", type=float, default=None,
                     metavar="SECONDS",
                     help="exit after this long without work (or with "
                          "the daemon unreachable)")
    sub.add_argument("--fault", default=None, metavar="SPEC",
                     help="chaos hook, e.g. split-result:2 (corrupt the "
                          "first 2 result uploads)")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress worker log lines")
    sub.set_defaults(func=cmd_worker)

    sub = commands.add_parser(
        "submit",
        help="submit a sweep grid to a daemon, stream progress, fetch "
             "the merged JSON")
    sub.add_argument("--server", required=True, metavar="URL")
    sub.add_argument("--client", default="cli",
                     help="client id for the daemon's per-client quota")
    sub.add_argument("--workloads", nargs="+", default=None,
                     help="explicit workload names")
    sub.add_argument("--groups", nargs="+", choices=GROUPS, default=None,
                     help="Table 3 groups to sweep")
    sub.add_argument("--policies", nargs="+", default=None,
                     help="policies per workload (default: ICOUNT FLUSH "
                          "DCRA HILL)")
    sub.add_argument("--seeds", nargs="+", type=int, default=[0])
    sub.add_argument("--workloads-per-group", type=int, default=None,
                     metavar="N", help="first N workloads of each group")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write merged results JSON here (default: "
                          "stdout)")
    sub.add_argument("--no-wait", action="store_true",
                     help="print the job id and exit without waiting")
    sub.add_argument("--timeout", type=float, default=600.0,
                     metavar="SECONDS",
                     help="overall submit-and-wait deadline")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress live progress lines")
    _add_scale_args(sub)
    sub.set_defaults(func=cmd_submit, scale="smoke")

    sub = commands.add_parser(
        "loadtest",
        help="many concurrent clients against a warm cache: latency "
             "percentiles, throughput, throttle counts")
    sub.add_argument("--server", default=None, metavar="URL",
                     help="target daemon (default: self-host a daemon "
                          "plus --workers worker processes)")
    sub.add_argument("--clients", type=int, default=20, metavar="N",
                     help="concurrent client threads")
    sub.add_argument("--requests", type=int, default=5, metavar="N",
                     help="submits per client")
    sub.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes when self-hosting")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write the report JSON here")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress progress lines")
    _add_scale_args(sub)
    sub.set_defaults(func=cmd_loadtest, scale="smoke")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
