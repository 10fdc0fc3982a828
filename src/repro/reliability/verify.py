"""The ``python -m repro verify`` suite: invariants + fault matrix.

Two sections, both scaled by the usual
:class:`~repro.experiments.runner.ExperimentScale`:

1. **Clean invariant suite** — run a representative workload under
   ICOUNT, STATIC and HILL with every invariant enabled (including
   periodic checkpoint-fidelity replays).  Any
   :class:`~repro.reliability.invariants.InvariantViolation` here is a
   simulator bug: the suite fails.
2. **Fault matrix** — run HILL under each fault model (and all of them
   combined) with partition sanitizing and every invariant enabled.
   Every scenario must end in one of two acceptable states: *tolerated*
   (the run completed, with the degradation vs. the clean run logged) or
   *reported* (a structured ``InvariantViolation``).  Any other
   exception fails the suite.

:func:`run_verification` returns a process exit code (0 pass, 1 fail).
"""

import traceback

from repro.core.hill_climbing import make_hill_policy
from repro.experiments.runner import run_policy
from repro.policies.icount import ICountPolicy
from repro.policies.static_partition import StaticPartitionPolicy
from repro.reliability.faults import (
    FaultInjector,
    MemoryLatencySpike,
    MisbehavingPolicy,
    PartitionScramble,
    RNGDesync,
    TransientFetchStall,
)
from repro.reliability.invariants import InvariantChecker, InvariantViolation
from repro.workloads.mixes import get_workload

DEFAULT_WORKLOAD = "art-mcf"


def _clean_factories(scale):
    return {
        "ICOUNT": ICountPolicy,
        "STATIC": StaticPartitionPolicy,
        "HILL": lambda: make_hill_policy(
            "wipc", software_cost=scale.hill_software_cost,
            sample_period=scale.hill_sample_period),
    }


def _fault_scenarios():
    """scenario name -> (fault list, wrap_policy)."""
    return {
        "mem-latency-spike": ([MemoryLatencySpike(burst_probability=0.5)],
                              False),
        "transient-fetch-stall": ([TransientFetchStall()], False),
        "rng-desync": ([RNGDesync()], False),
        "partition-scramble": ([PartitionScramble()], False),
        "misbehaving-policy": ([], True),
        "combined": ([MemoryLatencySpike(), TransientFetchStall(),
                      RNGDesync(), PartitionScramble()], True),
    }


def run_verification(scale, workload_name=DEFAULT_WORKLOAD, out=print,
                     fidelity_period=2, fault_seed=0):
    """Run the invariant suite and fault matrix; return an exit code."""
    workload = get_workload(workload_name)
    factories = _clean_factories(scale)
    failures = []
    clean_hill_ipc = None

    out("invariant suite: %s, %d epochs x %d cycles, fidelity every %s "
        "epochs" % (workload.name, scale.epochs, scale.epoch_size,
                    fidelity_period))
    for name, factory in factories.items():
        checker = InvariantChecker(fidelity_period=fidelity_period)
        try:
            result = run_policy(workload, factory(), scale, checker=checker)
        except InvariantViolation as exc:
            failures.append("clean run %s: %s" % (name, exc))
            out("  FAIL  %-8s %s" % (name, exc))
            continue
        except Exception:
            failures.append("clean run %s: unhandled exception" % name)
            out("  FAIL  %-8s unhandled exception:\n%s"
                % (name, traceback.format_exc()))
            continue
        if name == "HILL":
            clean_hill_ipc = result.avg_ipc
        out("  PASS  %-8s avg IPC %.3f  (%d epochs checked, %d fidelity "
            "replays)" % (name, result.avg_ipc, checker.checks_run,
                          checker.fidelity_checks_run))

    out("")
    out("fault matrix: HILL with partition sanitizing and invariant checks")
    hill_factory = factories["HILL"]
    for index, (scenario, (faults, wrap)) in enumerate(
            _fault_scenarios().items()):
        policy = hill_factory()
        if wrap:
            policy = MisbehavingPolicy(policy, seed=fault_seed + 100 + index)
        injector = FaultInjector(faults, seed=fault_seed + index) \
            if faults else None
        checker = InvariantChecker(fidelity_period=fidelity_period)
        try:
            result = run_policy(
                workload, policy, scale, injector=injector, checker=checker,
                sanitize_partitions=True)
        except InvariantViolation as exc:
            out("  REPORTED   %-22s %s: %s"
                % (scenario, type(exc).__name__, exc))
            continue
        except Exception:
            failures.append("fault scenario %s: unhandled exception"
                            % scenario)
            out("  FAIL       %-22s unhandled exception:\n%s"
                % (scenario, traceback.format_exc()))
            continue
        report = result.reliability
        injected = sum(report["faults_injected"].values())
        if wrap:
            injected += policy.corruptions
        degradation = ""
        if clean_hill_ipc:
            degradation = ", %+.1f%% vs clean" % (
                100.0 * (result.avg_ipc - clean_hill_ipc) / clean_hill_ipc)
        out("  TOLERATED  %-22s avg IPC %.3f%s  (%d faults, %d repairs)"
            % (scenario, result.avg_ipc, degradation, injected,
               report["partition_repairs"]))

    out("")
    if failures:
        out("verify: FAIL (%d failure%s)"
            % (len(failures), "s" if len(failures) != 1 else ""))
        for failure in failures:
            out("  - %s" % failure)
        return 1
    out("verify: PASS")
    return 0
