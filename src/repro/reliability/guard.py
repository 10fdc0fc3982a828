"""A name kept for ``perfbench/tracer.py``, which wraps
``guard.run_policy_resilient`` as part of its ``cell`` span.

The epoch loop, with its crash-safe checkpoints and resume, is
:func:`repro.experiments.runner.run_policy`; only the sweep supervisor
and the service's leases retry a cell.  perfbench's files change only
together with the benchmark, so delete this module and that tracer line
in the same change (ROADMAP item 3).
"""

from repro.experiments.runner import run_policy

# Patched by name in perfbench/tracer.py; nothing in the program calls it.
run_policy_resilient = run_policy
