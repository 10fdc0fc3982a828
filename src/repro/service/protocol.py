"""Wire protocol shared by the sweep service daemon, workers and clients.

Everything that crosses the HTTP boundary is plain JSON built from the
vocabulary defined here: scale specs (a named
:class:`~repro.experiments.runner.ExperimentScale` plus explicit
overrides), cell specs (the four :class:`SweepCell` fields), and the
service-tier event names.  Keeping the codec in one stdlib-only module
means the daemon, the worker and the client cannot drift apart, and the
test suite can pin the schema.

Event names: the per-job streams replay the classic sweep protocol
(:data:`repro.reliability.supervisor.SWEEP_EVENTS` — the canonical
table, shared with ``SweepEngine`` and ``CellSupervisor``) and add the
service-only names in :data:`SERVICE_EVENTS` for job, lease and daemon
lifecycle.  The service streamer validates every emitted event against
the union; docs/SERVICE.md lists exactly :data:`SERVICE_EVENTS` and a
drift test enforces it.
"""

from repro.experiments.parallel import SweepCell, canonical_policy
from repro.experiments.runner import ExperimentScale

#: Service-tier event names, beyond the classic sweep protocol.
SERVICE_EVENTS = (
    "job-accepted",      # submit validated, cells queued/deduped
    "job-done",          # every cell resolved (result or quarantine)
    "cell-leased",       # a worker took the cell under a lease
    "lease-expired",     # heartbeat went stale; cell reclaimed
    "cell-requeued",     # reclaimed/failed cell back in the queue
    "worker-registered",  # a worker joined
    "worker-lost",       # a worker's lease expired or it deregistered
    "service-draining",  # SIGTERM received; no new work accepted
    "service-resumed",   # daemon restarted from its persisted queue
)

#: Named scales a submit request may ask for.
SCALES = {
    "smoke": ExperimentScale.smoke,
    "bench": ExperimentScale.bench,
    "full": ExperimentScale.full,
}

#: Scale fields a submit request may override explicitly.
SCALE_OVERRIDES = ("epochs", "epoch_size", "seed")


def scale_spec(name, epochs=None, epoch_size=None, seed=None):
    """The JSON form of a scale request: named base + overrides."""
    if name not in SCALES:
        raise ValueError("unknown scale %r (valid: %s)"
                         % (name, ", ".join(sorted(SCALES))))
    spec = {"scale": name}
    for key, value in (("epochs", epochs), ("epoch_size", epoch_size),
                       ("seed", seed)):
        if value is not None:
            spec[key] = int(value)
    return spec


def scale_from_spec(spec):
    """Rebuild the :class:`ExperimentScale` a spec describes.

    Raises :class:`ValueError` on an unknown scale name or override
    field — the daemon turns that into an HTTP 400.
    """
    if not isinstance(spec, dict):
        raise ValueError("scale spec must be an object, got %r"
                         % type(spec).__name__)
    name = spec.get("scale")
    if name not in SCALES:
        raise ValueError("unknown scale %r (valid: %s)"
                         % (name, ", ".join(sorted(SCALES))))
    unknown = sorted(set(spec) - {"scale"} - set(SCALE_OVERRIDES))
    if unknown:
        raise ValueError("unknown scale override(s): %s (valid: %s)"
                         % (", ".join(unknown), ", ".join(SCALE_OVERRIDES)))
    overrides = {}
    for key in SCALE_OVERRIDES:
        if spec.get(key) is not None:
            if not isinstance(spec[key], int) or spec[key] < 0:
                raise ValueError("scale override %r must be a "
                                 "non-negative integer" % key)
            overrides[key] = spec[key]
    scale = SCALES[name]()
    return scale.with_overrides(**overrides) if overrides else scale


def spec_of(scale):
    """The scale spec that rebuilds ``scale``: the first named base it
    derives from plus the overrides it differs by.  Raises
    :class:`ValueError` for a scale no spec can express."""
    for name in sorted(SCALES):
        base = SCALES[name]()
        spec = scale_spec(name, **{
            key: getattr(scale, key) for key in SCALE_OVERRIDES
            if getattr(scale, key) != getattr(base, key)})
        if scale_from_spec(spec) == scale:
            return spec
    raise ValueError("no scale spec rebuilds %r" % (scale,))


def cell_spec(cell):
    """The JSON form of one sweep cell."""
    return {"workload": cell.workload, "policy": cell.policy,
            "seed": cell.seed, "epochs": cell.epochs}


def cell_from_spec(spec):
    """Rebuild a :class:`SweepCell`; raises :class:`ValueError` on a
    malformed spec (the policy name is canonicalized, the workload is
    validated later by :func:`~repro.experiments.parallel.cache_key`)."""
    if not isinstance(spec, dict):
        raise ValueError("cell spec must be an object, got %r"
                         % type(spec).__name__)
    try:
        workload = spec["workload"]
        policy = canonical_policy(spec["policy"])
    except KeyError as exc:
        raise ValueError("cell spec missing field %s" % exc)
    seed = spec.get("seed", 0)
    epochs = spec.get("epochs")
    if not isinstance(workload, str):
        raise ValueError("cell workload must be a string")
    if not isinstance(seed, int):
        raise ValueError("cell seed must be an integer")
    if epochs is not None and (not isinstance(epochs, int) or epochs < 1):
        raise ValueError("cell epochs must be a positive integer or null")
    return SweepCell(workload=workload, policy=policy, seed=seed,
                     epochs=epochs)


__all__ = [
    "SCALES",
    "SCALE_OVERRIDES",
    "SERVICE_EVENTS",
    "cell_from_spec",
    "cell_spec",
    "scale_from_spec",
    "scale_spec",
    "spec_of",
]
