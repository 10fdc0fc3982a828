"""Sweep-as-a-service: a fault-tolerant distributed experiment tier.

This package promotes the supervised parallel sweep engine from a
single-machine process pool to a long-running service:

* :mod:`repro.service.server` — the ``repro serve`` daemon: accepts
  sweep jobs over HTTP/JSON, shards grid cells across pull-based
  workers under **leases** with heartbeat renewal, applies
  **backpressure** (HTTP 429 + ``Retry-After``) and **per-client
  quotas**, streams the JSONL sweep event protocol live, and drains
  gracefully on SIGTERM (the queue persists and resumes on restart);
* :mod:`repro.service.worker` — the ``repro worker`` process: pulls
  leased cells over HTTP, simulates them through the same
  ``_execute_cell`` path as pool workers, renews its lease per epoch
  and uploads results;
* :mod:`repro.service.client` — the ``repro submit`` client library:
  submit/status/events/result plus 429-aware retry;
* :mod:`repro.service.chaos` — the service-tier runner of the one
  chaos harness (:mod:`repro.reliability.chaos`): kill-worker,
  worker-storm, slow-client, queue-flood and split-result abuse a live
  daemon, and the harness proves the merged results converge
  byte-identically to its fault-free serial reference;
* :mod:`repro.service.loadtest` — the ``repro loadtest`` harness:
  hundreds of concurrent clients hammering a warm cache.

Results are served out of the existing sha256 content-addressed
:class:`~repro.experiments.parallel.ResultCache`: the service moves
cache *transport* over HTTP while cache *identity* stays the
location-independent :func:`~repro.experiments.parallel.cache_key`.
No code a sweep cell runs imports this package (the dependency points
strictly service -> engine), so the service tier cannot change a cached
cell's bytes.  Like every package source it is still hashed into the
code fingerprint, so editing it invalidates every cached result.

See docs/SERVICE.md for endpoints, lease/backpressure/quota semantics,
the failure matrix and the drain/restart walkthrough.
"""

from repro.service.client import ServiceClient, ServiceError, SubmitRejected
from repro.service.protocol import SERVICE_EVENTS
from repro.service.server import ServiceConfig, ServiceHandle, SweepService

__all__ = [
    "SERVICE_EVENTS",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "SubmitRejected",
    "SweepService",
]
