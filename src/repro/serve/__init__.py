"""repro.serve: exploration-as-a-service.

The service layer on top of :mod:`repro.engine`: concurrent clients
submit sweep requests to one long-lived process and share every
evaluation, fleet-wide, instead of re-running one-shot CLI sweeps.

* :mod:`repro.serve.store` -- :class:`ResultStore`, the disk-backed
  (sqlite, schema ``repro.store/1``) result tier under the in-memory
  :class:`~repro.engine.cache.EvalCache`: finished estimates are
  content-addressed by evaluator fingerprint + configuration, survive
  restarts, and are shared across processes.  A
  :class:`~repro.engine.parallel.ParallelSweep` given the store is how
  sweeps, searches and result rebuilds read and extend it.
* :mod:`repro.serve.jobs` -- :class:`JobSpec` (the canonical, hashable
  sweep request; an optional ``search`` section turns it into a
  multi-objective search job), :class:`JobManager` (bounded priority
  queue, request coalescing, admission control, persistence) and
  :class:`JobRunner` (every job runs on the runner's
  :class:`~repro.engine.parallel.ParallelSweep`, which a search job
  hands to :func:`~repro.moo.driver.run_search`; each completed chunk is
  stored, so a killed server resumes bit-identically from the store).
* :mod:`repro.serve.tenancy` -- multi-tenant admission control:
  :class:`TenancyPolicy` / :class:`ClientPolicy` (per-client token-bucket
  rate limits, in-flight quotas, fair-share weights) consulted by the
  :class:`JobManager` before a job enters the queue.
* :mod:`repro.serve.server` -- the stdlib HTTP/JSON front end behind
  ``repro serve`` (``/health`` + ``/healthz``/``/readyz``, ``/metrics``,
  ``/jobs`` with progress streaming and ``DELETE`` cancellation,
  ``/pareto`` for multi-objective search jobs streaming ``repro.front/1``
  events per generation, 429 backpressure with per-client
  ``Retry-After``, graceful drain on SIGTERM).
* :mod:`repro.serve.client` -- :class:`ServeClient`, the Python client
  behind ``repro submit`` / ``repro jobs``.  Submissions mint a
  ``trace_id`` by default, so every job's ``repro.trace/1`` timeline is
  fetchable from ``GET /jobs/<id>/trace`` afterwards.
* :mod:`repro.serve.top` -- :func:`run_top`, the polling terminal
  dashboard behind ``repro top`` (queue depth, throughput, latency
  percentiles; see ``docs/OBSERVABILITY.md``).

Quickstart (server side)::

    from repro.serve import ExplorationService, make_server

    service = ExplorationService("results.db").start()
    make_server("127.0.0.1", 8000, service).serve_forever()
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    Job,
    JobManager,
    JobRunner,
    JobSpec,
    QueueFullError,
    ServiceDrainingError,
)
from repro.serve.server import (
    SERVE_SCHEMA,
    ExplorationService,
    ServeHTTPServer,
    install_signal_handlers,
    make_server,
)
from repro.serve.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreSchemaError,
    config_key,
    evaluator_fingerprint,
    open_store,
)
from repro.serve.tenancy import (
    ClientPolicy,
    QuotaExceededError,
    RateLimitedError,
    TenancyError,
    TenancyPolicy,
    TokenBucket,
)
from repro.serve.top import run_top

__all__ = [
    "ClientPolicy",
    "ExplorationService",
    "Job",
    "JobManager",
    "JobRunner",
    "JobSpec",
    "QueueFullError",
    "QuotaExceededError",
    "RateLimitedError",
    "ResultStore",
    "SERVE_SCHEMA",
    "STORE_SCHEMA",
    "ServeClient",
    "ServeError",
    "ServeHTTPServer",
    "ServiceDrainingError",
    "StoreError",
    "StoreSchemaError",
    "TenancyError",
    "TenancyPolicy",
    "TokenBucket",
    "config_key",
    "evaluator_fingerprint",
    "install_signal_handlers",
    "make_server",
    "open_store",
    "run_top",
]
