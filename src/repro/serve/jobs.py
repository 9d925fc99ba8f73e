"""Job model for the exploration service: specs, queue, coalescing, runner.

A *job* is one sweep request -- ``(workload, config grid, bounds,
backend)`` -- expressed as a :class:`JobSpec` whose canonical JSON hashes
to a ``spec_hash``.  A spec carrying a ``search`` section
(:class:`~repro.moo.driver.SearchSettings`) is a *search job* instead:
the runner drives :func:`~repro.moo.driver.run_search` over the spec's
grid, publishes one ``repro.front/1`` event per completed generation
into the job's event history, journals generations to a distinct
``<spec_hash>.moo.jsonl`` spool file, and persists the final (or, on
cancellation, partial) front in the run manifest.  The hash is the coalescing key: while a job with the
same hash is queued or running, further submissions attach to it instead
of enqueueing duplicates, so concurrent clients sweeping the same grid
pay for it once.  Overlapping-but-different grids deduplicate one level
down, per configuration, through the
:class:`~repro.serve.store.ResultStore` L2 tier: a configuration any
previous job evaluated is served from the store without touching the
engine.

:class:`JobManager` owns the bounded multi-tenant queue (admission
control: per-client token buckets and in-flight quotas from
:mod:`repro.serve.tenancy`, then a global depth bound; rejections carry
a retry hint the HTTP layer turns into ``429 Retry-After``) and the job
registry; every state transition is persisted to the store's ``jobs``
table, so a ``kill -9`` of the server loses nothing --
:meth:`JobManager.recover` re-enqueues interrupted jobs on restart and
:class:`JobRunner` resumes them from their checkpoint journals with
bit-identical results.

Dequeue is weighted fair share, not strict global priority: each client
gets its own priority subqueue and a deficit-round-robin pointer walks
the clients, crediting each visit with the client's configured weight,
so one tenant's grid storm cannot starve the others.  Priorities still
order jobs *within* a client.

Jobs can end in a third terminal state, ``cancelled``: a client DELETE,
a ``deadline_s`` expiry, or drain-time policy sets the job's cancel
event and the sweep stops cooperatively at the next chunk boundary --
the checkpoint journal survives, so resubmitting the same spec resumes
rather than restarts.  Evaluator backends are additionally guarded by a
per-``eval_id`` circuit breaker: consecutive chunk failures open it and
later jobs against the same evaluator fail fast with a typed error
until a cooldown probe succeeds.

Counters fed into the :mod:`repro.obs` registry: ``serve.jobs_submitted``,
``serve.jobs_coalesced``, ``serve.jobs_rejected``, ``serve.jobs_completed``,
``serve.jobs_failed``, ``serve.jobs_cancelled``, ``serve.jobs_recovered``,
``serve.quota.*`` (admission rejections), ``serve.fairshare.dequeued.<client>``
and ``breaker.*``; latency histograms ``serve.queue.wait_seconds``
(submit to claim) and ``serve.job_seconds`` (execution wall time).  A job
submitted with a ``trace_id`` additionally produces a ``repro.trace/1``
timeline (see :mod:`repro.obs.trace`) persisted in the store's
``traces`` table.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import logging
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import CacheConfig, design_space
from repro.core.metrics import PerformanceEstimate
from repro.energy import get_energy_model, get_sram
from repro.engine.evaluator import Evaluator, order_configs
from repro.engine.parallel import ParallelSweep, WorkerPool
from repro.engine.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    ResilienceOptions,
    SweepCancelledError,
    estimate_to_json,
    sweep_fingerprint,
)
from repro.engine.result import ExplorationResult
from repro.engine.workload import KernelWorkload
from repro.kernels import get_kernel
from repro.moo.driver import SearchSettings, run_search
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_metrics
from repro.obs.spans import span
from repro.registry import build_manifest, get_registry
from repro.serve.store import ResultStore, StoreBackedEvaluator, evaluator_fingerprint
from repro.serve.tenancy import (
    DEFAULT_CLIENT,
    TenancyPolicy,
    validate_client_id,
)

__all__ = [
    "Job",
    "JobManager",
    "JobRunner",
    "JobSpec",
    "QueueFullError",
    "ServiceDrainingError",
    "JOB_STATES",
]

logger = logging.getLogger(__name__)

#: Lifecycle states of a job (terminal: ``done``, ``failed``, ``cancelled``).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Default priority; lower numbers run sooner.
DEFAULT_PRIORITY = 10


class QueueFullError(RuntimeError):
    """Admission control rejected a submission (queue at capacity)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"job queue is full; retry after {retry_after_s:.0f}s"
        )
        self.retry_after_s = retry_after_s


class ServiceDrainingError(RuntimeError):
    """The service is draining (SIGTERM) and accepts no new jobs."""


@dataclass(frozen=True)
class JobSpec:
    """One sweep request: workload, grid, bounds and backend.

    The canonical JSON of the spec (sorted keys, normalised tuples) hashes
    to :attr:`spec_hash`, the fleet-wide coalescing key.  ``objective`` /
    ``cycle_bound`` / ``energy_bound`` ride along so the service can
    report the bounded selection with the result.
    """

    kernel: str
    backend: str = "fastsim"
    max_size: int = 512
    min_size: int = 16
    ways: Tuple[int, ...] = (1,)
    tilings: Optional[Tuple[int, ...]] = None
    sram: str = "CY7C-2Mbit"
    optimize_layout: bool = True
    objective: str = "energy"
    cycle_bound: Optional[float] = None
    energy_bound: Optional[float] = None
    #: Multi-objective search section (``repro.moo``): when present the
    #: job runs a population-based Pareto search over the grid instead of
    #: sweeping it exhaustively, and its result is the final front.
    search: Optional[SearchSettings] = None

    def __post_init__(self) -> None:
        registry = get_registry()
        if not registry.has("kernel", self.kernel):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not registry.has("backend", self.backend):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not registry.has("sram", self.sram):
            raise ValueError(f"unknown SRAM part {self.sram!r}")
        if self.objective not in ("energy", "cycles"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.min_size <= 0 or self.max_size < self.min_size:
            raise ValueError("size bounds must satisfy 0 < min <= max")
        object.__setattr__(self, "ways", tuple(int(w) for w in self.ways))
        if self.tilings is not None:
            object.__setattr__(
                self, "tilings", tuple(int(b) for b in self.tilings)
            )
        if isinstance(self.search, dict):
            object.__setattr__(
                self, "search", SearchSettings.from_json(self.search)
            )
        if self.search is not None:
            if not registry.has("searcher", self.search.searcher):
                raise ValueError(
                    f"unknown searcher {self.search.searcher!r}"
                )

    def to_json(self) -> Dict[str, Any]:
        """JSON-compatible dict accepted back by :meth:`from_json`.

        The ``search`` section is omitted entirely for plain sweep jobs:
        the canonical JSON (and therefore every historical ``spec_hash``)
        of a sweep spec is byte-identical to what it was before search
        jobs existed.
        """
        doc: Dict[str, Any] = {
            "kernel": self.kernel,
            "backend": self.backend,
            "max_size": self.max_size,
            "min_size": self.min_size,
            "ways": list(self.ways),
            "tilings": None if self.tilings is None else list(self.tilings),
            "sram": self.sram,
            "optimize_layout": self.optimize_layout,
            "objective": self.objective,
            "cycle_bound": self.cycle_bound,
            "energy_bound": self.energy_bound,
        }
        if self.search is not None:
            doc["search"] = self.search.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobSpec":
        """Validate and build a spec from a client-supplied document."""
        if not isinstance(doc, dict):
            raise ValueError("job spec must be a JSON object")
        known = {
            "kernel", "backend", "max_size", "min_size", "ways", "tilings",
            "sram", "optimize_layout", "objective", "cycle_bound",
            "energy_bound", "search",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        if "kernel" not in doc:
            raise ValueError("job spec needs a kernel")
        kwargs: Dict[str, Any] = dict(doc)
        if "ways" in kwargs:
            kwargs["ways"] = tuple(kwargs["ways"])
        if kwargs.get("tilings") is not None:
            kwargs["tilings"] = tuple(kwargs["tilings"])
        if kwargs.get("search") is not None:
            kwargs["search"] = SearchSettings.from_json(kwargs["search"])
        elif "search" in kwargs:
            del kwargs["search"]
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed job spec: {exc}") from exc

    def canonical(self) -> str:
        """Canonical JSON text (the input to :attr:`spec_hash`)."""
        return json.dumps(self.to_json(), sort_keys=True)

    @functools.cached_property
    def spec_hash(self) -> str:
        """SHA-256 of the canonical spec: the coalescing key."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def configs(self) -> List[CacheConfig]:
        """The grid in canonical sweep order (a search's candidate space)."""
        return order_configs(
            design_space(
                max_size=self.max_size,
                min_size=self.min_size,
                ways=self.ways,
                tilings=self.tilings,
            )
        )

    def total_work(self) -> int:
        """The job's progress denominator.

        A sweep evaluates every grid point; a search's nominal budget is
        ``generations x population`` unique configurations requested (it
        usually touches far fewer grid points than the sweep would).
        """
        if self.search is not None:
            return self.search.budget
        return len(self.configs())

    def build_evaluator(
        self, store: Optional[ResultStore] = None
    ) -> Any:
        """The engine evaluator for this spec (store-backed when given)."""
        evaluator = Evaluator(
            KernelWorkload(
                get_kernel(self.kernel), optimize_layout=self.optimize_layout
            ),
            backend=self.backend,
            energy_model=get_energy_model("hwo", sram=get_sram(self.sram)),
        )
        if store is None:
            return evaluator
        return StoreBackedEvaluator(evaluator, store)

    def eval_id(self) -> str:
        """The store fingerprint of this spec's evaluator."""
        return evaluator_fingerprint(self.build_evaluator())


@dataclass
class Job:
    """One tracked sweep: spec + lifecycle + progress.

    A job holds no result: a done job's rows live in the result store
    (see :meth:`~repro.serve.server.ExplorationService.job_result`).
    """

    spec: JobSpec
    priority: int = DEFAULT_PRIORITY
    job_id: str = ""
    state: str = "queued"
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    done_configs: int = 0
    total_configs: int = 0
    coalesced: int = 0
    resumed: bool = False
    #: Trace identity (repro.obs.trace); ``None`` runs the job untraced.
    trace_id: Optional[str] = None
    #: Who submitted the job (fair-share / quota accounting key).
    client_id: str = DEFAULT_CLIENT
    #: Wall-clock budget from submission; expiry cancels the job.
    deadline_s: Optional[float] = None
    #: Bumped on every visible change; progress streams key off it.
    version: int = 0
    #: Set once cancellation was requested (volatile; the runner wires
    #: ``cancel_event`` into the sweep when the job starts executing).
    cancel_requested: bool = field(default=False, repr=False)
    cancel_event: Optional[threading.Event] = field(default=None, repr=False)
    #: Every snapshot this job has published, in order.  ``/events``
    #: consumers replay it from index 0, so any number of concurrent
    #: streams see the identical, complete sequence (volatile: not
    #: persisted, rebuilt with one snapshot on recovery).
    history: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        # Built once: every snapshot in ``history`` shares (and never
        # mutates) this one document.
        self._spec_doc = self.spec.to_json()
        if not self.job_id:
            self.job_id = f"{self.spec.spec_hash[:12]}-{uuid.uuid4().hex[:8]}"
        if not self.total_configs:
            self.total_configs = self.spec.total_work()

    @property
    def terminal(self) -> bool:
        """Whether the job reached ``done``, ``failed`` or ``cancelled``."""
        return self.state in ("done", "failed", "cancelled")

    def deadline_at(self) -> Optional[float]:
        """Absolute wall-clock expiry of the job (``None`` = no deadline)."""
        if self.deadline_s is None:
            return None
        return self.submitted_s + self.deadline_s

    def to_json(self) -> Dict[str, Any]:
        """The job record served by ``GET /jobs/<id>`` (and persisted)."""
        return {
            "job_id": self.job_id,
            "spec": self._spec_doc,
            "spec_hash": self.spec.spec_hash,
            "priority": self.priority,
            "state": self.state,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "done_configs": self.done_configs,
            "total_configs": self.total_configs,
            "coalesced": self.coalesced,
            "resumed": self.resumed,
            "trace_id": self.trace_id,
            "client_id": self.client_id,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Job":
        """Rebuild a persisted job record (dropping volatile fields)."""
        return cls(
            spec=JobSpec.from_json(doc["spec"]),
            priority=int(doc.get("priority", DEFAULT_PRIORITY)),
            job_id=doc["job_id"],
            state=doc.get("state", "queued"),
            submitted_s=float(doc.get("submitted_s", 0.0)),
            started_s=doc.get("started_s"),
            finished_s=doc.get("finished_s"),
            error=doc.get("error"),
            done_configs=int(doc.get("done_configs", 0)),
            total_configs=int(doc.get("total_configs", 0)),
            coalesced=int(doc.get("coalesced", 0)),
            resumed=bool(doc.get("resumed", False)),
            trace_id=doc.get("trace_id"),
            client_id=validate_client_id(doc.get("client_id")),
            deadline_s=doc.get("deadline_s"),
        )


class JobManager:
    """Bounded fair-share queue + registry + persistence for jobs.

    All mutation happens under one condition variable; every visible
    change bumps the job's ``version`` and wakes waiters, which is what
    the long-poll and progress-streaming endpoints block on.

    Admission runs in policy order -- drain check, coalescing (which
    still charges the rate limit), per-client in-flight quota, global
    depth bound, then the per-client rate limit, so only admissible
    submissions debit the client's token bucket --
    and dequeue is deficit round-robin over per-client priority
    subqueues (see :class:`~repro.serve.tenancy.TenancyPolicy` for the
    knobs; the zero-config default is unlimited and single-tenant
    behaviour is unchanged).  ``clock`` is injectable wall-clock time so
    fairness and deadline tests run deterministically.
    """

    def __init__(
        self,
        store: ResultStore,
        max_depth: int = 16,
        retry_after_s: float = 2.0,
        tenancy: Optional[TenancyPolicy] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_depth < 1:
            raise ValueError("queue depth must be at least 1")
        self.store = store
        self.max_depth = max_depth
        self.retry_after_s = retry_after_s
        self.tenancy = tenancy if tenancy is not None else TenancyPolicy()
        self._clock = clock
        self._cond = threading.Condition()
        self._jobs: "Dict[str, Job]" = {}
        #: client_id -> min-heap of (priority, seq, job_id).
        self._queues: Dict[str, List[Tuple[int, int, str]]] = {}
        #: Deficit-round-robin state: visit order, pointer, credits.
        self._rr: List[str] = []
        self._rr_pos = 0
        self._deficit: Dict[str, float] = {}
        self._queued = 0
        #: client_id -> queued + running jobs (quota accounting).
        self._inflight: Dict[str, int] = {}
        self._seq = itertools.count()
        #: spec_hash -> job_id for every queued or running job.
        self._active: Dict[str, str] = {}
        self._draining = False
        self._stopped = False

    # ------------------------------------------------------------------
    # submission / admission control / coalescing

    def submit(
        self,
        spec: JobSpec,
        priority: int = DEFAULT_PRIORITY,
        trace_id: Optional[str] = None,
        client_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Tuple[Job, bool]:
        """Queue a job (or coalesce onto an active one).

        Returns ``(job, coalesced)``.  Raises :class:`QueueFullError`
        when the queue is at capacity, a
        :class:`~repro.serve.tenancy.TenancyError` subclass when the
        client's rate limit or in-flight quota rejects the submission
        (both map to ``429`` with per-client ``Retry-After``), and
        :class:`ServiceDrainingError` during drain.  ``trace_id`` opts
        the job into a ``repro.trace/1`` timeline; a coalesced
        submission joins the original job's trace and the job keeps the
        most permissive of the deadlines asked of it.
        """
        metrics = get_metrics()
        client = validate_client_id(client_id)
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        with self._cond:
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining; not accepting new jobs"
                )
            active_id = self._active.get(spec.spec_hash)
            if active_id is not None:
                # A coalesced join still charges the client's token
                # bucket: coalesced spam still costs writes.
                self.tenancy.check_rate(client)
                job = self._jobs[active_id]
                job.coalesced += 1
                if job.deadline_s is not None:
                    # Most permissive deadline wins: joining without one
                    # lifts it, otherwise the *absolute* expiries merge
                    # -- the joiner's budget starts now, not at the
                    # original submission.
                    if deadline_s is None:
                        job.deadline_s = None
                    else:
                        job.deadline_s = max(
                            job.deadline_s,
                            (self._clock() - job.submitted_s) + deadline_s,
                        )
                self._touch(job)
                metrics.counter("serve.jobs_coalesced").inc()
                self._persist(job)
                self._cond.notify_all()
                return job, True
            self.tenancy.check_inflight(
                client, self._inflight.get(client, 0), self.retry_after_s
            )
            if self._queued >= self.max_depth:
                metrics.counter("serve.jobs_rejected").inc()
                raise QueueFullError(self.retry_after_s)
            # The bucket is debited only once the submission is otherwise
            # admissible: a quota or queue-full rejection must not eat
            # rate budget the client needs for its Retry-After retry.
            self.tenancy.check_rate(client)
            job = Job(
                spec=spec,
                priority=priority,
                trace_id=trace_id,
                client_id=client,
                deadline_s=deadline_s,
                submitted_s=self._clock(),
            )
            self._register(job)
            self._touch(job)
            metrics.counter("serve.jobs_submitted").inc()
            metrics.gauge("serve.queue_depth").set(self._queued)
            self._persist(job)
            self._cond.notify_all()
            return job, False

    def _touch(self, job: Job) -> None:
        """Publish a visible change: bump the version, append to history."""
        job.version += 1
        job.history.append(job.to_json())

    def _register(self, job: Job) -> None:
        """Track a queued job (caller holds the lock)."""
        self._jobs[job.job_id] = job
        self._active[job.spec.spec_hash] = job.job_id
        client = job.client_id
        if client not in self._queues:
            self._queues[client] = []
            self._rr.append(client)
            self._deficit.setdefault(client, 0.0)
        heapq.heappush(
            self._queues[client], (job.priority, next(self._seq), job.job_id)
        )
        self._queued += 1
        self._inflight[client] = self._inflight.get(client, 0) + 1

    def recover(self) -> int:
        """Re-enqueue persisted jobs interrupted by a crash or restart.

        ``queued`` and ``running`` records go back on the queue (their
        checkpoint journals make the resume cheap); terminal records are
        registered for ``GET /jobs`` history.  Returns the number of jobs
        re-enqueued.
        """
        recovered = 0
        docs = sorted(self.store.load_jobs(), key=lambda d: d.get("submitted_s", 0.0))
        with self._cond:
            for doc in docs:
                try:
                    job = Job.from_json(doc)
                except (KeyError, ValueError) as exc:
                    logger.warning(
                        "ignoring unreadable persisted job record: %s", exc
                    )
                    continue
                if job.job_id in self._jobs:
                    continue
                if job.terminal:
                    self._jobs[job.job_id] = job
                    job.history.append(job.to_json())
                    continue
                job.state = "queued"
                job.resumed = True
                self._register(job)
                self._touch(job)
                self._persist(job)
                recovered += 1
            if recovered:
                get_metrics().counter("serve.jobs_recovered").inc(recovered)
                self._cond.notify_all()
        if recovered:
            logger.info("recovered %d interrupted job(s)", recovered)
        return recovered

    # ------------------------------------------------------------------
    # runner side

    def next_job(self, timeout_s: float = 0.5) -> Optional[Job]:
        """Claim the next job under fair share (blocks up to ``timeout_s``).

        Deficit round-robin: a pointer walks the clients with queued
        work; each visit credits the client's weight, and one unit of
        deficit buys one job (priority-ordered *within* the client).  A
        job whose deadline already passed while queued is finalised as
        ``cancelled`` at claim time instead of being started.
        """
        metrics = get_metrics()
        with self._cond:
            if not self._queued:
                self._cond.wait(timeout_s)
            while True:
                job = self._pick_locked()
                if job is None:
                    return None
                deadline_at = job.deadline_at()
                now = self._clock()
                if deadline_at is not None and now >= deadline_at:
                    self._finalize_cancel_locked(
                        job,
                        f"deadline of {job.deadline_s:g}s expired "
                        "before the job started",
                    )
                    continue
                job.state = "running"
                job.started_s = now
                self._touch(job)
                wait_s = max(0.0, job.started_s - job.submitted_s)
                metrics.histogram("serve.queue.wait_seconds").observe(wait_s)
                metrics.histogram(
                    f"serve.fairshare.wait_seconds.{job.client_id}"
                ).observe(wait_s)
                metrics.counter(
                    f"serve.fairshare.dequeued.{job.client_id}"
                ).inc()
                metrics.gauge("serve.queue_depth").set(self._queued)
                self._persist(job)
                self._cond.notify_all()
                return job

    def _pick_locked(self) -> Optional[Job]:
        """Pop one job by deficit round-robin (caller holds the lock)."""
        while self._queued and self._rr:
            if self._rr_pos >= len(self._rr):
                self._rr_pos = 0
            client = self._rr[self._rr_pos]
            heap = self._queues.get(client)
            if not heap:
                # The client's subqueue drained; retire its DRR slot (a
                # returning client starts with zero credit, so idle time
                # never banks bandwidth).
                self._drop_client_locked(client)
                continue
            credit = self._deficit.get(client, 0.0)
            if credit < 1.0:
                credit += self.tenancy.weight(client)
                self._deficit[client] = credit
                if credit < 1.0:
                    # Fractional weights accrue across rounds.
                    self._rr_pos += 1
                    continue
            self._deficit[client] = credit - 1.0
            _, _, job_id = heapq.heappop(self._queues[client])
            self._queued -= 1
            if not self._queues[client]:
                self._drop_client_locked(client)
            elif self._deficit[client] < 1.0:
                self._rr_pos += 1
            return self._jobs[job_id]
        return None

    def _drop_client_locked(self, client: str) -> None:
        """Forget an emptied subqueue and its DRR credit."""
        self._queues.pop(client, None)
        self._deficit.pop(client, None)
        try:
            index = self._rr.index(client)
        except ValueError:
            return
        self._rr.pop(index)
        if index < self._rr_pos:
            self._rr_pos -= 1

    def progress(self, job: Job, done: int, total: int) -> None:
        """Record sweep progress (journaled chunks) for streaming clients."""
        with self._cond:
            job.done_configs = done
            job.total_configs = total
            self._touch(job)
            self._cond.notify_all()

    def publish_front(self, job: Job, event: Dict[str, Any]) -> None:
        """Append one ``repro.front/1`` generation event to a search job.

        The event rides the same append-only history ``/events`` streams
        replay, so every consumer sees one ``front`` line per completed
        generation, in order, regardless of when it attached.  Front
        events carry no ``state`` key -- streams key termination off the
        job-record snapshots interleaved with them.
        """
        with self._cond:
            job.done_configs = int(event.get("evaluations", job.done_configs))
            job.version += 1
            job.history.append(dict(event))
            self._cond.notify_all()

    def finish(self, job: Job, rows: int) -> None:
        """Mark a job done with ``rows`` result rows; release its slot."""
        with self._cond:
            job.state = "done"
            job.done_configs = rows
            job.total_configs = rows
            job.finished_s = self._clock()
            self._touch(job)
            self._release(job)
            get_metrics().counter("serve.jobs_completed").inc()
            self._persist(job)
            self._cond.notify_all()

    def fail(self, job: Job, error: str) -> None:
        """Mark a job failed and release its coalescing slot."""
        with self._cond:
            job.state = "failed"
            job.error = error
            job.finished_s = self._clock()
            self._touch(job)
            self._release(job)
            get_metrics().counter("serve.jobs_failed").inc()
            self._persist(job)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # cancellation / deadlines

    def cancel(
        self, job_id: str, reason: str = "cancelled by client"
    ) -> Tuple[Optional[Job], bool]:
        """Request cancellation of a job; returns ``(job, changed)``.

        A queued job is removed from its subqueue and finalised
        immediately.  A running job has its cancel event set and stops
        cooperatively at the sweep's next chunk boundary (the runner
        then finalises it); ``changed`` is True in both cases.  Unknown
        ids return ``(None, False)`` and terminal jobs ``(job, False)``
        -- repeat cancellation is idempotent.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None, False
            if job.terminal:
                return job, False
            if job.state == "queued":
                self._remove_queued_locked(job)
                self._finalize_cancel_locked(job, reason)
                get_metrics().gauge("serve.queue_depth").set(self._queued)
                return job, True
            job.cancel_requested = True
            if job.cancel_event is not None:
                job.cancel_event.set()
            self._touch(job)
            self._persist(job)
            self._cond.notify_all()
            return job, True

    def cancelled(self, job: Job, reason: str) -> None:
        """Finalise a running job the sweep abandoned cooperatively."""
        with self._cond:
            if job.terminal:
                return
            self._finalize_cancel_locked(job, reason)

    def effective_deadline(self, job: Job) -> Optional[float]:
        """The job's current absolute expiry, read under the lock.

        Coalesced joins may lift or extend a running job's deadline;
        the runner's deadline watch re-reads through this every time it
        fires so the merge takes effect mid-sweep.
        """
        with self._cond:
            return job.deadline_at()

    def attach_cancel_event(self, job: Job, event: threading.Event) -> None:
        """Wire the runner's cancel event into a job (pre-sweep).

        Closes the submit/claim race: a cancellation that arrived before
        the event existed is replayed onto it immediately.
        """
        with self._cond:
            job.cancel_event = event
            if job.cancel_requested:
                event.set()

    def _remove_queued_locked(self, job: Job) -> None:
        """Drop a queued job from its client subqueue (lock held)."""
        heap = self._queues.get(job.client_id)
        if not heap:
            return
        kept = [entry for entry in heap if entry[2] != job.job_id]
        if len(kept) != len(heap):
            self._queued -= 1
        if kept:
            heapq.heapify(kept)
            self._queues[job.client_id] = kept
        else:
            self._drop_client_locked(job.client_id)

    def _finalize_cancel_locked(self, job: Job, reason: str) -> None:
        """Move a job to the ``cancelled`` terminal state (lock held).

        The checkpoint journal is deliberately left on disk: a
        resubmission of the same spec resumes from the committed chunks.
        """
        job.state = "cancelled"
        job.error = reason
        job.finished_s = self._clock()
        if job.cancel_event is not None:
            job.cancel_event.set()
        self._touch(job)
        self._release(job)
        get_metrics().counter("serve.jobs_cancelled").inc()
        self._persist(job)
        self._cond.notify_all()
        logger.info("job %s cancelled: %s", job.job_id, reason)

    def _release(self, job: Job) -> None:
        # A terminal job never cancels again; its kept event would only
        # hold memory for the rest of the server's life.
        job.cancel_event = None
        if self._active.get(job.spec.spec_hash) == job.job_id:
            del self._active[job.spec.spec_hash]
        count = self._inflight.get(job.client_id, 0)
        if count <= 1:
            self._inflight.pop(job.client_id, None)
        else:
            self._inflight[job.client_id] = count - 1

    def _persist(self, job: Job) -> None:
        try:
            self.store.save_job(job.job_id, job.to_json())
        except sqlite3.Error as exc:  # pragma: no cover - disk trouble
            logger.warning("could not persist job %s: %s", job.job_id, exc)

    # ------------------------------------------------------------------
    # reads / waiting

    def get(self, job_id: str) -> Optional[Job]:
        """The job called ``job_id``, if known."""
        with self._cond:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        """Every known job, most recently submitted first."""
        with self._cond:
            return sorted(
                self._jobs.values(),
                key=lambda job: job.submitted_s,
                reverse=True,
            )

    def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Optional[Job]:
        """Block until ``job_id`` is terminal (or the timeout passes)."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.terminal:
                    return job
                # Clamp at zero: a caller-supplied non-positive timeout
                # (or a deadline crossed between checks) must return
                # immediately, never hand Condition.wait a negative.
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if remaining is not None and remaining <= 0:
                    return job
                self._cond.wait(
                    0.5 if remaining is None else min(0.5, remaining)
                )

    def events_since(
        self, job_id: str, cursor: int, timeout_s: float = 10.0
    ) -> Tuple[Optional[Job], List[Dict[str, Any]]]:
        """The job's published snapshots past ``cursor`` (blocking).

        Blocks until new history exists, the job is terminal, or the
        timeout passes; returns ``(job, snapshots)``.  Because every
        consumer replays the same append-only history, concurrent
        ``/events`` streams of one job see identical, complete sequences
        regardless of when they attach.
        """
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None, []
                if len(job.history) > cursor:
                    return job, list(job.history[cursor:])
                if job.terminal:
                    return job, []
                remaining = max(0.0, deadline - time.monotonic())
                if remaining <= 0:
                    return job, []
                self._cond.wait(min(0.5, remaining))

    def wait_change(
        self, job_id: str, seen_version: int, timeout_s: float = 10.0
    ) -> Optional[Job]:
        """Block until the job's version moves past ``seen_version``."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.version != seen_version or job.terminal:
                    return job
                remaining = max(0.0, deadline - time.monotonic())
                if remaining <= 0:
                    return job
                self._cond.wait(min(0.5, remaining))

    # ------------------------------------------------------------------
    # drain / shutdown

    def begin_drain(self) -> None:
        """Stop admitting jobs; queued and running work still completes."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        """Whether the service is refusing new submissions."""
        return self._draining

    def stop(self) -> None:
        """Drain and tell the runner to exit once the queue is empty."""
        with self._cond:
            self._draining = True
            self._stopped = True
            self._cond.notify_all()

    @property
    def stopped(self) -> bool:
        """Whether the runner should exit when idle."""
        return self._stopped

    def idle(self) -> bool:
        """Whether nothing is queued or running."""
        with self._cond:
            return not self._queued and not self._active

    def queue_stats(self) -> Dict[str, Any]:
        """Queue depth and per-client in-flight counts (for /health)."""
        with self._cond:
            return {
                "queued": self._queued,
                "inflight": dict(self._inflight),
            }


class _DeadlineWatch:
    """Deadline enforcement for one running job, coalesce-merge aware.

    A one-shot timer would bake in whatever deadline existed at claim
    time, but a coalesced submission can lift or extend a running job's
    deadline (``JobManager.submit`` merges absolute expiries).  The
    watch therefore re-reads the job's *effective* deadline every time
    it fires: lifted means do nothing, extended means re-arm for the
    remainder, expired means set the cancel event.  ``stop`` makes any
    pending fire a no-op, so a finished job never holds a live timer.
    """

    def __init__(
        self,
        cancel_event: threading.Event,
        read_deadline_at: Callable[[], Optional[float]],
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._cancel_event = cancel_event
        self._read_deadline_at = read_deadline_at
        self._clock = clock
        self._lock = threading.Lock()
        self._timer: Optional[threading.Timer] = None
        self._stopped = False

    def arm(self) -> None:
        """(Re-)schedule against the deadline as it stands right now."""
        deadline_at = self._read_deadline_at()
        if deadline_at is None:
            return
        remaining = deadline_at - self._clock()
        if remaining <= 0:
            self._cancel_event.set()
            return
        with self._lock:
            if self._stopped:
                return
            self._timer = threading.Timer(remaining, self.arm)
            self._timer.daemon = True
            self._timer.start()

    def stop(self) -> None:
        """Disarm permanently (the job reached a terminal state)."""
        with self._lock:
            self._stopped = True
            if self._timer is not None:
                self._timer.cancel()


class _RunnerEvaluator(StoreBackedEvaluator):
    """A search job's evaluator: each batch resolves through its runner.

    Every generation reads the store in the runner's process and fans
    only the misses out on the runner's pool (:meth:`JobRunner._resolve`).
    """

    def __init__(
        self,
        runner: "JobRunner",
        job: Job,
        evaluator: Any,
        resilience: ResilienceOptions,
    ) -> None:
        super().__init__(evaluator, runner.manager.store)
        self._runner = runner
        self._job = job
        self._resilience = resilience

    def evaluate_batch(self, configs: Any) -> List[PerformanceEstimate]:
        return self._runner._resolve(
            self._job, self.eval_id, self.inner, list(configs), self._resilience
        )


class JobRunner(threading.Thread):
    """The worker loop: claim, sweep (with checkpoints), record.

    One runner executes jobs in fair-share order; parallelism *within* a
    job comes from ``sweep_jobs`` workers
    (:class:`~repro.engine.parallel.ParallelSweep` fan-out) of one
    :class:`~repro.engine.parallel.WorkerPool` that the runner keeps for
    its whole life.  The result store is read and written here, in the
    runner's process: a job first takes every row the store holds, a job
    the store answers in full finishes without touching the pool, and
    only the missing configurations are dispatched.  Every dispatching
    job journals to ``<spool>/<spec_hash>.jsonl`` (keyed on the whole
    grid) and always runs with ``resume=True``, so a job interrupted by
    ``kill -9`` -- or cancelled by a client or its deadline -- picks up
    exactly where its journal and the store stop on resubmission and the
    final result is bit-identical to an uninterrupted run.  (The journal
    is keyed by spec hash, not job id: coalescing guarantees at most one
    active job per spec, and a *new* job for a cancelled spec must find
    the old journal to resume.)

    Backends are guarded per ``eval_id`` by a
    :class:`~repro.engine.resilience.CircuitBreaker`: once one opens,
    jobs that need that evaluator's backend fail fast with a typed error
    (and a ``breaker.fail_fast`` count) until a cooldown probe closes it,
    so a broken plugin backend cannot drain every worker's retry budget.
    """

    def __init__(
        self,
        manager: JobManager,
        spool_dir: str,
        sweep_jobs: int = 1,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        super().__init__(name="repro-serve-runner", daemon=True)
        self.manager = manager
        self.spool_dir = str(spool_dir)
        self.sweep_jobs = max(1, int(sweep_jobs))
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        #: Worker processes shared by every job this runner executes.
        self.pool = WorkerPool(self.sweep_jobs)
        os.makedirs(self.spool_dir, exist_ok=True)

    def checkpoint_path(self, job: Job) -> str:
        """Where one job journals its completed work (by spec hash).

        Search jobs journal completed *generations* in the
        ``repro.moo.checkpoint/1`` format under a distinct ``.moo.jsonl``
        suffix, so the store's journal-based repair (which replays sweep
        chunk journals) never misreads one.
        """
        if job.spec.search is not None:
            return os.path.join(
                self.spool_dir, f"{job.spec.spec_hash}.moo.jsonl"
            )
        return os.path.join(self.spool_dir, f"{job.spec.spec_hash}.jsonl")

    def breaker_for(self, eval_id: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one evaluator."""
        with self._breakers_lock:
            breaker = self._breakers.get(eval_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    name=eval_id[:12],
                    failure_threshold=self.breaker_threshold,
                    cooldown_s=self.breaker_cooldown_s,
                )
                self._breakers[eval_id] = breaker
            return breaker

    def run(self) -> None:  # pragma: no cover - exercised via the service
        while True:
            job = self.manager.next_job(timeout_s=0.2)
            if job is None:
                if self.manager.stopped:
                    return
                continue
            try:
                self.execute(job)
            except Exception as exc:
                # Backstop: the runner loop must outlive any single job
                # -- a dead runner accepts submissions forever without
                # executing them.
                logger.exception(
                    "job %s escaped execute(); failing it", job.job_id
                )
                try:
                    self.manager.fail(job, f"{type(exc).__name__}: {exc}")
                except Exception:
                    logger.exception(
                        "could not finalise crashed job %s", job.job_id
                    )

    def execute(self, job: Job) -> None:
        """Run one job to a terminal state (never raises).

        A job carrying a ``trace_id`` runs under an active
        :class:`~repro.obs.trace.TraceRecorder`: a synthetic
        ``queue.wait`` event covers submit to start, a root ``job`` span
        wraps the sweep (whose workers ship their chunk events back
        through the payload protocol), and the merged timeline is
        persisted to the store's ``traces`` table -- on failure too.
        The timeline lands *before* the job turns terminal, so a client
        woken by the done state never races the trace write.
        """
        started = time.perf_counter()
        tracer = obs_trace.tracing(job.trace_id) if job.trace_id else None
        recorder = tracer.__enter__() if tracer is not None else None
        if recorder is not None and job.started_s is not None:
            recorder.add_event(
                ("job", "queue.wait"),
                job.submitted_s,
                max(0.0, job.started_s - job.submitted_s),
                {"priority": job.priority},
            )
        cancel_event = threading.Event()
        self.manager.attach_cancel_event(job, cancel_event)
        deadline_watch = _DeadlineWatch(
            cancel_event,
            lambda: self.manager.effective_deadline(job),
            clock=self.manager._clock,
        )
        deadline_watch.arm()
        result = None
        error = None
        cancelled_reason = None
        try:
            with span("job", job_id=job.job_id, kernel=job.spec.kernel):
                if job.spec.search is not None:
                    result = self._search(job, cancel_event)
                else:
                    result = self._sweep(job, cancel_event)
        except SweepCancelledError as exc:
            if job.cancel_requested:
                cancelled_reason = "cancelled by client"
            else:
                # deadline_s can be None here: a coalesced join lifted
                # the deadline after the watch had already fired.  The
                # sweep has unwound either way; finalise with the
                # journal intact so a resubmission resumes.
                budget = (
                    "deadline"
                    if job.deadline_s is None
                    else f"deadline of {job.deadline_s:g}s"
                )
                cancelled_reason = (
                    f"{budget} exceeded "
                    f"({exc.done} of {exc.total} configurations done; "
                    "resubmit to resume from the checkpoint)"
                )
            logger.info("job %s cancelled: %s", job.job_id, cancelled_reason)
        except Exception as exc:
            logger.warning("job %s failed: %s", job.job_id, exc)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            deadline_watch.stop()
            if tracer is not None:
                tracer.__exit__(None, None, None)
                self._record_trace(job, recorder)
        if cancelled_reason is not None:
            # The journal stays: a resubmission of the same spec resumes.
            self.manager.cancelled(job, cancelled_reason)
            return
        if error is not None:
            self.manager.fail(job, error)
            return
        self.manager.finish(job, len(result))
        get_metrics().histogram("serve.job_seconds").observe(
            time.perf_counter() - started
        )
        try:
            os.remove(self.checkpoint_path(job))
        except OSError:
            pass

    def _record_trace(self, job: Job, recorder: Any) -> None:
        """Persist the job's merged timeline (best-effort, like manifests)."""
        try:
            document = obs_trace.build_document(recorder, job_id=job.job_id)
            self.manager.store.save_trace(job.job_id, document)
        except Exception as exc:  # pragma: no cover - timeline best-effort
            logger.warning(
                "could not record trace for job %s: %s", job.job_id, exc
            )

    def _sweep(
        self, job: Job, cancel_event: Optional[threading.Event] = None
    ) -> ExplorationResult:
        spec = job.spec
        evaluator = spec.build_evaluator()
        eval_id = evaluator_fingerprint(evaluator)
        configs = spec.configs()
        resilience = ResilienceOptions(
            checkpoint=self.checkpoint_path(job),
            resume=True,
            cancel_event=cancel_event,
        )
        estimates = self._resolve(
            job,
            eval_id,
            evaluator,
            configs,
            resilience,
            on_progress=lambda done, total: self.manager.progress(
                job, done, total
            ),
        )
        self._record_manifest(
            job, eval_id, evaluator, configs, resilience=resilience
        )
        return ExplorationResult(estimates)

    def _resolve(
        self,
        job: Job,
        eval_id: str,
        evaluator: Any,
        configs: List[CacheConfig],
        resilience: ResilienceOptions,
        on_progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[PerformanceEstimate]:
        """Estimates for ``configs``: the store's rows, then only its misses.

        The store is read and written here, in the runner's process, and
        only the configurations it lacks fan out on the runner's pool.
        Stored rows count as done like rows resumed from the journal,
        which stays keyed on the whole of ``configs``.  A batch the store
        answers in full needs no backend: it neither consults nor takes
        the evaluator's circuit breaker.
        """
        store = self.manager.store
        stored = store.get_many(eval_id, configs)
        if len(stored) == len(configs):
            return [stored[config] for config in configs]
        sweep = ParallelSweep(
            jobs=self.sweep_jobs,
            resilience=replace(
                resilience, breaker=self._check_breaker(eval_id, job.spec)
            ),
            on_progress=on_progress,
            pool=self.pool,
            known=stored,
        )
        with span(
            "sweep",
            configs=len(configs),
            jobs=self.sweep_jobs,
            backend=job.spec.backend,
        ):
            estimates = sweep.run(evaluator, configs)
        # Fresh rows and rows resumed from the checkpoint journal.
        fresh = [
            (config, estimate)
            for config, estimate in zip(configs, estimates)
            if config not in stored
        ]
        with span("store.write", rows=len(fresh)):
            store.put_many(eval_id, fresh)
        return estimates

    def _check_breaker(self, eval_id: str, spec: JobSpec) -> CircuitBreaker:
        """The evaluator's breaker; raise fast while it is open."""
        breaker = self.breaker_for(eval_id)
        if not breaker.allow():
            get_metrics().counter("breaker.fail_fast").inc()
            raise CircuitOpenError(
                f"circuit breaker for evaluator {eval_id[:12]} "
                f"({spec.kernel}/{spec.backend}) is open; "
                f"retry in {breaker.retry_after_s():.0f}s",
                retry_after_s=breaker.retry_after_s(),
            )
        return breaker

    def _search(
        self, job: Job, cancel_event: Optional[threading.Event] = None
    ) -> ExplorationResult:
        """Run one multi-objective search job (spec carries ``search``).

        One ``repro.front/1`` event per completed generation is published
        into the job's history (the ``/events`` wire); generations
        journal to ``<spool>/<spec_hash>.moo.jsonl`` so a cancelled,
        expired or killed search resumes bit-identically on
        resubmission.  A cooperative cancellation persists the front as
        of the last complete generation in a partial search manifest
        before unwinding.
        """
        spec = job.spec
        settings = spec.search
        assert settings is not None
        evaluator = _RunnerEvaluator(
            self,
            job,
            spec.build_evaluator(),
            ResilienceOptions(cancel_event=cancel_event),
        )
        configs = spec.configs()
        self.manager.progress(job, 0, settings.budget)
        last_event: Dict[str, Any] = {}

        def publish(event: Dict[str, Any], archive: Any) -> None:
            last_event.clear()
            last_event.update(event)
            self.manager.publish_front(job, event)

        try:
            with span(
                "moo.job",
                searcher=settings.searcher,
                space=len(configs),
                backend=spec.backend,
            ):
                run = run_search(
                    evaluator,
                    configs,
                    settings,
                    checkpoint=self.checkpoint_path(job),
                    resume=True,
                    cancel_event=cancel_event,
                    on_generation=publish,
                )
        except SweepCancelledError:
            if last_event:
                self._record_manifest(
                    job,
                    evaluator.eval_id,
                    evaluator,
                    configs,
                    search={
                        "schema": last_event["schema"],
                        "settings": settings.to_json(),
                        "generations": int(last_event["generation"]) + 1,
                        "evaluations": last_event["evaluations"],
                        "reference": last_event["reference"],
                        "hypervolume": last_event["hypervolume"],
                        "front": last_event["points"],
                        "partial": True,
                    },
                )
            raise
        # Estimates resumed from the generation journal never touched the
        # store-backed evaluator this run; backfill so the store holds
        # every configuration the search evaluated.
        with span("store.write", rows=len(run.estimates)):
            self.manager.store.put_many(
                evaluator.eval_id,
                [(estimate.config, estimate) for estimate in run.estimates],
            )
        self._record_manifest(
            job,
            evaluator.eval_id,
            evaluator,
            configs,
            search=run.manifest_doc(),
        )
        return run.result

    def _record_manifest(
        self,
        job: Job,
        eval_id: str,
        evaluator: Any,
        configs: List[CacheConfig],
        resilience: Optional[ResilienceOptions] = None,
        search: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist the job's ``repro.manifest/1`` provenance document.

        The manifest lives in its own store table, keyed by job id --
        provenance *about* the result rows, never part of their keys.  A
        manifest failure must not fail the sweep it describes.  Search
        jobs add a ``searcher`` component row and the ``repro.front/1``
        search section (settings, budget spent, final front).
        """
        spec = job.spec
        try:
            components = [
                ("kernel", spec.kernel),
                ("backend", spec.backend),
                ("energy", "hwo"),
                ("sram", spec.sram),
                ("store", "sqlite"),
            ]
            seeds: Dict[str, Any] = {}
            if spec.search is not None:
                components.append(("searcher", spec.search.searcher))
                seeds["search"] = spec.search.seed
            if resilience is not None:
                seeds["retry_backoff"] = resilience.retry.seed
            manifest = build_manifest(
                components,
                spec_hash=spec.spec_hash,
                eval_id=eval_id,
                sweep_fingerprint=sweep_fingerprint(evaluator, configs),
                seeds=seeds,
                extra=None if search is None else {"search": search},
            )
            self.manager.store.save_manifest(job.job_id, manifest)
        except Exception as exc:  # pragma: no cover - provenance best-effort
            logger.warning(
                "could not record manifest for job %s: %s", job.job_id, exc
            )


def result_to_json(result: ExplorationResult) -> List[Dict[str, Any]]:
    """Serialise a result exactly (the wire format of ``/jobs/<id>/result``)."""
    return [estimate_to_json(estimate) for estimate in result]
