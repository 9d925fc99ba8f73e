"""The exploration service: a stdlib-only HTTP/JSON front end.

``repro serve`` binds :class:`ExplorationService` -- store + job manager +
runner -- behind a :class:`http.server.ThreadingHTTPServer`.  Endpoints
(all JSON):

``GET /health`` / ``GET /healthz``
    Liveness: ``{"status": "ok" | "draining", "schema": "repro.serve/1"}``
    -- always ``200`` while the process can answer at all.
``GET /readyz`` (or ``GET /health?ready=1``)
    Readiness: ``200`` only when the service is accepting work; ``503``
    while draining or before recovery replay finishes, so load balancers
    stop routing submissions without killing in-flight streams.
``GET /metrics``
    The ``repro.obs/1`` report (metrics registry, EvalCache snapshot)
    plus a ``store`` section with the persistent-store counters and
    per-table row counts / file size (gauges refreshed on every
    snapshot).  ``?format=prometheus`` serves the same registry as
    Prometheus text exposition 0.0.4 instead
    (:mod:`repro.obs.prometheus`).
``POST /jobs``
    Submit ``{"spec": {...}, "priority": N}``.  Replies ``202`` with the
    job record (``"coalesced": true`` when the submission attached to an
    already-active identical job), ``429`` with a ``Retry-After`` header
    when admission control rejects it, ``503`` while draining, ``400``
    for a malformed spec.  An optional ``trace_id`` joins the job to a
    client-minted trace; without one the server mints its own unless
    started with tracing off (``--no-trace``), or the body says
    ``"trace": false``.  Client identity rides in the ``X-Repro-Client``
    header (or a ``client_id`` body field); per-client rate limits and
    in-flight quotas answer ``429`` with the client's *exact*
    ``retry_after_s`` in the body.  An optional ``deadline_s`` bounds the
    job's wall clock: when it expires the sweep cancels cooperatively and
    the checkpoint journal survives, so a resubmission resumes.
``DELETE /jobs/<id>``
    Cancel: dequeues a queued job immediately, signals a running sweep
    to stop at the next chunk boundary.  ``200`` with the job record
    (idempotent on already-cancelled jobs), ``409`` for jobs already
    done/failed, ``404`` for unknown ids.
``GET /jobs``
    All known jobs, most recent first.
``GET /jobs/<id>[?wait=SECONDS]``
    One job record; ``wait`` long-polls until the job is terminal.  Once
    a sweep has run, the record carries the job's ``repro.manifest/1``
    provenance document under ``manifest``.
``GET /jobs/<id>/result``
    The exact result rows once the job is ``done`` (``409`` before).
``GET /jobs/<id>/trace``
    The job's ``repro.trace/1`` timeline once it is terminal (``409``
    while running, ``404`` for untraced jobs).
``POST /pareto``
    Submit a multi-objective search job: like ``POST /jobs`` but the
    spec must carry a ``search`` section (searcher, generations,
    population, seed, objectives...).  The job runs a population-based
    Pareto search over the spec's grid instead of sweeping it, streams
    one ``repro.front/1`` event per completed generation over
    ``/events``, and its result is the final front.  A ``search``
    section is also honoured on ``POST /jobs``; this route merely
    insists on one.
``GET /jobs/<id>/events``
    Progress streaming: newline-delimited JSON snapshots of the job
    record, one per state/progress change, ending at the terminal state.
    Streams replay the job's append-only snapshot history from the
    beginning, so concurrent consumers all see the identical, complete
    sequence.  Search jobs interleave ``repro.front/1`` generation
    events (``"event": "front"``, no ``state`` key) with the job-record
    snapshots.

Every request is timed into the ``serve.http.request`` histogram (plus a
per-endpoint histogram and a per-endpoint/status response counter).

Graceful drain: the first ``SIGTERM`` (or ``SIGINT``) stops admission
(new submissions get ``503``), lets the running job finish, then shuts
the listener down.  A ``kill -9`` instead is recovered on the next start:
interrupted jobs re-enqueue from the store and resume from their
checkpoint journals with bit-identical results.
"""

from __future__ import annotations

import json
import logging
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.core.config import CacheConfig
from repro.engine.cache import get_eval_cache
from repro.engine.result import ExplorationResult
from repro.moo.driver import run_search
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_metrics
from repro.obs.prometheus import render_prometheus
from repro.serve.jobs import (
    Job,
    JobManager,
    JobRunner,
    JobSpec,
    QueueFullError,
    ServiceDrainingError,
    result_to_json,
)
from repro.serve.store import STORE_SCHEMA, ResultStore, open_store
from repro.serve.tenancy import TenancyError, TenancyPolicy

__all__ = [
    "SERVE_SCHEMA",
    "ExplorationService",
    "ServeHTTPServer",
    "install_signal_handlers",
    "make_server",
]

SERVE_SCHEMA = "repro.serve/1"

logger = logging.getLogger(__name__)


class ExplorationService:
    """Store + job manager + runner, glued for the HTTP layer (and tests).

    ``start()`` recovers interrupted jobs from the store and launches the
    runner thread; ``stop()`` drains and joins it.  The service object is
    usable without HTTP -- the test suite drives it directly as well as
    through a live server.
    """

    def __init__(
        self,
        store_path: str,
        spool_dir: str,
        queue_depth: int = 16,
        sweep_jobs: int = 1,
        retry_after_s: float = 2.0,
        trace: bool = True,
        tenancy: Optional[TenancyPolicy] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        self.store: ResultStore = open_store(store_path)
        self.manager = JobManager(
            self.store,
            max_depth=queue_depth,
            retry_after_s=retry_after_s,
            tenancy=tenancy,
        )
        self.runner = JobRunner(
            self.manager,
            spool_dir=spool_dir,
            sweep_jobs=sweep_jobs,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
        )
        #: Mint a trace_id for bare submissions (clients can still opt
        #: out per job with ``"trace": false``).
        self.trace = trace
        self._started = False
        #: Readiness: False until recovery replay completes, so a load
        #: balancer never routes submissions at a half-recovered service.
        self._ready = False

    def start(self) -> "ExplorationService":
        """Recover persisted jobs and start executing."""
        if not self._started:
            self.manager.recover()
            self.runner.start()
            self._started = True
            self._ready = True
        return self

    def ready(self) -> bool:
        """Accepting new work: recovery finished and not draining."""
        return self._ready and not self.manager.draining

    def begin_drain(self) -> None:
        """Refuse new submissions; in-flight work keeps running."""
        self.manager.begin_drain()

    def stop(self, wait: bool = True, timeout_s: float = 60.0) -> None:
        """Drain, let the runner finish, stop its workers, close the store.

        When the runner is still alive after the join (or ``wait`` is
        False mid-sweep), the worker pool and the store stay open:
        closing them under an in-flight job would turn the job's own
        work into spurious failures.  They then close with the process.
        """
        self.manager.stop()
        if self._started and wait:
            self.runner.join(timeout_s)
        if self._started and self.runner.is_alive():
            logger.warning(
                "runner still busy after stop(); leaving the workers and "
                "the store open for the in-flight job"
            )
            return
        self.runner.pool.close()
        self.store.close()

    # ------------------------------------------------------------------
    # request-level operations (shared by HTTP handler and tests)

    def health(self) -> Dict[str, Any]:
        """The ``/health`` document."""
        from repro import __version__

        if self.manager.draining:
            status = "draining"
        elif not self._ready:
            status = "starting"
        else:
            status = "ok"
        return {
            "schema": SERVE_SCHEMA,
            "status": status,
            "ready": self.ready(),
            "version": __version__,
            "queue_idle": self.manager.idle(),
        }

    def metrics_report(self) -> Dict[str, Any]:
        """The ``/metrics`` document: ``repro.obs/1`` + store counters.

        Refreshes the ``store.*_rows`` / ``store.file_bytes`` gauges from
        the live sqlite file on every snapshot, so both the JSON report
        and the Prometheus rendering carry current store size data.
        """
        metrics = get_metrics()
        stats = self.store.stats()
        metrics.gauge("store.estimate_rows").set(stats["estimates"])
        metrics.gauge("store.job_rows").set(stats["jobs"])
        metrics.gauge("store.manifest_rows").set(stats["manifests"])
        metrics.gauge("store.trace_rows").set(stats["traces"])
        metrics.gauge("store.file_bytes").set(stats["file_bytes"])
        report = obs.build_report(cache=get_eval_cache().snapshot())
        counters = metrics.counters_matching("store.")
        report["store"] = {
            "schema": STORE_SCHEMA,
            "path": self.store.path,
            "entries": stats["estimates"],
            "rows": stats,
            "counters": counters,
        }
        report["serve"] = metrics.counters_matching("serve.")
        report["breaker"] = metrics.counters_matching("breaker.")
        return report

    def submit(
        self,
        doc: Dict[str, Any],
        client_id: Optional[str] = None,
        require_search: bool = False,
    ) -> Tuple[Job, bool]:
        """Validate and enqueue one submission document.

        ``client_id`` (the ``X-Repro-Client`` header) wins over a
        ``client_id`` body field; both absent means the anonymous tenant.
        ``require_search`` is the ``POST /pareto`` contract: the spec
        must carry a ``search`` section.
        """
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        spec = JobSpec.from_json(doc.get("spec", doc.get("job", None)))
        if require_search and spec.search is None:
            raise ValueError(
                "a /pareto submission needs a search section in its spec"
            )
        priority = doc.get("priority", 10)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError("priority must be an integer")
        if client_id is None:
            client_id = doc.get("client_id")
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            if (
                isinstance(deadline_s, bool)
                or not isinstance(deadline_s, (int, float))
                or deadline_s <= 0
            ):
                raise ValueError("deadline_s must be a positive number")
            deadline_s = float(deadline_s)
        trace_id = doc.get("trace_id")
        if trace_id is not None:
            if (
                not isinstance(trace_id, str)
                or not 1 <= len(trace_id) <= 64
                or not all(c.isalnum() or c in "-_" for c in trace_id)
            ):
                raise ValueError(
                    "trace_id must be 1-64 alphanumeric/-/_ characters"
                )
        elif self.trace and doc.get("trace") is not False:
            trace_id = obs_trace.new_trace_id()
        return self.manager.submit(
            spec,
            priority=priority,
            trace_id=trace_id,
            client_id=client_id,
            deadline_s=deadline_s,
        )

    def job_result(self, job: Job) -> Optional[Dict[str, Any]]:
        """The exact result document for a done job (``None`` otherwise).

        Jobs hold no result in memory: the rows are assembled from the
        persistent store, which holds every configuration a done job
        evaluated -- the same path before and after a restart.
        """
        if job.state != "done":
            return None
        if job.spec.search is not None:
            result = self._search_result(job)
        else:
            eval_id = job.spec.eval_id()
            configs = job.spec.configs()
            result = self.store.result_for(eval_id, configs)
            if result is None:
                # Rows were quarantined (or otherwise lost) since the
                # job finished: re-evaluate the holes through the
                # store-backed evaluator instead of serving a 404 for
                # a done job.  The healthy rows come straight from
                # sqlite; only the gaps recompute, and the fresh
                # estimates repopulate the store.
                get_metrics().counter("serve.results_rebuilt").inc()
                evaluator = job.spec.build_evaluator(self.store)
                result = ExplorationResult(evaluator.evaluate_batch(configs))
        return {
            "job_id": job.job_id,
            "schema": SERVE_SCHEMA,
            "estimates": result_to_json(result),
        }

    def _search_result(self, job: Job) -> ExplorationResult:
        """Reassemble a done search job's front from the store.

        The persisted manifest's ``search.front`` names the front
        configurations; their rows come from the store (re-evaluating
        any quarantined hole through the store-backed evaluator).  With
        no usable manifest the search re-runs deterministically -- every
        row the original run evaluated is an L2 store hit, so the replay
        touches no backend unless rows were lost too.
        """
        manifest = self.store.load_manifest(job.job_id) or {}
        search = manifest.get("search") or {}
        configs: List[CacheConfig] = []
        if not search.get("partial"):
            try:
                configs = [
                    CacheConfig(*(int(v) for v in row["config"]))
                    for row in search.get("front", [])
                ]
            except (KeyError, TypeError, ValueError):
                configs = []
        if configs:
            eval_id = job.spec.eval_id()
            result = self.store.result_for(eval_id, configs)
            if result is not None:
                return result
            get_metrics().counter("serve.results_rebuilt").inc()
            evaluator = job.spec.build_evaluator(self.store)
            return ExplorationResult(evaluator.evaluate_batch(configs))
        get_metrics().counter("serve.results_rebuilt").inc()
        evaluator = job.spec.build_evaluator(self.store)
        run = run_search(evaluator, job.spec.configs(), job.spec.search)
        return run.result


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying the service object."""

    daemon_threads = True

    def __init__(self, address, handler, service: ExplorationService) -> None:
        super().__init__(address, handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"

    @property
    def service(self) -> ExplorationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through the repro hierarchy instead of stderr.
        logging.getLogger("repro.serve.http").debug(
            "%s %s", self.address_string(), format % args
        )

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        # Remember the status for the per-endpoint response counters.
        self._status = code
        super().send_response(code, message)

    # ------------------------------------------------------------------
    # plumbing

    def _send_text(
        self, code: int, text: str, content_type: str
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        code: int,
        doc: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, **extra: Any) -> None:
        doc = {"error": message}
        headers = extra.pop("headers", None)
        doc.update(extra)
        self._send_json(code, doc, headers=headers)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw.decode())

    # ------------------------------------------------------------------
    # routing

    @staticmethod
    def _endpoint_label(parts: List[str]) -> str:
        """Bounded endpoint classification for metric names."""
        if not parts:
            return "root"
        if parts[0] in ("health", "healthz", "readyz", "metrics", "pareto"):
            return parts[0]
        if parts[0] == "jobs":
            if len(parts) == 1:
                return "jobs"
            if len(parts) == 2:
                return "job"
            if len(parts) == 3 and parts[2] in ("result", "events", "trace"):
                return parts[2]
        return "other"

    def _timed(self, route) -> None:
        """Run one routed request under the HTTP latency instruments."""
        self._status = 0
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        endpoint = self._endpoint_label(parts)
        started = time.perf_counter()
        try:
            route(parsed, parts)
        finally:
            elapsed = time.perf_counter() - started
            metrics = get_metrics()
            metrics.histogram("serve.http.request").observe(elapsed)
            metrics.histogram(
                "serve.http.request." + endpoint
            ).observe(elapsed)
            metrics.counter(
                "serve.http.responses.%s.%d" % (endpoint, self._status)
            ).inc()

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._timed(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._timed(self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._timed(self._route_delete)

    def _route_get(self, parsed: Any, parts: List[str]) -> None:
        params = parse_qs(parsed.query)
        if parts == ["health"] or parts == ["healthz"]:
            if params.get("ready", ["0"])[0] in ("1", "true"):
                self._get_ready()
            else:
                # Liveness: the process answers, even mid-drain/startup.
                self._send_json(200, self.service.health())
        elif parts == ["readyz"]:
            self._get_ready()
        elif parts == ["metrics"]:
            self._get_metrics(params)
        elif parts == ["jobs"]:
            jobs = [job.to_json() for job in self.service.manager.list_jobs()]
            self._send_json(200, {"jobs": jobs})
        elif len(parts) == 2 and parts[0] == "jobs":
            self._get_job(parts[1], params)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._get_result(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            self._get_trace(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._stream_events(parts[1])
        else:
            self._error(404, f"no route for {parsed.path}")

    def _get_ready(self) -> None:
        """Readiness: 503 while draining or before recovery completes."""
        doc = self.service.health()
        self._send_json(200 if doc["ready"] else 503, doc)

    def _get_metrics(self, params: Dict[str, Any]) -> None:
        fmt = params.get("format", ["json"])[0]
        report = self.service.metrics_report()
        if fmt == "prometheus":
            self._send_text(
                200,
                render_prometheus(report.get("metrics", {})),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif fmt == "json":
            self._send_json(200, report)
        else:
            self._error(400, f"unknown metrics format {fmt!r}")

    def _route_post(self, parsed: Any, parts: List[str]) -> None:
        path = parsed.path.rstrip("/")
        if path not in ("/jobs", "/pareto"):
            self._error(404, f"no route for {parsed.path}")
            return
        try:
            doc = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"bad request body: {exc}")
            return
        client_id = self.headers.get("X-Repro-Client")
        try:
            job, coalesced = self.service.submit(
                doc,
                client_id=client_id,
                require_search=path == "/pareto",
            )
        except ServiceDrainingError as exc:
            self._error(503, str(exc), headers={"Retry-After": "10"})
            return
        except TenancyError as exc:
            # The body carries the *exact* per-client retry delay; the
            # header is its integer ceiling (HTTP grammar).
            self._error(
                429,
                str(exc),
                retry_after_s=exc.retry_after_s,
                client_id=exc.client_id,
                headers={
                    "Retry-After": str(
                        max(1, math.ceil(exc.retry_after_s))
                    )
                },
            )
            return
        except QueueFullError as exc:
            self._error(
                429,
                str(exc),
                retry_after_s=exc.retry_after_s,
                headers={
                    "Retry-After": str(
                        max(1, math.ceil(exc.retry_after_s))
                    )
                },
            )
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        self._send_json(202, {"job": job.to_json(), "coalesced": coalesced})

    def _route_delete(self, parsed: Any, parts: List[str]) -> None:
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, f"no route for {parsed.path}")
            return
        job, cancelled = self.service.manager.cancel(parts[1])
        if job is None:
            self._error(404, f"unknown job {parts[1]}")
            return
        if not cancelled and job.state != "cancelled":
            self._error(
                409,
                f"job {parts[1]} is already {job.state}",
                state=job.state,
            )
            return
        self._send_json(200, {"job": job.to_json(), "cancelled": cancelled})

    # ------------------------------------------------------------------
    # job endpoints

    def _get_job(self, job_id: str, params: Dict[str, Any]) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        wait = params.get("wait")
        if wait:
            try:
                timeout_s = min(float(wait[0]), 300.0)
            except ValueError:
                self._error(400, "wait must be a number of seconds")
                return
            job = self.service.manager.wait(job_id, timeout_s=timeout_s)
        assert job is not None
        doc = job.to_json()
        manifest = self.service.manager.store.load_manifest(job_id)
        if manifest is not None:
            doc["manifest"] = manifest
        self._send_json(200, {"job": doc})

    def _get_result(self, job_id: str) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        doc = self.service.job_result(job)
        if doc is None:
            self._error(
                409,
                f"job {job_id} is {job.state}; no result yet",
                state=job.state,
            )
            return
        self._send_json(200, doc)

    def _get_trace(self, job_id: str) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        doc = self.service.store.load_trace(job_id)
        if doc is None:
            if job.terminal:
                reason = (
                    "submitted without tracing"
                    if job.trace_id is None
                    else "no trace was recorded"
                )
                self._error(
                    404,
                    f"no trace for job {job_id} ({reason})",
                    state=job.state,
                )
            else:
                self._error(
                    409,
                    f"job {job_id} is {job.state}; trace not finalised yet",
                    state=job.state,
                )
            return
        self._send_json(200, doc)

    def _stream_events(self, job_id: str) -> None:
        # Replays the job's append-only snapshot history from index 0 --
        # every state/progress change since submission, in order -- so any
        # number of concurrent consumers see the identical, complete
        # sequence.  Terminate on the *written* snapshot, so the terminal
        # state is always the last line on the wire.
        manager = self.service.manager
        job = manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        cursor = 0
        while True:
            job, snapshots = manager.events_since(
                job_id, cursor, timeout_s=10.0
            )
            if job is None:
                return
            if not snapshots and job.terminal:
                # Defensive: history exhausted on a terminal job (the
                # terminal snapshot always closes the stream above).
                return
            for snapshot in snapshots:
                try:
                    self.wfile.write((json.dumps(snapshot) + "\n").encode())
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return
                cursor += 1
                # Front events carry no state; only job-record snapshots
                # can terminate the stream.
                if snapshot.get("state") in ("done", "failed", "cancelled"):
                    return


def make_server(
    host: str, port: int, service: ExplorationService
) -> ServeHTTPServer:
    """Bind the service on ``host:port`` (``port=0`` picks a free port)."""
    return ServeHTTPServer((host, port), _Handler, service)


def install_signal_handlers(
    httpd: ServeHTTPServer, service: ExplorationService
) -> None:
    """SIGTERM/SIGINT -> graceful drain, then shut the listener down.

    The handler returns immediately (drain happens on a helper thread so
    the serving loop keeps answering status polls while work finishes).
    Only callable from the main thread; the CLI uses it, tests do their
    own lifecycle management.
    """

    def _drain(signum: int, frame: Any) -> None:
        logger.info(
            "signal %d: draining (no new jobs; finishing in-flight work)",
            signum,
        )
        service.begin_drain()

        def _finish() -> None:
            service.stop(wait=True)
            httpd.shutdown()

        threading.Thread(
            target=_finish, name="repro-serve-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
