"""Python client for the exploration service (stdlib ``urllib`` only).

:class:`ServeClient` speaks the ``repro.serve/1`` HTTP/JSON protocol:
submit sweeps (with automatic, bounded retry on ``429``/``503``
backpressure), poll or long-poll job status, cancel jobs, stream
progress events, and fetch results -- which deserialise through the same
exact :func:`~repro.engine.resilience.estimate_from_json` round-trip the
result store uses, so a result fetched over the wire compares equal
to one computed locally.

Multi-tenant deployments name each client
(``ServeClient(..., client_id="searcher-a")``); the id rides in the
``X-Repro-Client`` header on every request, and per-client ``429``
rejections are retried sleeping the server's *exact* ``retry_after_s``
hint.  When the server offers no hint the client backs off with full
jitter -- seeded via ``retry_seed`` so tests are deterministic.

Quickstart::

    from repro.serve import JobSpec, ServeClient

    client = ServeClient("http://127.0.0.1:8000")
    job = client.submit(JobSpec(kernel="compress", max_size=256))
    job = client.wait(job["job_id"])
    result = client.result(job["job_id"])
    print(result.min_energy())
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
import uuid
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.engine.resilience import estimate_from_json
from repro.engine.result import ExplorationResult
from repro.serve.jobs import JobSpec
from repro.serve.tenancy import validate_client_id

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """An HTTP request to the service failed (carries status and body)."""

    def __init__(self, status: int, message: str, doc: Optional[Dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.doc = doc or {}


class ServeClient:
    """A small, dependency-free client for one service endpoint."""

    #: Full-jitter backoff shape when the server sends no Retry-After:
    #: sleep ``uniform(0, min(cap, base * 2**attempt))``.
    RETRY_BASE_S = 0.5
    RETRY_CAP_S = 10.0

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8000",
        timeout_s: float = 30.0,
        trace: bool = True,
        client_id: Optional[str] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: Mint a fresh trace_id per submit (see :meth:`submit`).
        self.trace_enabled = trace
        #: Tenant identity sent as ``X-Repro-Client`` (None -> anonymous).
        self.client_id = (
            None if client_id is None else validate_client_id(client_id)
        )
        self._rng = random.Random(retry_seed)

    # ------------------------------------------------------------------
    # transport

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Repro-Client"] = self.client_id
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout_s or self.timeout_s
            ) as response:
                return json.loads(response.read().decode() or "{}")
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode(errors="replace")
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError:
                doc = {"error": raw}
            retry_after = exc.headers.get("Retry-After")
            if retry_after is not None:
                doc.setdefault("retry_after_s", float(retry_after))
            raise ServeError(
                exc.code, doc.get("error", raw), doc
            ) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {self.base_url}: {exc.reason}")

    def _request_text(self, path: str) -> str:
        """``GET`` a text (non-JSON) endpoint and return the raw body."""
        request = urllib.request.Request(
            f"{self.base_url}{path}", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServeError(
                exc.code, exc.read().decode(errors="replace")
            ) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {self.base_url}: {exc.reason}")

    # ------------------------------------------------------------------
    # endpoints

    def health(self) -> Dict[str, Any]:
        """``GET /health``."""
        return self._request("GET", "/health")

    def metrics(self, format: str = "json") -> Union[Dict[str, Any], str]:
        """``GET /metrics``: the ``repro.obs/1`` report + store section.

        ``format="prometheus"`` returns the text exposition (0.0.4) body
        as a string instead.
        """
        if format == "prometheus":
            return self._request_text("/metrics?format=prometheus")
        return self._request("GET", "/metrics")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>/trace``: the finalised ``repro.trace/1`` doc."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def retry_delay_s(
        self, attempt: int, retry_after_s: Optional[float]
    ) -> float:
        """The backoff before retrying attempt ``attempt``.

        The server's per-client ``retry_after_s`` hint is honoured
        *exactly* (capped at the retry ceiling) -- it already knows when
        the next token accrues, so jittering on top would only add
        latency.  Without a hint, full jitter over an exponentially
        growing window decorrelates the retrying herd.
        """
        if retry_after_s is not None:
            return min(float(retry_after_s), self.RETRY_CAP_S)
        window = min(self.RETRY_CAP_S, self.RETRY_BASE_S * (2.0 ** attempt))
        return self._rng.uniform(0.0, window)

    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 10,
        max_attempts: int = 6,
        trace_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        path: str = "/jobs",
    ) -> Dict[str, Any]:
        """``POST /jobs``, honouring ``429``/``503`` backpressure.

        Retries up to ``max_attempts`` times, sleeping the server's
        exact ``retry_after_s`` hint when one is given and a seeded
        full-jitter backoff otherwise (see :meth:`retry_delay_s`); any
        other error surfaces immediately as :class:`ServeError`.  Returns
        the job record with a ``"coalesced"`` flag folded in.

        ``deadline_s`` bounds the job's wall clock server-side: an
        expired job cancels cooperatively but keeps the rows it stored,
        so resubmitting the same spec resumes where it stopped.

        When the client was built with ``trace=True`` (the default) a
        fresh ``trace_id`` is minted per submit and sent with the spec, so
        the finished job's timeline is available from :meth:`trace`;
        pass an explicit ``trace_id`` to reuse one, or build the client
        with ``trace=False`` to opt out.
        """
        doc = spec.to_json() if isinstance(spec, JobSpec) else dict(spec)
        body: Dict[str, Any] = {"spec": doc, "priority": priority}
        if deadline_s is not None:
            body["deadline_s"] = float(deadline_s)
        if trace_id is None and self.trace_enabled:
            trace_id = uuid.uuid4().hex
        if trace_id is not None:
            body["trace_id"] = trace_id
        last_error: Optional[ServeError] = None
        for attempt in range(max_attempts):
            try:
                reply = self._request("POST", path, body=body)
            except ServeError as exc:
                if exc.status not in (429, 503) or attempt == max_attempts - 1:
                    raise
                last_error = exc
                hint = exc.doc.get("retry_after_s")
                time.sleep(self.retry_delay_s(attempt, hint))
                continue
            job = reply["job"]
            job["coalesced"] = reply.get("coalesced", False)
            return job
        raise last_error or ServeError(  # pragma: no cover
            429, "job queue stayed full"
        )

    def pareto(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 10,
        max_attempts: int = 6,
        trace_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """``POST /pareto``: submit a multi-objective search job.

        The spec must carry a ``search`` section (searcher, generations,
        population, seed, objectives...); the server rejects specs
        without one on this route.  The returned job streams one
        ``repro.front/1`` event per completed generation -- see
        :meth:`fronts` -- and its ``/result`` is the final Pareto front.
        Backpressure retry behaviour matches :meth:`submit`.
        """
        return self.submit(
            spec,
            priority=priority,
            max_attempts=max_attempts,
            trace_id=trace_id,
            deadline_s=deadline_s,
            path="/pareto",
        )

    def fronts(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """``GET /jobs/<id>/events`` filtered to ``repro.front/1`` events.

        Yields one event per completed generation (generation index,
        evaluations used, archive points, hypervolume) until the job's
        event stream terminates.
        """
        for event in self.events(job_id):
            if event.get("event") == "front":
                yield event

    def job(
        self, job_id: str, wait_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """``GET /jobs/<id>`` (long-polling when ``wait_s`` is given)."""
        path = f"/jobs/{job_id}"
        timeout = None
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
            timeout = wait_s + self.timeout_s
        return self._request("GET", path, timeout_s=timeout)["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /jobs``: every known job, most recent first."""
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /jobs/<id>``: cancel a queued or running job.

        Returns the job record; idempotent on already-cancelled jobs.
        Raises :class:`ServeError` 409 for jobs already done/failed.
        """
        reply = self._request("DELETE", f"/jobs/{job_id}")
        job = reply["job"]
        job["cancelled"] = reply.get("cancelled", False)
        return job

    def wait(
        self, job_id: str, timeout_s: Optional[float] = None, poll_s: float = 5.0
    ) -> Dict[str, Any]:
        """Block until the job is terminal (long-polls in ``poll_s`` slices)."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            job = self.job(job_id, wait_s=poll_s)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                return job

    def result(self, job_id: str) -> ExplorationResult:
        """``GET /jobs/<id>/result`` as an exact :class:`ExplorationResult`."""
        doc = self._request("GET", f"/jobs/{job_id}/result")
        return ExplorationResult(
            [estimate_from_json(row) for row in doc["estimates"]]
        )

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """``GET /jobs/<id>/events``: yield progress snapshots until terminal."""
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/events",
            headers={"Accept": "application/x-ndjson"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode())
        except urllib.error.HTTPError as exc:
            raise ServeError(exc.code, exc.read().decode(errors="replace"))

    def submit_and_wait(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 10,
        timeout_s: Optional[float] = None,
    ) -> ExplorationResult:
        """Submit, wait for completion, and fetch the exact result."""
        job = self.submit(spec, priority=priority)
        finished = self.wait(job["job_id"], timeout_s=timeout_s)
        if finished["state"] != "done":
            raise ServeError(
                500,
                f"job {job['job_id']} ended {finished['state']}: "
                f"{finished.get('error')}",
            )
        return self.result(job["job_id"])
