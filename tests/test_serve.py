"""The exploration service (``repro.serve``): queue, coalescing, HTTP, crash-resume.

The load-bearing claims:

* a result fetched over the wire is bit-identical to a direct engine
  sweep (the store/JSON round-trip loses nothing);
* concurrent identical submissions coalesce onto one job -- each unique
  configuration is evaluated exactly once fleet-wide, proven by the
  ``engine.configs_evaluated`` counter;
* a second identical submission after completion is served entirely
  from the persistent store with **zero** engine evaluations, and
  overlapping grids only pay for their set difference;
* admission control rejects over-capacity submissions with ``429`` +
  ``Retry-After``, and a draining service answers ``503``;
* a service killed mid-job (``kill -9`` semantics: no goodbye, dead
  between two store commits) recovers on restart, dispatches only the
  configurations the store lacks, and finishes with results
  bit-identical to an uninterrupted run;
* the store is a served job's only durable record: one write per
  committed chunk, and nothing under the spool directory.
"""

import os
import threading
import time

import pytest

from repro.engine.parallel import ParallelSweep
from repro.moo import SearchSettings, run_search
from repro.obs.metrics import get_metrics
from repro.serve import (
    ExplorationService,
    JobManager,
    JobSpec,
    QueueFullError,
    ServeClient,
    ServeError,
    ServiceDrainingError,
    make_server,
    open_store,
)
from repro.serve.jobs import result_to_json
from repro.serve.store import config_key

#: Small grids so each sweep is fast; SMALL is a strict subset of BIG.
SMALL = JobSpec(kernel="compress", max_size=32, min_size=16, tilings=(1,))
BIG = JobSpec(kernel="compress", max_size=64, min_size=16, tilings=(1,))


def _evaluated():
    return get_metrics().counter("engine.configs_evaluated").value


class Killed(BaseException):
    """Stands in for ``kill -9``: no layer of the service catches it."""


def kill_after_commits(service, commits):
    """Make ``service`` die right after its ``commits``-th estimate write.

    Served jobs write each completed chunk's rows to the store as the
    chunk commits, so this leaves exactly what a ``kill -9`` between two
    chunk commits leaves: the committed rows stored, the job record still
    ``running``.
    """
    store = service.store
    write = store.put_many
    done = []

    def put_many(eval_id, pairs):
        write(eval_id, pairs)
        done.append(1)
        if len(done) >= commits:
            raise Killed()

    store.put_many = put_many


def run_until_killed(service, commits):
    """Claim the next job and run it until the kill; returns the job."""
    job = service.manager.next_job()
    kill_after_commits(service, commits)
    with pytest.raises(Killed):
        service.runner.execute(job)
    service.runner.pool.close()
    return job


class LiveServer:
    """An in-process service + HTTP listener + client, on a free port."""

    def __init__(self, tmp_path, queue_depth=16, start=True, sweep_jobs=1,
                 **service_kwargs):
        self.service = ExplorationService(
            str(tmp_path / "results.db"),
            str(tmp_path / "spool"),
            queue_depth=queue_depth,
            sweep_jobs=sweep_jobs,
            **service_kwargs,
        )
        if start:
            self.service.start()
        self.httpd = make_server("127.0.0.1", 0, self.service)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        port = self.httpd.server_address[1]
        self.client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=60)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.stop()


@pytest.fixture
def live(tmp_path):
    server = LiveServer(tmp_path)
    yield server
    server.close()


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(kernel="conv2d", ways=(1, 2), tilings=(1, 4))
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_spec_hash_is_stable(self):
        assert SMALL.spec_hash == JobSpec.from_json(SMALL.to_json()).spec_hash
        assert SMALL.spec_hash != BIG.spec_hash

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            JobSpec(kernel="nope")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            JobSpec.from_json({"kernel": "compress", "surprise": 1})

    def test_kernel_required(self):
        with pytest.raises(ValueError, match="kernel"):
            JobSpec.from_json({"max_size": 64})

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            JobSpec(kernel="compress", max_size=16, min_size=64)


class TestQueue:
    def test_priority_order(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        manager = JobManager(store)
        manager.submit(SMALL, priority=10)
        urgent, _ = manager.submit(BIG, priority=1)
        assert manager.next_job().job_id == urgent.job_id

    def test_queue_full_rejects_with_retry_hint(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        manager = JobManager(store, max_depth=1, retry_after_s=7.0)
        manager.submit(SMALL)
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit(BIG)
        assert excinfo.value.retry_after_s == 7.0

    def test_coalesced_submission_never_rejected(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        manager = JobManager(store, max_depth=1)
        first, coalesced = manager.submit(SMALL)
        assert not coalesced
        again, coalesced = manager.submit(SMALL)  # full queue, same spec
        assert coalesced and again.job_id == first.job_id

    def test_draining_refuses_submissions(self, tmp_path):
        store = open_store(str(tmp_path / "r.db"))
        manager = JobManager(store)
        manager.begin_drain()
        with pytest.raises(ServiceDrainingError):
            manager.submit(SMALL)


class TestHTTP:
    def test_health(self, live):
        doc = live.client.health()
        assert doc["status"] == "ok"
        assert doc["schema"] == "repro.serve/1"

    def test_result_bit_identical_to_direct_sweep(self, live):
        result = live.client.submit_and_wait(SMALL, timeout_s=120)
        direct = SMALL.build_evaluator().sweep(configs=SMALL.configs())
        assert list(result.estimates) == list(direct.estimates)

    def test_metrics_exposes_store_and_serve_sections(self, live):
        live.client.submit_and_wait(SMALL, timeout_s=120)
        doc = live.client.metrics()
        assert doc["store"]["schema"] == "repro.store/1"
        assert doc["store"]["entries"] == len(SMALL.configs())
        assert doc["serve"]["serve.jobs_submitted"] >= 1

    def test_bad_spec_is_400(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client.submit({"kernel": "compress", "surprise": 1})
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client.job("no-such-job")
        assert excinfo.value.status == 404

    def test_result_before_done_is_409(self, tmp_path):
        env = LiveServer(tmp_path, start=False)  # runner off: job stays queued
        try:
            job = env.client.submit(SMALL)
            with pytest.raises(ServeError) as excinfo:
                env.client.result(job["job_id"])
            assert excinfo.value.status == 409
        finally:
            env.close()

    def test_draining_is_503(self, live):
        live.service.begin_drain()
        assert live.client.health()["status"] == "draining"
        with pytest.raises(ServeError) as excinfo:
            live.client.submit(SMALL, max_attempts=1)
        assert excinfo.value.status == 503

    def test_backpressure_is_429_with_retry_after(self, tmp_path):
        env = LiveServer(tmp_path, queue_depth=1, start=False)
        try:
            env.client.submit(SMALL)
            with pytest.raises(ServeError) as excinfo:
                env.client.submit(BIG, max_attempts=1)
            assert excinfo.value.status == 429
            assert excinfo.value.doc["retry_after_s"] > 0
        finally:
            env.close()

    def test_events_stream_ends_terminal(self, live):
        job = live.client.submit(SMALL)
        events = list(live.client.events(job["job_id"]))
        assert events, "stream yielded nothing"
        last = events[-1]
        assert last["state"] == "done"
        assert last["done_configs"] == last["total_configs"]

    def test_jobs_listing(self, live):
        job = live.client.submit(SMALL)
        live.client.wait(job["job_id"], timeout_s=120)
        listed = live.client.jobs()
        assert job["job_id"] in {j["job_id"] for j in listed}


class TestCoalescing:
    def test_concurrent_identical_submissions_run_once(self, tmp_path):
        env = LiveServer(tmp_path, start=False)  # hold the queue still
        try:
            jobs, errors = [], []

            def submit():
                try:
                    jobs.append(env.client.submit(SMALL))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len({j["job_id"] for j in jobs}) == 1, "one shared job"
            assert sum(1 for j in jobs if j["coalesced"]) == 3

            before = _evaluated()
            env.service.start()
            job_id = jobs[0]["job_id"]
            finished = env.client.wait(job_id, timeout_s=120)
            assert finished["state"] == "done"
            assert finished["coalesced"] == 3
            # The fleet of 4 paid for the grid exactly once.
            assert _evaluated() - before == len(SMALL.configs())
            results = [env.client.result(job_id) for _ in range(4)]
            assert all(
                list(r.estimates) == list(results[0].estimates)
                for r in results
            )
        finally:
            env.close()

    def test_resubmission_served_from_store(self, live):
        first = live.client.submit_and_wait(SMALL, timeout_s=120)
        before = _evaluated()
        job = live.client.submit(SMALL)
        assert not job["coalesced"], "terminal jobs do not coalesce"
        finished = live.client.wait(job["job_id"], timeout_s=120)
        assert finished["state"] == "done"
        assert _evaluated() == before, "no engine work on resubmission"
        again = live.client.result(job["job_id"])
        assert list(again.estimates) == list(first.estimates)

    def test_overlapping_grids_pay_the_difference(self, live):
        live.client.submit_and_wait(SMALL, timeout_s=120)
        before = _evaluated()
        live.client.submit_and_wait(BIG, timeout_s=120)
        expected = len(BIG.configs()) - len(SMALL.configs())
        assert _evaluated() - before == expected


class TestCrashRecovery:
    def test_killed_job_resumes_bit_identically(self, tmp_path):
        spec = BIG
        configs = spec.configs()
        direct = spec.build_evaluator().sweep(configs=configs)

        # Session one: claim the job (state=running), commit two chunks,
        # then vanish without any goodbye -- kill -9 semantics.
        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        job, _ = first.manager.submit(spec)
        assert run_until_killed(first, commits=2).job_id == job.job_id
        stored = first.store.count()
        assert 0 < stored < len(configs)

        # Session two: a fresh service over the same store re-enqueues the
        # interrupted job and dispatches only what the store lacks.
        recovered_before = get_metrics().counter("serve.jobs_recovered").value
        evaluated = _evaluated()
        second = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            done = second.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert done.resumed
            assert (
                get_metrics().counter("serve.jobs_recovered").value
                == recovered_before + 1
            )
            assert _evaluated() - evaluated == len(configs) - stored
            doc = second.job_result(done)
            assert doc is not None
            assert doc["estimates"] == result_to_json(direct)
        finally:
            second.stop()

    def test_queued_job_survives_restart(self, tmp_path):
        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        job, _ = first.manager.submit(SMALL)
        # No runner ever started; the record only lives in the store.
        second = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            done = second.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
        finally:
            second.stop()

    def test_terminal_jobs_recover_as_history(self, tmp_path):
        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        job, _ = first.manager.submit(SMALL)
        first.manager.wait(job.job_id, timeout_s=120)
        first.stop()

        second = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            again = second.manager.get(job.job_id)
            assert again is not None and again.state == "done"
            # The in-memory result died with session one; the store
            # reassembles it exactly.
            doc = second.job_result(again)
            assert doc is not None
            assert len(doc["estimates"]) == len(SMALL.configs())
        finally:
            second.stop()


class TestTracing:
    """Every traced job yields one merged repro.trace/1 timeline."""

    def test_trace_covers_parallel_sweep(self, tmp_path):
        env = LiveServer(tmp_path, sweep_jobs=4)
        try:
            fallbacks_before = (
                get_metrics().counter("parallel.serial_fallbacks").value
            )
            submitted = env.client.submit(BIG)
            assert submitted["trace_id"], "client mints a trace id"
            job = env.client.wait(submitted["job_id"], timeout_s=120)
            assert job["state"] == "done"
            doc = env.client.trace(job["job_id"])

            assert doc["schema"] == "repro.trace/1"
            assert doc["trace_id"] == submitted["trace_id"]
            assert doc["job_id"] == job["job_id"]

            by_path = {tuple(e["path"]): e for e in doc["events"]}
            assert ("job",) in by_path
            assert ("job", "queue.wait") in by_path
            assert ("job", "sweep") in by_path
            chunks = [
                e for e in doc["events"]
                if e["name"].startswith("chunk[")
            ]
            assert chunks, "chunk spans present in the timeline"

            # Every chunk nests under the sweep and evaluates through an
            # evaluate_batch span, and the chunks cover the whole grid
            # exactly once.
            sweep = by_path[("job", "sweep")]
            for chunk in chunks:
                assert chunk["parent_id"] == sweep["span_id"]
                assert (*chunk["path"], "evaluate_batch") in by_path
            evaluated = sum(chunk["attrs"]["configs"] for chunk in chunks)
            assert evaluated == len(BIG.configs())

            # With a real process pool the chunks ran on several worker
            # pids, all captured in the merged timeline.
            degraded = (
                get_metrics().counter("parallel.serial_fallbacks").value
                - fallbacks_before
            )
            if degraded == 0:
                assert len(doc["workers"]) >= 2

            # Timing is internally consistent: queue wait plus every
            # chunk's busy time fits the job's wall-clock window.
            wall = job["finished_s"] - job["submitted_s"]
            queue_wait = by_path[("job", "queue.wait")]["total_s"]
            assert queue_wait <= wall
            for chunk in chunks:
                assert 0.0 < chunk["total_s"] <= wall
                assert doc["started_s"] <= chunk["start_s"]
                assert chunk["end_s"] <= doc["started_s"] + doc["duration_s"]
            assert doc["dropped"] == 0
        finally:
            env.close()

    def test_trace_before_done_is_409(self, tmp_path):
        env = LiveServer(tmp_path, start=False)
        try:
            job = env.client.submit(SMALL)
            with pytest.raises(ServeError) as excinfo:
                env.client.trace(job["job_id"])
            assert excinfo.value.status == 409
        finally:
            env.close()

    def test_untraced_job_is_404(self, tmp_path):
        env = LiveServer(tmp_path)
        try:
            # "trace": false in the submission body opts this job out of
            # the server-side trace_id minting.
            job, _ = env.service.submit(
                {"spec": SMALL.to_json(), "trace": False}
            )
            done = env.client.wait(job.job_id, timeout_s=120)
            assert done["state"] == "done"
            assert done.get("trace_id") is None
            with pytest.raises(ServeError) as excinfo:
                env.client.trace(job.job_id)
            assert excinfo.value.status == 404
        finally:
            env.close()

    def test_bad_trace_id_is_400(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client.submit(SMALL, trace_id="not ok!")
        assert excinfo.value.status == 400

    def test_trace_persists_across_restart(self, tmp_path):
        from repro.serve import ExplorationService, open_store

        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        job, _ = first.submit({"spec": SMALL.to_json()})
        first.manager.wait(job.job_id, timeout_s=120)
        first.stop()
        with open_store(str(tmp_path / "results.db")) as store:
            doc = store.load_trace(job.job_id)
        assert doc is not None and doc["trace_id"] == job.trace_id


class TestPrometheusEndpoint:
    def test_exposition_parses_with_live_percentiles(self, live):
        from repro.obs.prometheus import parse_prometheus

        live.client.submit_and_wait(SMALL, timeout_s=120)
        text = live.client.metrics(format="prometheus")
        families = parse_prometheus(text)
        assert "repro_serve_http_request_count" not in families
        assert families["repro_serve_http_request"]["type"] == "histogram"
        assert families["repro_engine_eval"]["type"] == "histogram"

        # The JSON report agrees and carries non-zero latency percentiles.
        report = live.client.metrics()
        histograms = report["metrics"]["histograms"]
        assert histograms["serve.http.request"]["p95"] > 0
        assert histograms["engine.eval"]["p95"] > 0

        # Store gauges refresh on scrape: row counts and file size.
        rows = report["store"]["rows"]
        assert rows["estimates"] == len(SMALL.configs())
        assert rows["traces"] >= 1
        assert rows["file_bytes"] > 0
        gauges = report["metrics"]["gauges"]
        assert gauges["store.estimate_rows"] == rows["estimates"]
        assert gauges["store.file_bytes"] == rows["file_bytes"]

    def test_unknown_format_is_400(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client._request_text("/metrics?format=xml")
        assert excinfo.value.status == 400


class TestEventsReplay:
    def test_concurrent_consumers_see_identical_sequences(self, tmp_path):
        env = LiveServer(tmp_path, start=False)
        try:
            job = env.client.submit(SMALL)
            again = env.client.submit(SMALL)
            assert again["coalesced"], "second submission coalesced"
            job_id = job["job_id"]

            streams = [[], []]
            errors = []

            def consume(into):
                try:
                    into.extend(env.client.events(job_id))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            # Both consumers attach while the job is still queued...
            threads = [
                threading.Thread(target=consume, args=(stream,))
                for stream in streams
            ]
            for t in threads:
                t.start()
            env.service.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors and not any(t.is_alive() for t in threads)

            # ...and a third attaches after the job finished; history
            # replay still hands it the full identical sequence.
            late = list(env.client.events(job_id))

            first, second = streams
            assert first == second == late
            assert first[0]["state"] == "queued"
            assert first[-1]["state"] == "done"
            total = first[-1]["total_configs"]
            assert first[-1]["done_configs"] == total == len(SMALL.configs())
            # Progress only ever moves forward within the sequence.
            done_counts = [e["done_configs"] for e in first]
            assert done_counts == sorted(done_counts)
        finally:
            env.close()


class TestManifests:
    """Every finished job records a repro.manifest/1 provenance document."""

    def test_finished_job_serves_manifest(self, live):
        from repro.registry import check_manifest

        doc = live.client.submit(SMALL)
        job = live.client.wait(doc["job_id"], timeout_s=120)
        assert job["state"] == "done"
        manifest = job["manifest"]
        check_manifest(manifest)
        assert manifest["spec_hash"] == SMALL.spec_hash
        assert manifest["eval_id"] == SMALL.eval_id()
        assert manifest["seeds"] == {"retry_backoff": 0}
        used = {(row["kind"], row["name"]) for row in manifest["plugins"]}
        assert used == {
            ("kernel", "compress"),
            ("backend", "fastsim"),
            ("energy", "hwo"),
            ("sram", "CY7C-2Mbit"),
            ("store", "sqlite"),
        }
        assert all(row["origin"] == "builtin" for row in manifest["plugins"])

    def test_queued_job_has_no_manifest_yet(self, tmp_path):
        manager = JobManager(open_store(str(tmp_path / "r.db")))
        job, _ = manager.submit(SMALL)
        assert manager.store.load_manifest(job.job_id) is None

    def test_manifest_survives_restart(self, tmp_path):
        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        job, _ = first.manager.submit(SMALL)
        first.manager.wait(job.job_id, timeout_s=120)
        first.stop()

        with open_store(str(tmp_path / "results.db")) as store:
            manifest = store.load_manifest(job.job_id)
        assert manifest is not None
        assert manifest["spec_hash"] == SMALL.spec_hash


class TestReadiness:
    def test_readyz_503_until_recovery_completes(self, tmp_path):
        server = LiveServer(tmp_path, start=False)
        try:
            # The listener is up but recovery has not run: alive, not ready.
            assert server.client.health()["status"] == "starting"
            with pytest.raises(ServeError) as excinfo:
                server.client._request("GET", "/readyz")
            assert excinfo.value.status == 503
            server.service.start()
            ready = server.client._request("GET", "/readyz")
            assert ready["ready"] is True and ready["status"] == "ok"
        finally:
            server.close()

    def test_draining_fails_readiness_but_not_liveness(self, live):
        live.service.begin_drain()
        # /health and /healthz keep answering 200 -- the process is alive.
        assert live.client.health()["status"] == "draining"
        assert live.client._request("GET", "/healthz")["status"] == "draining"
        for path in ("/readyz", "/health?ready=1"):
            with pytest.raises(ServeError) as excinfo:
                live.client._request("GET", path)
            assert excinfo.value.status == 503


class TestMultiTenantHTTP:
    def test_client_header_rides_on_the_job(self, tmp_path):
        server = LiveServer(tmp_path)
        try:
            client = ServeClient(
                server.client.base_url, timeout_s=60, client_id="tenant-a"
            )
            job = client.submit(SMALL)
            assert client.job(job["job_id"])["client_id"] == "tenant-a"
        finally:
            server.close()

    def test_body_client_id_when_no_header(self, tmp_path):
        server = LiveServer(tmp_path)
        try:
            job = server.client._request(
                "POST", "/jobs",
                body={"spec": SMALL.to_json(), "client_id": "tenant-b"},
            )["job"]
            assert job["client_id"] == "tenant-b"
        finally:
            server.close()

    def test_anonymous_default(self, live):
        job = live.client.submit(SMALL)
        assert live.client.job(job["job_id"])["client_id"] == "anonymous"

    def test_bad_client_id_is_400(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client._request(
                "POST", "/jobs",
                body={"spec": SMALL.to_json(), "client_id": "not ok!"},
            )
        assert excinfo.value.status == 400

    def test_rate_limit_is_429_with_exact_retry_after(self, tmp_path):
        from repro.serve import ClientPolicy, TenancyPolicy

        server = LiveServer(
            tmp_path,
            tenancy=TenancyPolicy(default=ClientPolicy(rate=0.5, burst=1)),
        )
        try:
            server.client.submit(SMALL, max_attempts=1)
            with pytest.raises(ServeError) as excinfo:
                server.client.submit(BIG, max_attempts=1)
            assert excinfo.value.status == 429
            hint = excinfo.value.doc["retry_after_s"]
            assert 0.0 < hint <= 2.0
            report = server.client.metrics()
            assert report["serve"]["serve.quota.rate_limited"] >= 1
        finally:
            server.close()

    def test_inflight_quota_is_429(self, tmp_path):
        from repro.serve import ClientPolicy, TenancyPolicy

        server = LiveServer(
            tmp_path,
            start=False,  # nothing dequeues; submissions stay in flight
            tenancy=TenancyPolicy(default=ClientPolicy(max_inflight=1)),
        )
        try:
            server.service.manager.submit(SMALL)
            with pytest.raises(ServeError) as excinfo:
                server.client.submit(BIG, max_attempts=1)
            assert excinfo.value.status == 429
        finally:
            server.service.start()
            server.close()

    def test_deadline_validation_is_400(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client._request(
                "POST", "/jobs",
                body={"spec": SMALL.to_json(), "deadline_s": -1},
            )
        assert excinfo.value.status == 400

    def test_metrics_report_has_breaker_and_fairshare_sections(self, live):
        job = live.client.submit(SMALL)
        live.client.wait(job["job_id"], timeout_s=120)
        report = live.client.metrics()
        assert "breaker" in report
        assert any(
            name.startswith("serve.fairshare.dequeued.")
            for name in report["serve"]
        )


class TestCancellationHTTP:
    def test_cancel_queued_job(self, tmp_path):
        server = LiveServer(tmp_path, start=False)  # stays queued
        try:
            job, _ = server.service.manager.submit(SMALL)
            cancelled = server.client.cancel(job.job_id)
            assert cancelled["state"] == "cancelled"
            assert cancelled["cancelled"] is True
            # Idempotent: a second DELETE answers 200, changed=False.
            again = server.client.cancel(job.job_id)
            assert again["state"] == "cancelled"
            assert again["cancelled"] is False
            # wait() treats cancelled as terminal.
            assert server.client.wait(job.job_id)["state"] == "cancelled"
        finally:
            server.service.start()
            server.close()

    def test_cancel_unknown_is_404(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client.cancel("no-such-job")
        assert excinfo.value.status == 404

    def test_cancel_done_is_409(self, live):
        job = live.client.submit(SMALL)
        live.client.wait(job["job_id"], timeout_s=120)
        with pytest.raises(ServeError) as excinfo:
            live.client.cancel(job["job_id"])
        assert excinfo.value.status == 409

    def test_delete_bad_route_is_404(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client._request("DELETE", "/jobs")
        assert excinfo.value.status == 404

    def test_events_stream_ends_on_cancelled(self, tmp_path):
        server = LiveServer(tmp_path, start=False)
        try:
            job, _ = server.service.manager.submit(SMALL)
            server.client.cancel(job.job_id)
            states = [snap["state"] for snap in server.client.events(job.job_id)]
            assert states[-1] == "cancelled"
        finally:
            server.service.start()
            server.close()


class TestDeadlineResume:
    def test_expired_deadline_cancels_but_resubmit_resumes(self, tmp_path):
        spec = BIG
        direct = spec.build_evaluator().sweep(configs=spec.configs())
        # Submit before the runner exists, so the deadline deterministically
        # expires while the job is still queued; the claim then finalises
        # it as cancelled instead of starting it.  (The mid-sweep
        # cooperative-cancel path is pinned in tests/test_resilience.py.)
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        job, _ = service.manager.submit(spec, deadline_s=0.005)
        time.sleep(0.02)
        service.start()
        try:
            ended = service.manager.wait(job.job_id, timeout_s=120)
            assert ended is not None and ended.state == "cancelled"
            assert "deadline" in ended.error
            # The spec-keyed journal (whatever it holds) survived; a
            # resubmission coalesces onto nothing and runs to done with a
            # result bit-identical to the uninterrupted sweep.
            retry, coalesced = service.manager.submit(spec)
            assert not coalesced and retry.job_id != job.job_id
            done = service.manager.wait(retry.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert service.job_result(done)["estimates"] == result_to_json(
                direct
            )
        finally:
            service.stop()


class TestRunnerRobustness:
    """The runner thread must outlive any single job's misbehaviour."""

    def test_runner_survives_execute_crash(self, tmp_path, fail_on_error_logs):
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )

        def boom(job):
            raise RuntimeError("kaboom")

        service.runner.execute = boom  # instance attr shadows the method
        service.start()
        try:
            job, _ = service.manager.submit(SMALL)
            ended = service.manager.wait(job.job_id, timeout_s=30)
            assert ended is not None and ended.state == "failed"
            assert "kaboom" in ended.error
            # The loop caught the escape: the runner is still alive and
            # executes the next job normally.
            assert service.runner.is_alive()
            del service.runner.execute
            retry, _ = service.manager.submit(BIG)
            done = service.manager.wait(retry.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
        finally:
            service.stop()
            # This test provokes the backstop's ERROR log on purpose.
            fail_on_error_logs.records.clear()

    def test_spurious_cancel_with_lifted_deadline_is_not_fatal(self, tmp_path):
        # Race pinned by the review: the deadline fires, then a
        # coalesced join lifts job.deadline_s to None before the
        # runner's except-handler formats the reason.  The handler must
        # not raise (a TypeError here used to kill the runner thread).
        from repro.engine.resilience import SweepCancelledError

        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )

        def cancelled_sweep(job, cancel_event=None):
            raise SweepCancelledError("cancelled", done=1, total=4)

        service.runner._sweep = cancelled_sweep
        service.start()
        try:
            job, _ = service.manager.submit(SMALL)  # no deadline at all
            ended = service.manager.wait(job.job_id, timeout_s=30)
            assert ended is not None and ended.state == "cancelled"
            assert "deadline exceeded" in ended.error
            assert service.runner.is_alive()
        finally:
            service.stop()

    def test_stop_with_stuck_runner_leaves_store_open(self, tmp_path):
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        entered = threading.Event()
        release = threading.Event()

        def stuck(job):
            entered.set()
            release.wait(30)
            service.manager.fail(job, "stubbed")

        service.runner.execute = stuck
        service.start()
        try:
            job, _ = service.manager.submit(SMALL)
            assert entered.wait(10)
            # The join times out with the sweep still running; the store
            # must stay open so the job's own writes don't explode.
            service.stop(wait=True, timeout_s=0.05)
            assert service.store.stats()["jobs"] >= 1
        finally:
            release.set()
            service.manager.wait(job.job_id, timeout_s=30)
            service.runner.join(10)
            service.stop()  # runner gone: this close succeeds

    def test_runner_deadline_lift_mid_sweep_completes(self, tmp_path):
        # End-to-end: a running job's short deadline is lifted by a
        # coalesced join; the re-reading watch stands down and the job
        # runs to done instead of being cancelled by the stale timer.
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        started = threading.Event()
        release = threading.Event()
        original = service.runner._sweep

        def gated(job, cancel_event=None):
            started.set()
            release.wait(30)
            return original(job, cancel_event)

        service.runner._sweep = gated
        service.start()
        try:
            job, _ = service.manager.submit(SMALL, deadline_s=1.0)
            assert started.wait(10)
            joined, coalesced = service.manager.submit(SMALL)  # lifts it
            assert coalesced and joined.job_id == job.job_id
            time.sleep(1.5)  # let the stale deadline fire (and stand down)
            release.set()
            ended = service.manager.wait(job.job_id, timeout_s=120)
            assert ended is not None and ended.state == "done"
        finally:
            release.set()
            service.stop()


class TestClientRetryJitter:
    def test_seeded_jitter_is_deterministic(self):
        a = ServeClient(retry_seed=42)
        b = ServeClient(retry_seed=42)
        delays_a = [a.retry_delay_s(i, None) for i in range(5)]
        delays_b = [b.retry_delay_s(i, None) for i in range(5)]
        assert delays_a == delays_b
        assert ServeClient(retry_seed=7).retry_delay_s(0, None) != delays_a[0]

    def test_full_jitter_window_grows_and_caps(self):
        client = ServeClient(retry_seed=3)
        for attempt in range(12):
            delay = client.retry_delay_s(attempt, None)
            window = min(
                client.RETRY_CAP_S, client.RETRY_BASE_S * 2.0 ** attempt
            )
            assert 0.0 <= delay <= window

    def test_server_hint_honoured_exactly(self):
        client = ServeClient(retry_seed=1)
        assert client.retry_delay_s(0, 1.234) == 1.234
        assert client.retry_delay_s(3, 0.05) == 0.05
        # ... but never beyond the ceiling.
        assert client.retry_delay_s(0, 600.0) == client.RETRY_CAP_S

    def test_invalid_client_id_rejected(self):
        with pytest.raises(ValueError, match="client_id"):
            ServeClient(client_id="not ok!")


class TestSearchJobs:
    """Multi-objective search jobs: /pareto, streamed fronts, crash paths."""

    SEARCH = JobSpec(
        kernel="compress",
        max_size=64,
        min_size=16,
        tilings=(1,),
        search=SearchSettings(generations=3, population=6, seed=7),
    )

    def test_spec_with_search_round_trips(self):
        spec = self.SEARCH
        assert JobSpec.from_json(spec.to_json()) == spec
        assert spec.spec_hash != SMALL.spec_hash
        # Sweep specs stay byte-identical to the pre-search schema, so
        # historical spec hashes (and coalescing) are unaffected.
        assert "search" not in JobSpec(kernel="compress", max_size=64).to_json()

    def test_unknown_searcher_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="searcher"):
            JobSpec(
                kernel="compress",
                max_size=32,
                search={"searcher": "no-such-strategy"},
            )

    def test_pareto_requires_search_section(self, live):
        with pytest.raises(ServeError) as excinfo:
            live.client.pareto(SMALL, max_attempts=1)
        assert excinfo.value.status == 400
        assert "search" in excinfo.value.doc["error"]

    def test_pareto_streams_monotone_fronts(self, live):
        doc = live.client.pareto(self.SEARCH)
        job = live.client.wait(doc["job_id"], timeout_s=120)
        assert job["state"] == "done"
        fronts = list(live.client.fronts(doc["job_id"]))
        assert len(fronts) == self.SEARCH.search.generations
        assert [f["generation"] for f in fronts] == list(range(len(fronts)))
        series = [f["hypervolume"] for f in fronts]
        assert all(v is not None for v in series)
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        for front in fronts:
            assert front["schema"] == "repro.front/1"
            assert front["archive_size"] == len(front["points"])
            assert front["evaluations"] <= self.SEARCH.search.budget
        result = live.client.result(doc["job_id"])
        assert len(result.estimates) == fronts[-1]["archive_size"]

    def test_search_manifest_records_searcher_and_front(self, live):
        from repro.registry import check_manifest

        doc = live.client.pareto(self.SEARCH)
        job = live.client.wait(doc["job_id"], timeout_s=120)
        manifest = job["manifest"]
        check_manifest(manifest)
        used = {(row["kind"], row["name"]) for row in manifest["plugins"]}
        assert ("searcher", "nsga2") in used
        assert manifest["seeds"]["search"] == self.SEARCH.search.seed
        search = manifest["search"]
        assert search["schema"] == "repro.front/1"
        assert search["generations"] == self.SEARCH.search.generations
        assert not search.get("partial")
        assert search["front"]

    def test_served_search_matches_direct_run(self, tmp_path):
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            job, _ = service.manager.submit(self.SEARCH)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            served = service.job_result(done)
            direct = run_search(
                self.SEARCH.build_evaluator(),
                self.SEARCH.configs(),
                self.SEARCH.search,
            )
            assert [row["config"] for row in served["estimates"]] == [
                [e.config.size, e.config.line_size, e.config.ways, e.config.tiling]
                for e in direct.front
            ]
        finally:
            service.stop()

    def test_cancel_mid_search_persists_partial_front_then_resumes(
        self, tmp_path
    ):
        spec = JobSpec(
            kernel="compress",
            max_size=256,
            min_size=16,
            search=SearchSettings(generations=120, population=8, seed=3),
        )
        direct = run_search(spec.build_evaluator(), spec.configs(), spec.search)
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            job, _ = service.manager.submit(spec)
            deadline = time.time() + 60
            while time.time() < deadline:
                if any(e.get("event") == "front" for e in job.history):
                    break
                time.sleep(0.001)
            else:
                pytest.fail("no front event within 60s")
            service.manager.cancel(job.job_id)
            ended = service.manager.wait(job.job_id, timeout_s=120)
            assert ended is not None
            if ended.state == "cancelled":
                # The partial front was persisted for post-mortems...
                manifest = service.store.load_manifest(job.job_id)
                assert manifest is not None
                assert manifest["search"]["partial"] is True
                assert manifest["search"]["front"]
            # ... and the rows its committed chunks wrote stayed stored.
            stored = service.store.count()
            assert stored > 0
            # A resubmission dispatches only what the store lacks and
            # finishes with the same front a clean run produces.
            evaluated = _evaluated()
            retry, _ = service.manager.submit(spec)
            done = service.manager.wait(retry.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert _evaluated() - evaluated == len(direct.estimates) - stored
            served = service.job_result(done)
            assert [row["config"] for row in served["estimates"]] == [
                [e.config.size, e.config.line_size, e.config.ways, e.config.tiling]
                for e in direct.front
            ]
        finally:
            service.stop()

    def test_search_deadline_expires_while_queued_then_resumes(self, tmp_path):
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        )
        job, _ = service.manager.submit(self.SEARCH, deadline_s=0.005)
        time.sleep(0.02)
        service.start()
        try:
            ended = service.manager.wait(job.job_id, timeout_s=120)
            assert ended is not None and ended.state == "cancelled"
            assert "deadline" in ended.error
            retry, coalesced = service.manager.submit(self.SEARCH)
            assert not coalesced
            done = service.manager.wait(retry.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
        finally:
            service.stop()

    def test_search_result_rebuilt_after_restart(self, tmp_path):
        first = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        job, _ = first.manager.submit(self.SEARCH)
        done = first.manager.wait(job.job_id, timeout_s=120)
        assert done is not None and done.state == "done"
        original = first.job_result(done)
        first.stop()

        second = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool")
        ).start()
        try:
            again = second.manager.get(job.job_id)
            assert again is not None and again.state == "done"
            rebuilt = second.job_result(again)
            assert rebuilt is not None
            assert rebuilt["estimates"] == original["estimates"]
        finally:
            second.stop()

    def test_search_and_sweep_specs_never_coalesce(self, tmp_path):
        manager = JobManager(open_store(str(tmp_path / "r.db")))
        sweep = JobSpec(kernel="compress", max_size=64, min_size=16, tilings=(1,))
        search_job, _ = manager.submit(self.SEARCH)
        sweep_job, coalesced = manager.submit(sweep)
        assert not coalesced
        assert search_job.job_id != sweep_job.job_id

    def test_search_job_total_work_is_budget(self):
        assert self.SEARCH.total_work() == self.SEARCH.search.budget
        assert SMALL.total_work() == len(SMALL.configs())


def _chunks_completed():
    return get_metrics().counter("parallel.chunks_completed").value


def _puts():
    return get_metrics().counter("store.puts").value


class TestStoreInRunner:
    """The runner resolves the store itself and fans out only its misses,
    on one worker pool that lives as long as the runner."""

    #: Two grids that share no configuration.
    COLD_A = JobSpec(kernel="compress", max_size=64, min_size=16, tilings=(1,))
    COLD_B = JobSpec(kernel="compress", max_size=64, min_size=16, tilings=(2,))

    def test_store_answered_job_dispatches_and_journals_nothing(
        self, tmp_path
    ):
        env = LiveServer(tmp_path, sweep_jobs=2)
        try:
            puts = _puts()
            first = env.client.submit(BIG)
            assert env.client.wait(first["job_id"], timeout_s=120)[
                "state"
            ] == "done"
            assert _puts() - puts == len(BIG.configs()), (
                "a cold job stores its rows as its chunks commit"
            )
            puts = _puts()
            chunks = _chunks_completed()
            evaluated = _evaluated()
            again = env.client.submit(BIG)
            assert again["job_id"] != first["job_id"]
            assert env.client.wait(again["job_id"], timeout_s=120)[
                "state"
            ] == "done"
            assert _chunks_completed() == chunks
            assert _evaluated() == evaluated
            assert _puts() == puts
            assert not (tmp_path / "spool").exists()
            doc = env.client.trace(again["job_id"])
            paths = {tuple(event["path"]) for event in doc["events"]}
            assert ("job",) in paths and ("job", "sweep") not in paths
            assert (
                env.client.result(again["job_id"]).estimates
                == env.client.result(first["job_id"]).estimates
            )
        finally:
            env.close()

    def test_store_answered_jobs_never_touch_the_breaker(self, tmp_path):
        service = ExplorationService(
            str(tmp_path / "results.db"),
            str(tmp_path / "spool"),
            breaker_threshold=1,
            breaker_cooldown_s=0.3,
        ).start()
        try:
            job, _ = service.manager.submit(self.COLD_A)
            assert service.manager.wait(job.job_id, timeout_s=120).state == "done"
            breaker = service.runner.breaker_for(self.COLD_A.eval_id())
            assert breaker.record_failure()
            # Served from the store while the breaker is open...
            job, _ = service.manager.submit(self.COLD_A)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert breaker.state == "open"
            # ...and after its cooldown, without taking the one probe.
            time.sleep(0.4)
            job, _ = service.manager.submit(self.COLD_A)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            # So the next cold job against that evaluator is admitted.
            job, _ = service.manager.submit(self.COLD_B)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done", done.error
            assert breaker.state == "closed"
        finally:
            service.stop()

    def test_cold_jobs_share_the_runners_workers(self, tmp_path):
        import multiprocessing
        import os

        env = LiveServer(tmp_path, sweep_jobs=2)
        try:
            workers = set()
            for spec in (self.COLD_A, self.COLD_B):
                chunks = _chunks_completed()
                job = env.client.submit(spec)
                assert env.client.wait(job["job_id"], timeout_s=120)[
                    "state"
                ] == "done"
                assert _chunks_completed() > chunks, "ran on the pool"
                workers |= set(env.client.trace(job["job_id"])["workers"])
            workers.discard(os.getpid())
            assert workers
            # A pool per job would have retired the first job's workers.
            live = {child.pid for child in multiprocessing.active_children()}
            assert workers <= live
        finally:
            env.close()

    def test_killed_workers_are_replaced(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_module
        from repro.engine import FaultInjector

        real_options = jobs_module.ResilienceOptions

        def killing_options(**kwargs):
            return real_options(
                fault_injector=FaultInjector(seed=9, kill_rate=1.0), **kwargs
            )

        direct = self.COLD_A.build_evaluator().sweep(
            configs=self.COLD_A.configs()
        )
        service = ExplorationService(
            str(tmp_path / "results.db"),
            str(tmp_path / "spool"),
            sweep_jobs=2,
            breaker_threshold=1000,
        ).start()
        try:
            monkeypatch.setattr(
                jobs_module, "ResilienceOptions", killing_options
            )
            job, _ = service.manager.submit(self.COLD_A)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert service.job_result(done)["estimates"] == result_to_json(
                direct
            )
            monkeypatch.setattr(jobs_module, "ResilienceOptions", real_options)
            chunks = _chunks_completed()
            job, _ = service.manager.submit(self.COLD_B)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert _chunks_completed() > chunks, "a rebuilt pool ran it"
        finally:
            service.stop()

    def test_stop_leaves_no_worker_processes(self, tmp_path):
        import multiprocessing

        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool"), sweep_jobs=2
        ).start()
        job, _ = service.manager.submit(self.COLD_A)
        done = service.manager.wait(job.job_id, timeout_s=120)
        assert done is not None and done.state == "done"
        assert multiprocessing.active_children(), "the pool outlives its job"
        service.stop()
        assert multiprocessing.active_children() == []

    def test_part_stored_job_resumes_after_kill_and_repair(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "results.db")
        spool = str(tmp_path / "spool")
        configs = BIG.configs()
        clean = result_to_json(BIG.build_evaluator().sweep(configs=configs))

        # Session one stores SMALL (part of BIG's grid), then claims BIG
        # and commits one chunk of its missing rows before a kill -9.
        first = ExplorationService(db, spool).start()
        job, _ = first.manager.submit(SMALL)
        assert first.manager.wait(job.job_id, timeout_s=120).state == "done"
        first.stop()
        first = ExplorationService(db, spool)
        job, _ = first.manager.submit(BIG)
        before = first.store.count()
        assert run_until_killed(first, commits=1).job_id == job.job_id
        stored = first.store.count()
        assert len(SMALL.configs()) == before < stored < len(configs)

        # Offline repair audits the store between the kill and the
        # restart, as CI does; the committed rows are all it needs.
        assert main(["store", "verify", "--repair", "--store", db]) == 0

        evaluated = _evaluated()
        second = ExplorationService(db, spool).start()
        try:
            done = second.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert done.resumed
            assert _evaluated() - evaluated == len(configs) - stored
            assert second.job_result(done)["estimates"] == clean
        finally:
            second.stop()
        assert not os.path.exists(spool)

    def test_parallel_search_reads_the_store_in_the_runner(self, tmp_path):
        spec = TestSearchJobs.SEARCH
        direct = run_search(spec.build_evaluator(), spec.configs(), spec.search)
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool"), sweep_jobs=2
        ).start()
        try:
            chunks = _chunks_completed()
            job, _ = service.manager.submit(spec)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert _chunks_completed() > chunks, "misses fanned out"
            served = service.job_result(done)["estimates"]
            assert served == result_to_json(direct.result)
        finally:
            service.stop()


    def test_search_generations_share_the_runners_pool(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.parallel import WorkerPool

        spec = JobSpec(
            kernel="compress",
            max_size=256,
            min_size=16,
            search=SearchSettings(generations=4, population=8, seed=3),
        )
        service = ExplorationService(
            str(tmp_path / "results.db"), str(tmp_path / "spool"), sweep_jobs=2
        ).start()
        dispatches = []
        built = []
        executor = WorkerPool.executor
        init = WorkerPool.__init__

        def recording_executor(pool):
            dispatches.append((pool, executor(pool)))
            return dispatches[-1][1]

        def recording_init(pool, jobs):
            built.append(jobs)
            init(pool, jobs)

        monkeypatch.setattr(WorkerPool, "executor", recording_executor)
        monkeypatch.setattr(WorkerPool, "__init__", recording_init)
        try:
            job, _ = service.manager.submit(spec)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
        finally:
            service.stop()
        # Several generations fanned out, every one on the runner's one
        # pool and its one executor; no generation built a pool.
        assert len(dispatches) > 1
        assert {id(pool) for pool, _ in dispatches} == {id(service.runner.pool)}
        assert len({id(executor) for _, executor in dispatches}) == 1
        assert built == []

    def test_store_answered_search_leaves_an_open_breaker_alone(
        self, tmp_path
    ):
        spec = TestSearchJobs.SEARCH
        service = ExplorationService(
            str(tmp_path / "results.db"),
            str(tmp_path / "spool"),
            breaker_threshold=1,
            breaker_cooldown_s=60.0,
        ).start()
        try:
            job, _ = service.manager.submit(spec)
            first = service.manager.wait(job.job_id, timeout_s=120)
            assert first is not None and first.state == "done"
            breaker = service.runner.breaker_for(spec.eval_id())
            assert breaker.record_failure()
            failures = breaker._failures
            evaluated = _evaluated()
            job, coalesced = service.manager.submit(spec)
            assert not coalesced
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done", done.error
            assert _evaluated() == evaluated
            assert breaker.state == "open"
            assert breaker._failures == failures
            assert (
                service.job_result(done)["estimates"]
                == service.job_result(first)["estimates"]
            )
        finally:
            service.stop()


class TestStoreIsTheOnlyRecord:
    """A served job's progress lives in the store alone: one write per
    committed chunk, and no file under the spool directory."""

    @staticmethod
    def _recording(service):
        writes = []
        write = service.store.put_many

        def put_many(eval_id, pairs):
            pairs = list(pairs)
            writes.append(sorted(config_key(config) for config, _ in pairs))
            write(eval_id, pairs)

        service.store.put_many = put_many
        return writes

    @pytest.mark.parametrize("sweep_jobs", [1, 2])
    def test_served_sweep_writes_once_per_chunk(self, tmp_path, sweep_jobs):
        spool = tmp_path / "spool"
        configs = BIG.configs()
        direct = BIG.build_evaluator().sweep(configs=configs)
        chunks = ParallelSweep(jobs=sweep_jobs)._chunks(
            BIG.build_evaluator(), configs
        )
        service = ExplorationService(
            str(tmp_path / "results.db"), str(spool), sweep_jobs=sweep_jobs
        )
        writes = self._recording(service)
        service.start()
        try:
            job, _ = service.manager.submit(BIG)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            assert sorted(writes) == sorted(
                sorted(config_key(config) for _, config in chunk)
                for chunk in chunks
            )
            assert len(service.store.get_many(BIG.eval_id(), configs)) == len(
                configs
            )
            assert service.job_result(done)["estimates"] == result_to_json(
                direct
            )
        finally:
            service.stop()
        assert not spool.exists()

    @pytest.mark.parametrize("sweep_jobs", [1, 2])
    def test_failed_chunk_write_fails_the_job(self, tmp_path, sweep_jobs):
        import sqlite3

        service = ExplorationService(
            str(tmp_path / "results.db"), None, sweep_jobs=sweep_jobs
        )
        write = service.store.put_many

        def failing(eval_id, pairs):
            raise sqlite3.OperationalError("disk I/O error")

        service.store.put_many = failing
        service.start()
        try:
            job, _ = service.manager.submit(BIG)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "failed"
            assert "disk I/O error" in done.error
            # The failed sweep left the runner's workers usable.
            service.store.put_many = write
            job, _ = service.manager.submit(BIG)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done", done.error
        finally:
            service.stop()

    @pytest.mark.parametrize("sweep_jobs", [1, 2])
    def test_served_search_writes_each_row_once(self, tmp_path, sweep_jobs):
        spec = TestSearchJobs.SEARCH
        spool = tmp_path / "spool"
        direct = run_search(spec.build_evaluator(), spec.configs(), spec.search)
        service = ExplorationService(
            str(tmp_path / "results.db"), str(spool), sweep_jobs=sweep_jobs
        )
        writes = self._recording(service)
        service.start()
        try:
            job, _ = service.manager.submit(spec)
            done = service.manager.wait(job.job_id, timeout_s=120)
            assert done is not None and done.state == "done"
            written = [key for chunk in writes for key in chunk]
            assert sorted(written) == sorted(
                config_key(e.config) for e in direct.estimates
            )
            served = service.job_result(done)["estimates"]
            assert served == result_to_json(direct.result)
        finally:
            service.stop()
        assert not spool.exists()


@pytest.mark.skipif(
    not __import__("os").path.isdir("/proc"),
    reason="reads the process table from /proc",
)
class TestWorkersDieWithServer:
    @staticmethod
    def _live_in_group(pgid):
        import os

        members = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            state, group = fields[0], int(fields[2])
            if group == pgid and state != "Z":
                members.append(int(entry))
        return members

    def test_kill_9_of_server_leaves_no_descendants(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", "2", "--store", str(tmp_path / "serve.db"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving on "), banner
            client = ServeClient(banner.split()[2], timeout_s=60)
            job = client.submit(BIG)
            assert client.wait(job["job_id"], timeout_s=120)["state"] == "done"
            # Server, fork server and pool workers are all up between jobs.
            assert len(self._live_in_group(server.pid)) >= 4
            server.kill()
            server.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while (
                self._live_in_group(server.pid)
                and time.monotonic() < deadline
            ):
                time.sleep(0.1)
            assert self._live_in_group(server.pid) == []
        finally:
            server.stdout.close()
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
