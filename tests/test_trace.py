"""Job traces (``repro.obs.spans.tracing``) and Prometheus exposition.

Unit-level claims, no server involved:

* spans closing inside a ``tracing()`` context aggregate by path into the
  context's recorder, with wall-clock extents, while leaving the process
  profile alone;
* the worker protocol (``export_context`` -> ``activate`` -> ``snapshot``
  -> ``merge``) is lossless: counts add, extents widen, worker pids union;
* ``build_document`` produces ``repro.trace/1`` with deterministic,
  internally consistent parent/child links;
* the Prometheus text rendering round-trips through the strict parser,
  and the parser actually rejects malformed input;
* log-bucketed histogram percentiles merge exactly across registries
  (bucket counts are additive), which is what makes fleet-wide p95 honest.
"""

import time

import pytest

from repro.obs import spans as obs_spans
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
)
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.obs.report import TRACE_SCHEMA, build_document
from repro.obs.spans import (
    SpanRecorder,
    activate,
    deactivate,
    export_context,
    get_profile,
    span,
    tracing,
)
from repro.serve.top import render as render_top


class TestRecorder:
    def test_record_aggregates_by_path(self):
        recorder = SpanRecorder("t1")
        recorder.record(("sweep", "evaluate"), 1.0, 1.5)
        recorder.record(("sweep", "evaluate"), 2.0, 2.25)
        recorder.record(("sweep",), 0.5, 3.0)
        assert len(recorder) == 2
        events = {tuple(e["path"]): e for e in recorder.snapshot()}
        ev = events[("sweep", "evaluate")]
        assert ev["count"] == 2
        assert ev["total_s"] == pytest.approx(0.75)
        # Extents widen to the earliest start / latest end.
        assert ev["end_s"] - ev["start_s"] == pytest.approx(1.25)

    def test_base_path_prefixes_events(self):
        # A worker activates with the dispatcher's exported path, so its
        # spans continue that path.
        recorder = SpanRecorder("t1")
        token = activate(recorder, trace=True, path=("job", "sweep"))
        try:
            with span("chunk[0]"):
                pass
        finally:
            deactivate(token)
        assert recorder.snapshot()[0]["path"] == ["job", "sweep", "chunk[0]"]
        assert obs_spans.current_path() == ()

    def test_first_attrs_win(self):
        recorder = SpanRecorder("t1")
        recorder.record(("a",), 0.0, 1.0, {"configs": 4})
        recorder.record(("a",), 1.0, 2.0, {"configs": 9})
        assert recorder.snapshot()[0]["attrs"] == {"configs": 4}

    def test_event_cap_counts_drops(self):
        recorder = SpanRecorder("t1")
        for index in range(obs_spans.MAX_EVENTS + 7):
            recorder.add_event((f"s{index}",), 0.0, 0.1)
        assert len(recorder) == obs_spans.MAX_EVENTS
        assert recorder.dropped == 7

    def test_merge_is_lossless(self):
        parent = SpanRecorder("t1")
        parent.record(("sweep",), 0.0, 5.0)
        worker = SpanRecorder("t1")
        worker.record(("sweep", "chunk[0]", "evaluate"), 1.0, 2.0)
        worker.record(("sweep", "chunk[0]", "evaluate"), 2.0, 3.0)
        parent.merge(worker.snapshot())
        events = {tuple(e["path"]): e for e in parent.snapshot()}
        merged = events[("sweep", "chunk[0]", "evaluate")]
        assert merged["count"] == 2
        assert merged["total_s"] == pytest.approx(2.0)
        assert merged["workers"], "worker pid carried through the merge"


class TestContext:
    def test_spans_record_into_active_trace(self):
        spans_before = len(get_profile().snapshot())
        with tracing("abc") as recorder:
            with span("outer"):
                with span("inner"):
                    time.sleep(0.001)
        events = {tuple(e["path"]) for e in recorder.snapshot()}
        assert events == {("outer",), ("outer", "inner")}
        # Tracing alone must not feed the process profile.
        assert len(get_profile().snapshot()) == spans_before

    def test_no_recorder_outside_context(self):
        assert obs_spans.current_trace() is None
        with tracing("abc"):
            assert obs_spans.trace_active()
        assert obs_spans.current_trace() is None

    def test_export_activate_round_trip(self):
        with tracing("abc") as parent:
            with span("job"):
                with span("sweep"):
                    context = export_context()
        assert context == {
            "profile": False,
            "trace_id": "abc",
            "path": ["job", "sweep"],
        }
        remote = SpanRecorder(context["trace_id"])
        token = activate(remote, trace=True, path=context["path"])
        try:
            with span("chunk[0]"):
                pass
        finally:
            deactivate(token)
        parent.merge(remote.snapshot())
        paths = {tuple(e["path"]) for e in parent.snapshot()}
        assert ("job", "sweep", "chunk[0]") in paths

    def test_nothing_recording_exports_none(self):
        # Workers get no context, so they activate nothing.
        assert export_context() is None


class TestDocument:
    def test_parent_links_are_consistent(self):
        recorder = SpanRecorder("t1")
        recorder.record(("job",), 0.0, 10.0)
        recorder.record(("job", "sweep"), 1.0, 8.0)
        recorder.record(("job", "sweep", "chunk[0]"), 2.0, 3.0)
        doc = build_document(recorder, job_id="j-1")
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["job_id"] == "j-1"
        by_path = {tuple(e["path"]): e for e in doc["events"]}
        root = by_path[("job",)]
        assert root["parent_id"] is None
        assert by_path[("job", "sweep")]["parent_id"] == root["span_id"]
        assert (
            by_path[("job", "sweep", "chunk[0]")]["parent_id"]
            == by_path[("job", "sweep")]["span_id"]
        )
        # span ids are deterministic functions of (trace_id, path).
        again = build_document(recorder, job_id="j-1")
        assert [e["span_id"] for e in again["events"]] == [
            e["span_id"] for e in doc["events"]
        ]

    def test_events_sorted_by_start_with_wall_extent(self):
        recorder = SpanRecorder("t1")
        recorder.add_event(("b",), 5.0, 1.0)
        recorder.add_event(("a",), 2.0, 10.0)
        doc = build_document(recorder)
        assert [e["name"] for e in doc["events"]] == ["a", "b"]
        assert doc["started_s"] == 2.0
        assert doc["duration_s"] == pytest.approx(10.0)

    def test_orphan_paths_have_no_parent(self):
        recorder = SpanRecorder("t1")
        recorder.record(("job", "sweep", "chunk[0]"), 0.0, 1.0)
        doc = build_document(recorder)
        (event,) = doc["events"]
        assert event["parent_id"] is None  # ("job","sweep") never recorded


class TestPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("engine.configs_evaluated").inc(42)
        registry.gauge("serve.queue_depth").set(3)
        hist = registry.histogram("serve.http.request")
        for value in (0.001, 0.004, 0.2):
            hist.observe(value)
        return registry

    def test_render_parses_and_validates(self):
        text = render_prometheus(self._registry().snapshot())
        families = parse_prometheus(text)
        assert families["repro_engine_configs_evaluated_total"]["type"] == (
            "counter"
        )
        assert families["repro_serve_queue_depth"]["type"] == "gauge"
        request = families["repro_serve_http_request"]
        assert request["type"] == "histogram"
        # One sample per bound, plus +Inf, _sum and _count.
        assert len(request["samples"]) == len(BUCKET_BOUNDS) + 3

    def test_histogram_buckets_are_cumulative_and_complete(self):
        text = render_prometheus(self._registry().snapshot())
        count = None
        running = None
        for line in text.splitlines():
            if line.startswith("repro_serve_http_request_bucket"):
                value = float(line.rsplit(" ", 1)[1])
                assert running is None or value >= running
                running = value
            if line.startswith("repro_serve_http_request_count"):
                count = float(line.rsplit(" ", 1)[1])
        assert count == 3.0 and running == 3.0

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{le= 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE repro_x sideways\nrepro_x 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("no spaces or value")
        with pytest.raises(ValueError):
            # Histogram whose _count disagrees with its +Inf bucket.
            parse_prometheus(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 1\n'
                'repro_h_bucket{le="+Inf"} 2\n'
                "repro_h_sum 1.0\n"
                "repro_h_count 5\n"
            )

    def test_percentiles_merge_exactly_across_registries(self):
        # Two processes observe disjoint halves; merging their snapshots
        # must give the same percentiles as one process seeing everything.
        samples = [0.0001 * (i + 1) for i in range(200)]
        whole = MetricsRegistry()
        left, right = MetricsRegistry(), MetricsRegistry()
        for index, value in enumerate(samples):
            whole.histogram("h").observe(value)
            (left if index % 2 else right).histogram("h").observe(value)
        merged = MetricsRegistry()
        merged.merge(left.snapshot())
        merged.merge(right.snapshot())
        for q in ("p50", "p95", "p99"):
            assert (
                merged.snapshot()["histograms"]["h"][q]
                == whole.snapshot()["histograms"]["h"][q]
            )

    def test_percentile_within_one_bucket_of_truth(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (0.001, 0.002, 0.003, 0.004, 0.1):
            hist.observe(value)
        summary = registry.snapshot()["histograms"]["h"]
        # p50 of [1,2,3,4,100]ms is 3ms; the bucket ladder may round up
        # to the covering bound but never past the next decade step.
        assert 0.002 <= summary["p50"] <= 0.005
        assert summary["p99"] == pytest.approx(0.1)


class TestTopRender:
    def _sample(self, at, evaluated, jobs=()):
        return {
            "at": at,
            "health": {"status": "ok", "version": "1.0"},
            "report": {
                "metrics": {
                    "counters": {
                        "engine.configs_evaluated": evaluated,
                        "store.hits": 30,
                        "store.misses": 10,
                    },
                    "histograms": {
                        "engine.eval": {
                            "count": 5,
                            "p50": 0.001,
                            "p95": 0.002,
                            "p99": 0.002,
                            "max": 0.003,
                        }
                    },
                }
            },
            "jobs": list(jobs),
        }

    def test_renders_rates_and_percentiles(self):
        job = {
            "job_id": "j-1",
            "state": "running",
            "done_configs": 3,
            "total_configs": 9,
            "spec": {"kernel": "compress"},
        }
        previous = self._sample(100.0, 100)
        sample = self._sample(102.0, 200, jobs=[job])
        screen = render_top(sample, previous)
        assert "50.0 configs/s" in screen
        assert "hit rate: 0.750" in screen
        assert "running=1" in screen
        assert "3/9" in screen
        assert "1.00ms" in screen  # engine.eval p50

    def test_first_sample_has_no_rate(self):
        screen = render_top(self._sample(100.0, 100))
        assert "- configs/s" in screen
        assert "(no jobs yet)" in screen
