"""The observability layer: spans, metrics, cache stats, report, CLI."""

import json
import logging
import threading

import pytest

from repro import obs
from repro.core.config import CacheConfig
from repro.engine.cache import EvalCache, get_eval_cache
from repro.engine.evaluator import Evaluator
from repro.engine.workload import KernelWorkload
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector, span


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Each test starts and ends with profiling off and clean aggregates."""
    was_enabled = obs.profiling_enabled()
    yield
    if obs.profiling_enabled() and not was_enabled:
        obs.disable_profiling()
    obs.get_collector().clear()


class TestSpans:
    def test_disabled_by_default_records_nothing(self):
        assert not obs.profiling_enabled()
        with obs.collecting() as collector:
            obs.disable_profiling()  # collecting() enables; force off
            with span("trace_gen"):
                pass
        assert collector.snapshot() == []

    def test_null_span_is_shared(self):
        assert span("a") is span("b")  # one flag check, no allocation

    def test_nesting_paths(self):
        with obs.collecting() as collector:
            with span("sweep"):
                with span("evaluate"):
                    with span("trace_gen"):
                        pass
                    with span("trace_gen"):
                        pass
        paths = {tuple(r["path"]): r["count"] for r in collector.snapshot()}
        assert paths[("sweep",)] == 1
        assert paths[("sweep", "evaluate")] == 1
        assert paths[("sweep", "evaluate", "trace_gen")] == 2

    def test_by_stage_aggregates_across_parents(self):
        collector = SpanCollector()
        collector.record(("sweep", "evaluate", "trace_gen"), 0.25)
        collector.record(("trace_gen",), 0.75)
        stages = collector.by_stage()
        assert stages["trace_gen"]["calls"] == 2
        assert stages["trace_gen"]["total_s"] == pytest.approx(1.0)
        assert stages["trace_gen"]["mean_s"] == pytest.approx(0.5)

    def test_merge_adds_counts_and_totals(self):
        left, right = SpanCollector(), SpanCollector()
        left.record(("evaluate",), 1.0)
        right.record(("evaluate",), 2.0)
        right.record(("miss_measure",), 0.5)
        left.merge(right.snapshot())
        stages = left.by_stage()
        assert stages["evaluate"]["calls"] == 2
        assert stages["evaluate"]["total_s"] == pytest.approx(3.0)
        assert stages["miss_measure"]["calls"] == 1

    def test_snapshot_is_json_compatible(self):
        collector = SpanCollector()
        collector.record(("sweep", "evaluate"), 0.125)
        round_tripped = json.loads(json.dumps(collector.snapshot()))
        fresh = SpanCollector()
        fresh.merge(round_tripped)
        assert fresh.by_stage() == collector.by_stage()

    def test_exception_still_recorded_and_stack_popped(self):
        with obs.collecting() as collector:
            with pytest.raises(ValueError):
                with span("evaluate"):
                    raise ValueError("boom")
            with span("evaluate"):
                pass
        paths = {tuple(r["path"]): r["count"] for r in collector.snapshot()}
        assert paths == {("evaluate",): 2}  # not nested under the failed one


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_diff_then_merge_reconstructs_activity(self):
        worker = MetricsRegistry()
        worker.counter("configs").inc(7)  # fork-inherited "parent" count
        base = worker.snapshot()
        worker.counter("configs").inc(3)
        worker.histogram("t").observe(0.5)
        delta = worker.diff(base)
        assert delta["counters"] == {"configs": 3}

        parent = MetricsRegistry()
        parent.counter("configs").inc(7)
        parent.merge(delta)
        assert parent.counter("configs").value == 10
        assert parent.histogram("t").count == 1

    def test_clear_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.clear()
        assert counter.value == 0
        assert registry.counter("c") is counter  # identity preserved

    def test_counter_thread_safety(self):
        counter = MetricsRegistry().counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestEvalCacheStats:
    def test_evictions_counted(self):
        cache = EvalCache(max_traces=2, max_miss_entries=2)
        for key in range(4):
            cache.trace(key, lambda: object())
        stats = cache.stats()
        assert stats.trace_misses == 4
        assert stats.trace_evictions == 2
        assert cache.trace_entries == 2

    def test_snapshot_fields(self):
        cache = EvalCache()
        cache.miss("k", lambda: 1)
        cache.miss("k", lambda: 1)
        snap = cache.snapshot()
        assert snap["miss"]["hits"] == 1
        assert snap["miss"]["misses"] == 1
        assert snap["miss"]["entries"] == 1
        assert snap["miss"]["hit_rate"] == pytest.approx(0.5)
        json.dumps(snap)  # machine-readable

    def test_merge_remote_reflected_in_stats(self):
        cache = EvalCache()
        cache.trace("k", lambda: 1)
        cache.merge_remote(
            {
                "trace": {"hits": 5, "misses": 2, "evictions": 1},
                "miss": {"hits": 3, "misses": 4, "evictions": 0},
            }
        )
        stats = cache.stats()
        assert stats.trace_hits == 5
        assert stats.trace_misses == 3  # 1 local + 2 remote
        assert stats.trace_evictions == 1
        assert stats.miss_hits == 3
        assert stats.miss_misses == 4
        # counters() stays local-only: it is the worker baseline primitive.
        assert cache.counters()["trace"]["hits"] == 0

    def test_clear_zeroes_remote(self):
        cache = EvalCache()
        cache.merge_remote({"trace": {"hits": 5}, "miss": {}})
        cache.clear()
        assert cache.stats().trace_hits == 0

    def test_snapshot_concurrent_with_merges(self):
        cache = EvalCache()
        stop = threading.Event()

        def merger():
            while not stop.is_set():
                cache.merge_remote(
                    {"trace": {"hits": 1}, "miss": {"misses": 1}}
                )

        thread = threading.Thread(target=merger)
        thread.start()
        try:
            for _ in range(200):
                snap = cache.snapshot()
                assert snap["trace"]["hits"] >= 0
        finally:
            stop.set()
            thread.join()


class TestEvaluatorInstrumentation:
    STAGES = (
        "evaluate_batch",
        "trace_gen",
        "miss_measure",
        "add_bs",
        "cycles",
        "energy",
    )

    def test_profiled_evaluate_produces_stage_spans(self, compress_small):
        evaluator = Evaluator(KernelWorkload(compress_small), cache=EvalCache())
        with obs.collecting() as collector:
            evaluator.evaluate(CacheConfig(64, 8))
        stages = collector.by_stage()
        for stage in self.STAGES:
            assert stages[stage]["calls"] == 1, stage
            assert stages[stage]["total_s"] >= 0.0

    def test_configs_evaluated_counter(self, compress_small):
        evaluator = Evaluator(KernelWorkload(compress_small))
        base = obs.get_metrics().snapshot()
        evaluator.evaluate(CacheConfig(64, 8))
        evaluator.evaluate(CacheConfig(64, 8, 2))
        delta = obs.get_metrics().diff(base)
        assert delta["counters"]["engine.configs_evaluated"] == 2

    def test_backend_address_counter(self, compress_small):
        # A private cache guarantees the backend actually runs (the global
        # cache may hold this kernel's vectors from other tests).
        evaluator = Evaluator(KernelWorkload(compress_small), cache=EvalCache())
        base = obs.get_metrics().snapshot()
        evaluator.evaluate(CacheConfig(128, 16))
        delta = obs.get_metrics().diff(base)
        simulated = delta["counters"]["backend.fastsim.addresses_simulated"]
        assert simulated == len(evaluator._bundle_for(CacheConfig(128, 16)).trace)


class TestParallelMergeBack:
    def _configs(self):
        return [
            CacheConfig(size, line, ways)
            for size in (32, 64, 128)
            for line in (4, 8)
            for ways in (1, 2)
        ]

    def test_worker_spans_and_metrics_merge(self, compress_small):
        evaluator = Evaluator(KernelWorkload(compress_small), cache=EvalCache())
        configs = self._configs()
        base = obs.get_metrics().snapshot()
        cache_base = evaluator.cache.stats()
        with obs.collecting() as collector:
            result = evaluator.sweep(configs=configs, jobs=4)
        assert len(result) == len(configs)

        # Every worker-side evaluation landed in the parent collector:
        # one batch (and one trace) per (T, L, B) group of the grid.
        groups = {(c.size, c.line_size, c.tiling) for c in configs}
        stages = collector.by_stage()
        assert stages["evaluate_batch"]["calls"] == len(groups)
        assert stages["trace_gen"]["calls"] == len(groups)
        assert stages["sweep"]["calls"] == 1

        delta = obs.get_metrics().diff(base)
        assert delta["counters"]["engine.configs_evaluated"] == len(configs)
        assert delta["counters"]["parallel.chunks_completed"] >= 2

        # EvalCache stats account for worker activity (parent stores are
        # untouched by forked children, so only merged deltas explain this).
        cache_stats = evaluator.cache.stats()
        requests = (
            cache_stats.trace_hits
            + cache_stats.trace_misses
            - cache_base.trace_hits
            - cache_base.trace_misses
        )
        assert requests == len(groups)

    def test_parallel_matches_serial(self, compress_small):
        configs = self._configs()
        serial = Evaluator(KernelWorkload(compress_small)).sweep(configs=configs)
        with obs.collecting():
            parallel = Evaluator(KernelWorkload(compress_small)).sweep(
                configs=configs, jobs=4
            )
        for a, b in zip(serial.estimates, parallel.estimates):
            assert a.config == b.config
            assert a.energy_nj == b.energy_nj
            assert a.cycles == b.cycles

    def test_serial_fallback_warns(self, compress_small, caplog, monkeypatch):
        import concurrent.futures

        class _Broken:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _Broken
        )
        evaluator = Evaluator(KernelWorkload(compress_small))
        configs = self._configs()
        base = obs.get_metrics().snapshot()
        with caplog.at_level(logging.WARNING, logger="repro.engine.parallel"):
            result = evaluator.sweep(configs=configs, jobs=4)
        assert len(result) == len(configs)  # serial recomputation succeeded
        assert any(
            "fell back to serial" in record.getMessage()
            and record.levelno == logging.WARNING
            for record in caplog.records
        )
        delta = obs.get_metrics().diff(base)
        assert delta["counters"]["parallel.serial_fallbacks"] == 1
        assert "parallel.chunks_completed" not in delta["counters"]


class TestReport:
    def test_schema_and_sections(self):
        collector = SpanCollector()
        collector.record(("sweep", "evaluate"), 0.5)
        cache = EvalCache()
        cache.trace("k", lambda: 1)
        report = obs.build_report(
            collector=collector, cache=cache.snapshot()
        )
        assert report["schema"] == obs.SCHEMA == "repro.obs/1"
        assert report["stages"]["evaluate"]["calls"] == 1
        assert report["cache"]["trace"]["misses"] == 1
        assert set(report) == {"schema", "spans", "stages", "metrics", "cache"}

    def test_write_report_round_trip(self, tmp_path):
        collector = SpanCollector()
        collector.record(("evaluate",), 0.25)
        report = obs.build_report(collector=collector)
        path = tmp_path / "metrics.json"
        obs.write_report(str(path), report)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.obs/1"
        assert loaded["stages"]["evaluate"]["total_s"] == pytest.approx(0.25)

    def test_render_stage_table(self):
        collector = SpanCollector()
        for stage in ("sweep", "evaluate", "trace_gen", "miss_measure"):
            collector.record((stage,), 0.01)
        cache = EvalCache()
        cache.miss("k", lambda: 1)
        table = obs.render_stage_table(
            obs.build_report(collector=collector, cache=cache.snapshot())
        )
        for needle in ("trace_gen", "miss_measure", "EvalCache", "hit rate"):
            assert needle in table
        # Stages render in pipeline order, not alphabetically.
        assert table.index("sweep") < table.index("trace_gen")

    def test_render_without_spans_hints_at_profile(self):
        table = obs.render_stage_table(
            obs.build_report(collector=SpanCollector())
        )
        assert "--profile" in table


class TestJsonLogging:
    def test_json_formatter_includes_extras(self):
        formatter = obs.JsonFormatter()
        record = logging.LogRecord(
            "repro.engine", logging.INFO, __file__, 1, "swept %d", (7,), None
        )
        record.kernel = "compress"
        payload = json.loads(formatter.format(record))
        assert payload["message"] == "swept 7"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.engine"
        assert payload["kernel"] == "compress"
        assert "ts" in payload

    def test_configure_logging_idempotent(self):
        logger = obs.configure_logging("info")
        obs.configure_logging("warning", json_format=True)
        ours = [
            h for h in logger.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(ours) == 1
        assert isinstance(ours[0].formatter, obs.JsonFormatter)
        for handler in ours:
            logger.removeHandler(handler)


class TestCli:
    def test_explore_profile_and_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "m.json"
        code = main([
            "explore", "matmul", "--max-size", "32", "--min-size", "16",
            "--tilings", "1", "--profile", "--metrics-out", str(out_file),
            "--jobs", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for stage in ("trace_gen", "miss_measure", "cycles", "energy"):
            assert stage in out
        assert "EvalCache" in out

        report = json.loads(out_file.read_text())
        assert report["schema"] == "repro.obs/1"
        evaluated = report["metrics"]["counters"]["engine.configs_evaluated"]
        assert evaluated > 0
        # The default (grid-capable) backend evaluates whole groups under
        # one "evaluate_batch" span; per-config backends keep "evaluate".
        stages = report["stages"]
        if "evaluate_batch" in stages:
            assert 0 < stages["evaluate_batch"]["calls"] <= evaluated
        else:
            assert stages["evaluate"]["calls"] == evaluated
        assert report["cache"]["trace"]["misses"] >= 1

    def test_metrics_out_without_profile_has_no_spans(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "m.json"
        main([
            "explore", "compress", "--max-size", "32", "--min-size", "32",
            "--tilings", "1", "--metrics-out", str(out_file),
        ])
        report = json.loads(out_file.read_text())
        assert report["spans"] == []
        assert report["metrics"]["counters"]["engine.configs_evaluated"] > 0
        capsys.readouterr()

    def test_stats_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "stats", "compress", "--max-size", "64", "--min-size", "16",
            "--tilings", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-stage timing" in out
        for stage in ("trace_gen", "miss_measure", "cycles", "energy"):
            assert stage in out
        assert "EvalCache" in out
        assert not obs.profiling_enabled()  # stats restored the flag

    def test_log_level_flag(self, capsys):
        from repro.cli import main

        main([
            "explore", "compress", "--max-size", "32", "--min-size", "32",
            "--tilings", "1", "--log-level", "info",
        ])
        capsys.readouterr()
        logger = logging.getLogger("repro")
        assert logger.level == logging.INFO
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
