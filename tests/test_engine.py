"""The evaluation engine: workloads, backends, memoisation, parallelism.

The load-bearing claims:

* every vector backend agrees with the reference simulator *bit for bit*
  on arbitrary traces and geometries (hypothesis property);
* the process-wide :class:`EvalCache` is bounded, thread-safe, and
  actually hit by the sweep pipeline;
* ``sweep(jobs=N)`` returns results identical to the serial sweep, in the
  same order (the ISSUE's hard determinism requirement);
* the legacy explorer surfaces are thin shims over one shared pipeline.
"""

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.trace import MemoryTrace
from repro.core.analytic import AnalyticExplorer
from repro.core.config import CacheConfig, design_space
from repro.core.explorer import MemExplorer, evaluate_trace
from repro.engine import (
    EvalCache,
    Evaluator,
    InstructionWorkload,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    TraceWorkload,
    available_backends,
    cached_miss_vector,
    configure_eval_cache,
    get_backend,
    get_eval_cache,
    order_configs,
    trace_fingerprint,
)
from repro.engine.backends import (
    AnalyticBackend,
    FastSimBackend,
    OnePassBackend,
    ReferenceBackend,
    SampledBackend,
)
from repro.engine.parallel import _pool_context
from repro.icache.blocks import ControlFlowTrace, Program
from repro.kernels import Kernel, get_kernel


def _loop_execution() -> ControlFlowTrace:
    program = Program.sequential([("prologue", 8), ("body", 16)])
    return ControlFlowTrace.loop(
        program, body=["body"], iterations=20, prologue=["prologue"]
    )


GEOMETRIES = [
    CacheConfig(32, 4, 1),
    CacheConfig(64, 4, 2),
    CacheConfig(64, 8, 1),
    CacheConfig(128, 8, 4),
    CacheConfig(128, 16, 2),
    CacheConfig(256, 16, 8),
]


@st.composite
def traces(draw):
    n = draw(st.integers(1, 200))
    addresses = draw(
        st.lists(st.integers(0, 2047), min_size=n, max_size=n)
    )
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return MemoryTrace(addresses, writes)


class TestBackendRegistry:
    def test_names(self):
        assert available_backends() == (
            "analytic", "auto", "fastsim", "onepass", "reference", "sampled"
        )

    def test_get_by_name(self):
        assert isinstance(get_backend("fastsim"), FastSimBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("sampled"), SampledBackend)
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        assert isinstance(get_backend("onepass"), OnePassBackend)
        # "auto" resolves to the concrete one-pass backend at creation,
        # so fingerprints and store rows always see the name "onepass".
        auto = get_backend("auto")
        assert isinstance(auto, OnePassBackend)
        assert auto.name == "onepass"

    def test_default_and_passthrough(self):
        assert isinstance(get_backend(None), FastSimBackend)
        instance = SampledBackend(sample_every=2)
        assert get_backend(instance) is instance

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("dinero")

    def test_backend_kwargs(self):
        backend = get_backend("sampled", sample_every=8, offset=3)
        assert backend.params == (8, 3)

    def test_analytic_rejects_raw_traces(self):
        trace = MemoryTrace([0, 4, 8])
        with pytest.raises(ValueError, match="loop nest"):
            AnalyticBackend().measure(trace, CacheConfig(64, 8))


class TestCrossBackendEquivalence:
    """fastsim and the reference simulator must agree bit for bit."""

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=80, deadline=None)
    def test_miss_vectors_identical(self, trace, config):
        fast = FastSimBackend().miss_vector(trace, config)
        reference = ReferenceBackend().miss_vector(trace, config)
        assert np.array_equal(fast, reference)

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    def test_measurements_identical(self, trace, config):
        fast = FastSimBackend().measure(trace, config)
        reference = ReferenceBackend().measure(trace, config)
        assert fast == reference
        assert fast.exact and fast.misses is not None

    @given(trace=traces(), config=st.sampled_from(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    def test_stride_one_sampling_is_exact(self, trace, config):
        exact = FastSimBackend().measure(trace, config)
        sampled = SampledBackend(sample_every=1).measure(trace, config)
        assert sampled.exact
        assert sampled.miss_rate == pytest.approx(exact.miss_rate)

    def test_sampled_estimate_is_bounded(self):
        trace = MemoryTrace(np.arange(0, 4096, 4))
        config = CacheConfig(256, 16, 1)
        estimate = SampledBackend(sample_every=4).measure(trace, config)
        assert 0.0 <= estimate.miss_rate <= 1.0
        assert not estimate.exact and estimate.misses is None


class TestEvalCache:
    def test_get_or_compute_runs_builder_once(self):
        cache = EvalCache()
        calls = []
        for _ in range(3):
            value = cache.miss("k", lambda: calls.append(1) or 42)
        assert value == 42 and len(calls) == 1
        stats = cache.stats()
        assert stats.miss_misses == 1 and stats.miss_hits == 2
        assert stats.miss_hit_rate == pytest.approx(2 / 3)

    def test_trace_store_is_bounded(self):
        cache = EvalCache(max_traces=2)
        for key in ("a", "b", "c"):
            cache.trace(key, lambda k=key: k.upper())
        assert cache.trace_entries == 2
        # "a" was evicted: rebuilding it is a miss, not a hit.
        before = cache.stats().trace_misses
        cache.trace("a", lambda: "A")
        assert cache.stats().trace_misses == before + 1

    def test_clear_resets_entries_and_counters(self):
        cache = EvalCache()
        cache.miss("k", lambda: 1)
        cache.clear()
        assert cache.miss_entries == 0
        stats = cache.stats()
        assert (stats.miss_hits, stats.miss_misses) == (0, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalCache(max_traces=0)

    def test_configure_replaces_global(self):
        original = get_eval_cache()
        try:
            replaced = configure_eval_cache(max_traces=8, max_miss_entries=16)
            assert get_eval_cache() is replaced
            assert replaced is not original
        finally:
            configure_eval_cache()

    def test_sweep_hits_the_cache(self):
        cache = EvalCache()
        workload = KernelWorkload(get_kernel("compress"))
        generated = []
        trace_for = workload.trace_for
        workload.trace_for = lambda config, store: (
            generated.append(workload.trace_key(config))
            or trace_for(config, store)
        )
        evaluator = Evaluator(workload, cache=cache)
        configs = list(
            design_space(max_size=64, min_size=32, ways=(1, 2), tilings=(1,))
        )
        evaluator.sweep(configs)
        # The associativity sweep shares each (T, L, B) trace: every
        # distinct trace key is generated exactly once.
        assert sorted(generated) == sorted(
            {workload.trace_key(config) for config in configs}
        )
        first = cache.stats()
        # A repeated sweep is served entirely from the cache.
        evaluator.sweep(configs)
        again = cache.stats()
        assert len(generated) == first.trace_misses
        assert again.trace_misses == first.trace_misses
        assert again.miss_misses == first.miss_misses
        assert again.miss_hits > first.miss_hits

    def test_cached_miss_vector_memoises(self):
        cache = EvalCache()
        trace = MemoryTrace([0, 8, 16, 0, 8, 16])
        first = cached_miss_vector(trace, 8, 4, 1, cache=cache)
        second = cached_miss_vector(trace, 8, 4, 1, cache=cache)
        assert first is second
        assert cache.stats().miss_hits == 1


class TestWorkloads:
    def test_kernel_workloads_share_keys(self):
        a = KernelWorkload(get_kernel("compress"))
        b = KernelWorkload(get_kernel("compress"))
        config = CacheConfig(64, 8)
        assert a.trace_key(config) == b.trace_key(config)
        assert a.trace_key(config) != KernelWorkload(
            get_kernel("compress"), optimize_layout=False
        ).trace_key(config)

    def test_dense_layout_trace_key_is_the_tiling(self):
        workload = KernelWorkload(get_kernel("compress"), optimize_layout=False)
        keys = {
            workload.trace_key(CacheConfig(size, line, 1, tiling))
            for size in (32, 64)
            for line in (4, 8)
            for tiling in (1, 2)
        }
        assert keys == {(workload.key, 1), (workload.key, 2)}

    def test_kernel_trace_key_ignores_ways(self):
        workload = KernelWorkload(get_kernel("compress"))
        assert workload.trace_key(CacheConfig(64, 8, 1)) == workload.trace_key(
            CacheConfig(64, 8, 2)
        )

    def test_instruction_workload_rejects_tiling(self):
        workload = InstructionWorkload(_loop_execution())
        with pytest.raises(ValueError, match="tiling"):
            workload.validate(CacheConfig(64, 8, 1, 2))

    def test_trace_workload_is_content_addressed(self):
        t1 = MemoryTrace([0, 4, 8])
        t2 = MemoryTrace([0, 4, 8])
        t3 = MemoryTrace([0, 4, 12])
        assert TraceWorkload(t1).key == TraceWorkload(t2).key
        assert TraceWorkload(t1).key != TraceWorkload(t3).key
        assert trace_fingerprint(t1) != trace_fingerprint(t3)

    def test_fingerprint_sees_write_flags(self):
        reads = MemoryTrace([0, 4], [False, False])
        writes = MemoryTrace([0, 4], [False, True])
        assert trace_fingerprint(reads) != trace_fingerprint(writes)


class TestTraceGenerationCounts:
    """Cold sweeps do each piece of trace generation once per what it
    depends on: the layout per (T, L), a dense-layout trace per B."""

    @staticmethod
    def _record_calls(monkeypatch, method):
        calls = []
        original = getattr(Kernel, method)

        def recording(self, *args, **kwargs):
            calls.append((args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, method, recording)
        return calls

    def test_layout_once_per_geometry(self, monkeypatch):
        calls = self._record_calls(monkeypatch, "optimized_layout")
        configs = list(
            design_space(max_size=64, min_size=16, ways=(1, 2), tilings=(1, 2, 4))
        )
        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), backend="auto", cache=EvalCache()
        )
        evaluator.sweep(configs)
        geometries = sorted({(c.size, c.line_size) for c in configs})
        assert sorted(args for args, _ in calls) == geometries
        assert len({c.tiling for c in configs}) == 3

    def test_dense_layout_trace_once_per_tiling(self, monkeypatch):
        calls = self._record_calls(monkeypatch, "trace")
        configs = list(
            design_space(max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2, 4))
        )
        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress"), optimize_layout=False),
            backend="auto",
            cache=EvalCache(),
        )
        evaluator.sweep(configs)
        tiles = sorted(kwargs["tile"] for _, kwargs in calls)
        assert tiles == sorted({c.tiling for c in configs}) == [1, 2, 4]

    def test_dense_layout_multi_size_sweep_identical(self, tmp_path):
        """One dense-layout trace serves every cache size, so grouped
        evaluation spans sizes; serial, jobs=2 and a resumed sweep agree."""
        workload = KernelWorkload(get_kernel("compress"), optimize_layout=False)
        space = dict(max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2))

        def sweep(**kwargs):
            evaluator = Evaluator(workload, backend="auto", cache=EvalCache())
            return evaluator.sweep(**space, **kwargs).estimates

        serial = sweep()
        assert len({e.config.size for e in serial}) == 4
        per_config = Evaluator(workload, backend="fastsim", cache=EvalCache())
        assert serial == [per_config.evaluate(e.config) for e in serial]
        assert sweep(jobs=2) == serial
        journal = tmp_path / "sweep.ckpt"
        assert sweep(resilience=ResilienceOptions(checkpoint=str(journal))) == serial
        lines = journal.read_text().splitlines()
        assert len(lines) > 3  # header + several chunks
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed = sweep(
            jobs=2, resilience=ResilienceOptions(checkpoint=str(journal), resume=True)
        )
        assert resumed == serial


class TestEvaluator:
    def test_matches_legacy_explorer(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        explorer = MemExplorer(kernel)
        for config in (
            CacheConfig(32, 4), CacheConfig(64, 8, 2), CacheConfig(128, 8, 1, 2)
        ):
            assert evaluator.evaluate(config) == explorer.evaluate(config)

    def test_trace_workload_matches_evaluate_trace(self):
        kernel = get_kernel("compress")
        trace = kernel.trace(layout=kernel.default_layout())
        config = CacheConfig(64, 8)
        evaluator = Evaluator(
            TraceWorkload(trace, events=kernel.nest.iterations),
            cache=EvalCache(),
        )
        direct = evaluate_trace(trace, config, events=kernel.nest.iterations)
        assert evaluator.evaluate(config) == direct

    def test_analytic_backend_routes_to_closed_form(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), backend="analytic")
        config = CacheConfig(64, 8)
        expected = AnalyticExplorer(kernel).evaluate(config)
        assert evaluator.evaluate(config) == expected

    def test_analytic_backend_needs_a_kernel(self):
        workload = TraceWorkload(MemoryTrace([0, 4, 8]))
        evaluator = Evaluator(workload, backend="analytic")
        with pytest.raises(ValueError, match="kernel"):
            evaluator.evaluate(CacheConfig(64, 8))

    def test_reference_backend_agrees_on_a_kernel(self):
        kernel = get_kernel("matadd")
        config = CacheConfig(64, 8, 2)
        fast = Evaluator(
            KernelWorkload(kernel), backend="fastsim", cache=EvalCache()
        ).evaluate(config)
        slow = Evaluator(
            KernelWorkload(kernel), backend="reference", cache=EvalCache()
        ).evaluate(config)
        assert fast == slow

    def test_pickle_drops_local_cache(self):
        import pickle

        evaluator = Evaluator(
            KernelWorkload(get_kernel("compress")), cache=EvalCache()
        )
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone._cache is None  # rebinds to the worker's global cache
        config = CacheConfig(64, 8)
        assert clone.evaluate(config) == evaluator.evaluate(config)

    def test_explorer_exposes_engine_evaluator(self):
        explorer = MemExplorer(get_kernel("compress"), backend="sampled")
        assert isinstance(explorer.evaluator, Evaluator)
        assert explorer.backend.name == "sampled"


class TestParallelSweep:
    def test_parallel_identical_to_serial(self):
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        serial = evaluator.sweep(
            max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2)
        )
        parallel = evaluator.sweep(
            max_size=128, min_size=16, ways=(1, 2), tilings=(1, 2), jobs=2
        )
        assert list(parallel) == list(serial)

    def test_explorer_jobs_identical_to_serial(self):
        explorer = MemExplorer(get_kernel("matadd"))
        serial = explorer.explore(max_size=64, min_size=32, tilings=(1,))
        parallel = explorer.explore(
            max_size=64, min_size=32, tilings=(1,), jobs=2
        )
        assert list(parallel) == list(serial)

    def test_chunks_respect_trace_groups(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = order_configs(
            CacheConfig(size, line, ways)
            for size in (32, 64)
            for line in (4, 8)
            for ways in (1, 2)
        )
        sweep = ParallelSweep(jobs=2)
        chunks = sweep._chunks(evaluator, configs)
        seen = {}
        for chunk_index, chunk in enumerate(chunks):
            for _, config in chunk:
                key = evaluator.workload.trace_key(config)
                assert seen.setdefault(key, chunk_index) == chunk_index
        assert [c for chunk in chunks for _, c in chunk] == configs

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="platform has no fork server",
    )
    def test_threaded_caller_uses_fork_server(self):
        # A process running other threads must not fork its workers.
        kernel = get_kernel("compress")
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        space = dict(max_size=64, min_size=16, ways=(1, 2), tilings=(1,))
        serial = evaluator.sweep(**space)
        seen = {}

        def sweep_in_thread():
            seen["context"] = _pool_context()
            seen["estimates"] = Evaluator(
                KernelWorkload(kernel), cache=EvalCache()
            ).sweep(jobs=2, **space)

        thread = threading.Thread(target=sweep_in_thread)
        thread.start()
        thread.join(timeout=120)
        assert seen["context"].get_start_method() == "forkserver"
        assert list(seen["estimates"]) == list(serial)

    def test_jobs_one_is_serial(self):
        evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
        configs = [CacheConfig(32, 4), CacheConfig(64, 4)]
        estimates = ParallelSweep(jobs=1).run(evaluator, configs)
        assert [e.config for e in estimates] == configs


class TestCliFlags:
    def test_backend_and_jobs_accepted(self, capsys):
        from repro.cli import main

        main([
            "explore", "compress", "--max-size", "32", "--min-size", "32",
            "--tilings", "1", "--backend", "reference", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert "C32L4S1B1" in out

    def test_unknown_backend_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "x", "--backend", "dinero"])
