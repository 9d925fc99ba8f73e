"""The one-pass (stack-filter) backend and its grouped evaluation path.

The load-bearing claims:

* :func:`repro.cache.stackdist.grid_miss_counts` matches
  :func:`repro.cache.fastsim.fast_miss_vector` *exactly* -- miss counts
  and read-miss counts -- for every (sets, ways) point on randomized
  traces, including non-power-of-two set counts and ways past the
  working-set size (hypothesis property),
  and matches the reference simulator at the direct-mapped and fully
  associative points the layout certificate uses;
* :func:`repro.cache.stackdist.set_local_distances` degenerates to the
  classic fully-associative stack distances at one set (checked against
  the fully-associative reference simulator);
* :class:`~repro.engine.backends.OnePassBackend` measurements equal
  ``fastsim`` measurements field for field, through ``measure`` and
  ``measure_grid`` alike;
* grouped evaluation (``evaluate_batch``, the serial sweep fast path,
  ``ParallelSweep`` chunks) produces sweep tables byte-identical to
  per-config evaluation, including through a resumed result store and
  the serve layer's store-backed evaluator;
* :meth:`EvalCache.miss_many` fills and hits the same entries as
  per-key :meth:`EvalCache.miss` calls, with the same counter semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fastsim import fast_miss_vector
from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.cache.stackdist import (
    COLD,
    GridCounts,
    grid_miss_counts,
    set_local_distances,
)
from repro.cache.trace import MemoryTrace
from repro.core.config import CacheConfig
from repro.engine import (
    EvalCache,
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    TraceWorkload,
    get_backend,
)
from repro.engine.backends import FastSimBackend, OnePassBackend
from repro.kernels import get_kernel
from repro.obs.metrics import get_metrics


@st.composite
def line_traces(draw, max_len=200, max_line=64):
    """Raw line-id streams with a write mask (no address decoding)."""
    n = draw(st.integers(0, max_len))
    lines = draw(st.lists(st.integers(0, max_line), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.asarray(lines, dtype=np.int64), np.asarray(writes, dtype=bool)


@st.composite
def traces(draw, max_len=160):
    n = draw(st.integers(1, max_len))
    addresses = draw(st.lists(st.integers(0, 2047), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return MemoryTrace(addresses, writes)


# The full grid the equivalence property sweeps: every (sets, ways)
# combination, including sets the bit-selection hash cannot produce
# (non-powers of two) and ways past any plausible working set.
GRID_POINTS = [
    (num_sets, ways)
    for num_sets in (1, 2, 3, 4, 5, 8, 16)
    for ways in (1, 2, 3, 4, 8, 13)
]


class TestGridMissCounts:
    @given(data=line_traces())
    @settings(max_examples=120, deadline=None)
    def test_matches_fastsim_everywhere(self, data):
        line_ids, is_write = data
        results = grid_miss_counts(line_ids, is_write, GRID_POINTS)
        assert set(results) == set(GRID_POINTS)
        reads = int((~is_write).sum())
        for (num_sets, ways), counts in results.items():
            miss = fast_miss_vector(line_ids, num_sets, ways)
            assert counts.accesses == line_ids.size
            assert counts.reads == reads
            assert counts.misses == int(miss.sum())
            assert counts.read_misses == int((miss & ~is_write).sum())

    @given(
        data=line_traces(max_line=40),
        lines=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_certificate_points_match_simulator(self, data, lines):
        """The layout certificate's two points: direct-mapped and fully
        associative LRU of one capacity, against the reference simulator."""
        line_ids, is_write = data
        line_size = 4
        direct_mapped, fully_assoc = (lines, 1), (1, lines)
        results = grid_miss_counts(line_ids, is_write, [direct_mapped, fully_assoc])
        trace = MemoryTrace(line_ids * line_size, is_write)
        for (num_sets, ways) in (direct_mapped, fully_assoc):
            geometry = CacheGeometry(lines * line_size, line_size, ways)
            stats = CacheSimulator(geometry).run(trace)
            assert results[(num_sets, ways)].misses == stats.misses
            assert results[(num_sets, ways)].read_misses == stats.read_misses

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.int64)
        results = grid_miss_counts(empty, empty.astype(bool), [(4, 2)])
        assert results[(4, 2)] == GridCounts(0, 0, 0, 0)

    def test_duplicate_points_collapse(self):
        line_ids = np.array([0, 1, 0, 2, 0], dtype=np.int64)
        is_write = np.zeros(5, dtype=bool)
        results = grid_miss_counts(line_ids, is_write, [(2, 2), (2, 2)])
        assert len(results) == 1

    def test_rejects_bad_points_and_shapes(self):
        line_ids = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="positive"):
            grid_miss_counts(line_ids, np.zeros(2, bool), [(0, 1)])
        with pytest.raises(ValueError, match="positive"):
            grid_miss_counts(line_ids, np.zeros(2, bool), [(1, 0)])
        with pytest.raises(ValueError, match="same length"):
            grid_miss_counts(line_ids, np.zeros(3, bool), [(1, 1)])


class TestSetLocalDistances:
    @given(data=line_traces())
    @settings(max_examples=60, deadline=None)
    def test_one_set_is_classic_stack_distance(self, data):
        """At one set, an access hits a ``c``-line fully-associative LRU
        cache iff its distance is warm and at most ``c``."""
        line_ids, _ = data
        distances = set_local_distances(line_ids, 1)
        for capacity in (1, 2, 4, 8, 16, 32, 64):
            simulator = CacheSimulator(CacheGeometry(capacity, 1, capacity))
            miss = [not simulator.access(int(line)) for line in line_ids]
            expected = (distances == COLD) | (distances > capacity)
            assert miss == expected.tolist()

    @given(data=line_traces(), num_sets=st.sampled_from([1, 2, 3, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_distances_price_every_associativity(self, data, num_sets):
        line_ids, _ = data
        distances = set_local_distances(line_ids, num_sets)
        for ways in (1, 2, 4, 8):
            miss = fast_miss_vector(line_ids, num_sets, ways)
            derived = (distances == COLD) | (distances > ways)
            assert np.array_equal(miss, derived)

    def test_known_example(self):
        # C D A B C A, one set: C comes back at depth 4, A at depth 3.
        lines = np.array([2, 3, 0, 1, 2, 0], dtype=np.int64)
        expected = np.array([COLD, COLD, COLD, COLD, 4, 3], dtype=np.int64)
        assert np.array_equal(set_local_distances(lines, 1), expected)


def _grid_configs(line_size=8, ways=(1, 2, 4, 8), sets=(1, 2, 4, 8)):
    return [
        CacheConfig(line_size * w * s, line_size, w)
        for w in ways
        for s in sets
    ]


class TestOnePassBackend:
    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_measure_grid_equals_fastsim(self, trace):
        configs = _grid_configs()
        measured = OnePassBackend().measure_grid(trace, configs)
        fast = FastSimBackend()
        for config in configs:
            assert measured[config] == fast.measure(trace, config)

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_single_measure_equals_fastsim(self, trace):
        config = CacheConfig(64, 8, 2)
        assert OnePassBackend().measure(trace, config) == FastSimBackend(
        ).measure(trace, config)

    def test_grid_rejects_mixed_line_sizes(self):
        trace = MemoryTrace([0, 8, 16])
        with pytest.raises(ValueError, match="line size"):
            OnePassBackend().measure_grid(
                trace, [CacheConfig(64, 8), CacheConfig(64, 4)]
            )

    def test_empty_grid(self):
        assert OnePassBackend().measure_grid(MemoryTrace([0]), []) == {}

    def test_emits_pass_counters(self):
        metrics = get_metrics()
        passes = metrics.counter("onepass.passes").value
        measured = metrics.counter("onepass.configs_measured").value
        OnePassBackend().measure_grid(
            MemoryTrace(range(0, 256, 4)), _grid_configs()
        )
        assert metrics.counter("onepass.passes").value == passes + 1
        assert (
            metrics.counter("onepass.configs_measured").value
            == measured + len(_grid_configs())
        )

    def test_auto_is_the_onepass_backend(self):
        backend = get_backend("auto")
        assert isinstance(backend, OnePassBackend)
        assert backend.name == "onepass"


class TestEvalCacheMissMany:
    def test_builder_sees_only_missing_keys(self):
        cache = EvalCache()
        cache.miss("a", lambda: 1)
        seen = []

        def build(missing):
            seen.extend(missing)
            return {key: ord(key) for key in missing}

        table = cache.miss_many(["a", "b", "c"], build)
        assert table == {"a": 1, "b": ord("b"), "c": ord("c")}
        assert seen == ["b", "c"]

    def test_counters_match_per_key_semantics(self):
        cache = EvalCache()
        cache.miss_many(["x", "y"], lambda keys: {k: k for k in keys})
        stats = cache.stats()
        assert stats.miss_misses == 2 and stats.miss_hits == 0
        cache.miss_many(["x", "y", "z"], lambda keys: {k: k for k in keys})
        stats = cache.stats()
        assert stats.miss_misses == 3 and stats.miss_hits == 2

    def test_all_warm_skips_builder(self):
        cache = EvalCache()
        cache.miss("k", lambda: 7)

        def explode(_):
            raise AssertionError("builder must not run on a warm batch")

        assert cache.miss_many(["k", "k"], explode) == {"k": 7}

    def test_duplicate_keys_are_collapsed(self):
        cache = EvalCache()
        calls = []

        def build(missing):
            calls.append(list(missing))
            return {key: 0 for key in missing}

        cache.miss_many(["d", "d", "d"], build)
        assert calls == [["d"]]

    def test_single_and_batch_share_entries(self):
        cache = EvalCache()
        cache.miss_many(["s"], lambda keys: {k: 5 for k in keys})
        # The single-key path must hit what the batch filled.
        assert cache.miss("s", lambda: pytest.fail("should be warm")) == 5


def _sweep_space(max_size=256):
    return dict(max_size=max_size, min_size=16, ways=(1, 2, 4), tilings=(1,))


class TestGroupedEvaluation:
    """Grouped and per-config evaluation are byte-identical end to end."""

    def test_batch_equals_per_config(self):
        workload = KernelWorkload(get_kernel("compress"))
        grouped = Evaluator(workload, backend="onepass", cache=EvalCache())
        single = Evaluator(workload, backend="onepass", cache=EvalCache())
        configs = _grid_configs(line_size=8, sets=(1, 2, 4))
        assert grouped.evaluate_batch(configs) == [
            single.evaluate(config) for config in configs
        ]

    def test_sweep_equals_fastsim_sweep(self):
        workload = KernelWorkload(get_kernel("compress"))
        fast = Evaluator(workload, backend="fastsim", cache=EvalCache())
        onepass = Evaluator(workload, backend="onepass", cache=EvalCache())
        expected = fast.sweep(**_sweep_space()).estimates
        assert onepass.sweep(**_sweep_space()).estimates == expected

    def test_parallel_sweep_identical(self):
        workload = KernelWorkload(get_kernel("compress"))
        evaluator = Evaluator(workload, backend="onepass", cache=EvalCache())
        serial = evaluator.sweep(**_sweep_space()).estimates
        parallel = evaluator.sweep(jobs=2, **_sweep_space()).estimates
        assert parallel == serial

    def test_batch_fills_cache_for_single_evaluations(self):
        workload = KernelWorkload(get_kernel("compress"))
        cache = EvalCache()
        evaluator = Evaluator(workload, backend="onepass", cache=cache)
        configs = _grid_configs(line_size=8, sets=(1, 2))
        batched = evaluator.evaluate_batch(configs)
        passes = get_metrics().counter("onepass.passes").value
        # Warm single evaluations must be pure cache hits: no new pass.
        for config, expected in zip(configs, batched):
            assert evaluator.evaluate(config) == expected
        assert get_metrics().counter("onepass.passes").value == passes

    def test_non_grid_backend_falls_back(self):
        workload = KernelWorkload(get_kernel("compress"))
        evaluator = Evaluator(workload, backend="fastsim", cache=EvalCache())
        configs = _grid_configs(line_size=8, sets=(1, 2))
        assert evaluator.evaluate_batch(configs) == [
            evaluator.evaluate(config) for config in configs
        ]

    def test_checkpoint_resume_identical(self, tmp_path):
        from repro.serve.store import ResultStore

        workload = KernelWorkload(get_kernel("compress"))
        baseline = Evaluator(
            workload, backend="fastsim", cache=EvalCache()
        ).sweep(**_sweep_space()).estimates
        with ResultStore(str(tmp_path / "sweep.db")) as store:
            first = Evaluator(
                workload, backend="onepass", cache=EvalCache()
            ).sweep(resilience=ResilienceOptions(store=store), **_sweep_space())
            assert first.estimates == baseline
            # A resumed run takes every stored row and must reproduce the
            # table bit for bit without re-measuring anything.
            passes = get_metrics().counter("onepass.passes").value
            resumed = Evaluator(
                workload, backend="onepass", cache=EvalCache()
            ).sweep(resilience=ResilienceOptions(store=store), **_sweep_space())
        assert resumed.estimates == baseline
        assert get_metrics().counter("onepass.passes").value == passes

    def test_store_backed_batch(self, tmp_path):
        from repro.serve.store import ResultStore, evaluator_fingerprint

        workload = KernelWorkload(get_kernel("compress"))
        store = ResultStore(str(tmp_path / "results.db"))
        sweep = ParallelSweep(
            jobs=1, resilience=ResilienceOptions(store=store)
        )
        inner = Evaluator(workload, backend="onepass", cache=EvalCache())
        configs = _grid_configs(line_size=8, sets=(1, 2))
        fresh = sweep.run(inner, configs)
        assert fresh == [
            Evaluator(
                workload, backend="onepass", cache=EvalCache()
            ).evaluate(config)
            for config in configs
        ]
        eval_id = evaluator_fingerprint(inner)
        for config, estimate in zip(configs, fresh):
            assert store.get(eval_id, config) == estimate

        class Exploding(Evaluator):
            def evaluate_batch(self, configs):
                raise AssertionError("store hit must not reach the engine")

        warm = Exploding(workload, backend="onepass", cache=EvalCache())
        assert evaluator_fingerprint(warm) == eval_id
        assert sweep.run(warm, configs) == fresh

    def test_trace_workload_grouping(self):
        rng = np.random.default_rng(11)
        trace = MemoryTrace(rng.integers(0, 4096, size=2000) * 4)
        workload = TraceWorkload(trace)
        fast = Evaluator(workload, backend="fastsim", cache=EvalCache())
        onepass = Evaluator(workload, backend="onepass", cache=EvalCache())
        configs = _grid_configs(line_size=8) + _grid_configs(line_size=16)
        assert onepass.evaluate_batch(configs) == [
            fast.evaluate(config) for config in configs
        ]
