"""Performance benchmark: simulator throughput.

The only bench that times an *implementation* rather than regenerating a
figure: the vectorized sweep fast path versus the reference object
simulator on the Matrix Multiplication trace (the largest bundled
workload).  The fast path is what makes full MemExplore sweeps interactive;
this bench quantifies (and guards) that speedup.
"""

import numpy as np

from repro.cache.fastsim import fast_miss_vector
from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.kernels import make_matmul


def _trace():
    return make_matmul(n=15).trace()  # ~13.5k accesses


def _hit_miss_counts(line_ids, num_sets, ways):
    misses = int(fast_miss_vector(line_ids, num_sets, ways).sum())
    return line_ids.size - misses, misses


def test_perf_fast_path_direct_mapped(benchmark):
    trace = _trace()
    line_ids = trace.line_ids(8)

    def run():
        return _hit_miss_counts(line_ids, 8, 1)

    hits, misses = benchmark(run)
    assert hits + misses == len(trace)


def test_perf_fast_path_associative(benchmark):
    trace = _trace()
    line_ids = trace.line_ids(8)

    def run():
        return _hit_miss_counts(line_ids, 2, 4)

    hits, misses = benchmark(run)
    assert hits + misses == len(trace)


def test_perf_reference_simulator(benchmark):
    trace = _trace()

    def run():
        sim = CacheSimulator(CacheGeometry(64, 8, 1))
        return sim.run(trace).misses

    misses = benchmark(run)
    # The two paths agree (also asserted exhaustively in tests/).
    line_ids = trace.line_ids(8)
    assert misses == fast_miss_vector(line_ids, 8, 1).sum()


def test_perf_trace_generation(benchmark):
    kernel = make_matmul(n=15)

    def run():
        return kernel.trace()

    trace = benchmark(run)
    assert len(trace) == kernel.accesses_per_invocation


def test_perf_fast_path_beats_reference(benchmark, report):
    """One explicit throughput comparison, recorded to results/."""
    import time

    trace = _trace()
    line_ids = trace.line_ids(8)

    def compare():
        t0 = time.perf_counter()
        fast_miss_vector(line_ids, 8, 1).sum()
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        CacheSimulator(CacheGeometry(64, 8, 1)).run(trace)
        t_ref = time.perf_counter() - t0
        return t_fast, t_ref

    t_fast, t_ref = benchmark.pedantic(compare, rounds=1, iterations=1)
    accesses = len(trace)
    report(
        "perf_simulator",
        "Performance -- simulator throughput (matmul n=15 trace)",
        ("path", "seconds", "accesses/s"),
        [
            ("fast (vectorized)", round(t_fast, 5), round(accesses / t_fast)),
            ("reference (OO)", round(t_ref, 5), round(accesses / t_ref)),
        ],
    )
    assert t_fast < t_ref
