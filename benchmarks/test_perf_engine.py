"""Performance benchmark: the unified evaluation engine.

Times what :mod:`repro.engine` adds over the old per-explorer pipelines:

* the process-wide :class:`~repro.engine.cache.EvalCache` -- a warm sweep
  re-runs the full pipeline against memoised traces and miss vectors, so
  its throughput bounds the cost of everything *outside* simulation;
* the :class:`~repro.engine.parallel.ParallelSweep` executor -- serial
  versus ``jobs=2`` on the same sweep.  On a single-core machine the
  process fan-out is pure overhead; the recorded numbers state that
  honestly (the engine's value there is the transparent serial fallback
  and the unchanged results, which this bench asserts bit for bit);
* the one-pass grid backend -- a cold (sets, ways) grid sweep through
  ``onepass`` versus the serial per-config ``fastsim`` baseline, on a
  fixed trace so simulation (not trace generation) dominates.  The CI
  perf job gates on the recorded speedup.
"""

import os
import time

import numpy as np

from repro.cache.trace import MemoryTrace
from repro.core.config import CacheConfig
from repro.engine import (
    EvalCache,
    Evaluator,
    KernelWorkload,
    TraceWorkload,
)
from repro.kernels import get_kernel

SWEEP = dict(max_size=256, min_size=16, ways=(1, 2, 4), tilings=(1, 2))


def test_perf_engine_sweep(benchmark, report):
    kernel = get_kernel("compress")

    def compare():
        cold_cache = EvalCache()
        evaluator = Evaluator(KernelWorkload(kernel), cache=cold_cache)

        t0 = time.perf_counter()
        cold = evaluator.sweep(**SWEEP)
        t_cold = time.perf_counter() - t0
        after_cold = cold_cache.stats()

        t0 = time.perf_counter()
        warm = evaluator.sweep(**SWEEP)
        t_warm = time.perf_counter() - t0
        after_warm = cold_cache.stats()

        parallel_evaluator = Evaluator(
            KernelWorkload(kernel), cache=EvalCache()
        )
        t0 = time.perf_counter()
        par = parallel_evaluator.sweep(jobs=2, **SWEEP)
        t_parallel = time.perf_counter() - t0

        return cold, warm, par, t_cold, t_warm, t_parallel, after_cold, after_warm

    (
        cold, warm, par, t_cold, t_warm, t_parallel, after_cold, stats
    ) = benchmark.pedantic(compare, rounds=1, iterations=1)

    # Hard requirements first: every path returns identical estimates.
    assert list(warm) == list(cold)
    assert list(par) == list(cold)

    n = len(list(cold))
    report(
        "perf_engine",
        f"Performance -- evaluation engine (compress sweep, {n} configs, "
        f"{os.cpu_count()} CPU(s))",
        ("path", "seconds", "configs/s"),
        [
            ("serial, cold cache", round(t_cold, 5), round(n / t_cold)),
            ("serial, warm cache", round(t_warm, 5), round(n / t_warm)),
            ("2 processes, cold", round(t_parallel, 5), round(n / t_parallel)),
        ],
    )
    # Append the cache behaviour to the same results file: both tables are
    # one story (the warm throughput IS the hit rate made visible).
    from conftest import RESULTS_DIR

    cache_lines = [
        "",
        "EvalCache behaviour over the cold+warm sweeps",
        "",
        f"{'store':>22}  {'hits':>6}  {'misses':>6}  {'hit rate':>8}",
        f"{'traces (T,L,B)':>22}  {stats.trace_hits:>6}  "
        f"{stats.trace_misses:>6}  {stats.trace_hit_rate:>8.4f}",
        f"{'miss vectors / Add_bs':>22}  {stats.miss_hits:>6}  "
        f"{stats.miss_misses:>6}  {stats.miss_hit_rate:>8.4f}",
    ]
    path = RESULTS_DIR / "perf_engine.txt"
    path.write_text(path.read_text() + "\n".join(cache_lines) + "\n")

    # The warm sweep must profit from the cache: every trace and miss
    # vector the second pass needed was already resident, so it adds hits
    # and not one trace or miss-store miss.  (Over both sweeps the trace
    # hit rate is exactly one half, so a rate bound cannot say this.)
    assert stats.trace_misses - after_cold.trace_misses == 0
    assert stats.trace_hits > after_cold.trace_hits
    assert stats.miss_misses - after_cold.miss_misses == 0
    assert stats.miss_hit_rate > 0.4
    assert t_warm < t_cold


# The one-pass grid: every (sets, ways) point of a fixed line size, on a
# fixed trace.  Sizes are chosen so each distinct set count serves the
# whole ways range -- the shape explore/serve grids have -- and the trace
# mixes a hot working set with a drifting scan so every associativity
# level stays populated.
ONEPASS_LINE = 8
ONEPASS_GRID = [
    CacheConfig(ONEPASS_LINE * ways * sets, ONEPASS_LINE, ways)
    for ways in (1, 2, 4, 8, 16)
    for sets in (16, 32, 64, 128, 256)
]


def _onepass_trace(n=60_000):
    rng = np.random.default_rng(19991231)
    hot = rng.integers(0, 1024, size=n)
    scan = np.cumsum(rng.integers(-2, 3, size=n)) % 4096
    lines = np.where(rng.random(n) < 0.5, hot, scan)
    return MemoryTrace(lines * ONEPASS_LINE, rng.random(n) < 0.3)


def test_perf_onepass_cold_sweep(benchmark, report):
    trace = _onepass_trace()

    def compare():
        serial = Evaluator(
            TraceWorkload(trace), backend="fastsim", cache=EvalCache()
        )
        t0 = time.perf_counter()
        baseline = serial.sweep(configs=ONEPASS_GRID)
        t_serial = time.perf_counter() - t0

        grouped = Evaluator(
            TraceWorkload(trace), backend="onepass", cache=EvalCache()
        )
        t0 = time.perf_counter()
        onepass = grouped.sweep(configs=ONEPASS_GRID)
        t_onepass = time.perf_counter() - t0
        return baseline, onepass, t_serial, t_onepass

    baseline, onepass, t_serial, t_onepass = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    # Correctness before speed: the grid path is bit-identical.
    assert list(onepass) == list(baseline)

    n = len(ONEPASS_GRID)
    speedup = t_serial / t_onepass
    report(
        "perf_onepass",
        f"Performance -- one-pass grid backend (fixed {len(trace)}-access "
        f"trace, {n}-config (sets, ways) grid at L={ONEPASS_LINE})",
        ("path", "seconds", "configs/s"),
        [
            ("serial cold, fastsim", round(t_serial, 5), round(n / t_serial)),
            ("grouped cold, onepass", round(t_onepass, 5),
             round(n / t_onepass)),
        ],
    )
    from conftest import RESULTS_DIR

    path = RESULTS_DIR / "perf_onepass.txt"
    path.write_text(
        path.read_text()
        + f"\none-pass speedup over serial cold: {speedup:.1f}x"
        + " (CI gate: >= 5x)\n"
    )

    # The CI perf job's cold-sweep gate: one-pass must beat the serial
    # cold baseline by at least 5x on this grid (typically >10x).
    assert speedup >= 5.0
