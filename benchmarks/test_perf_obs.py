"""Performance benchmark: the cost of the observability layer.

The instrumentation contract is that *disabled* spans are free enough to
leave compiled in everywhere: each pipeline stage pays one flag check and
one shared-object return (:data:`repro.obs.spans._NULL_SPAN`).  This bench
measures that cost two ways and holds it under the 5% budget:

* a microbenchmark of the null span itself, scaled by the spans-per-
  evaluation count, compared against the measured warm per-evaluation
  time (the worst case for relative overhead -- a warm sweep does no
  simulation, so the pipeline around the spans is as thin as it gets);
* a direct wall-clock comparison of warm sweeps with profiling off and
  on, asserting the profiled run returns bit-identical estimates.

Tracing (:func:`repro.obs.spans.tracing`) has a looser budget: it is opt-in per
job and wraps *real* evaluations, so its per-evaluation recording cost is
held under 10% of a cold evaluation -- the work a traced job actually
does.  (Relative to a warm, all-cache-hit sweep the recording dominates,
which is exactly why traces are not always-on.)
"""

import time
import timeit

from repro import obs
from repro.engine import EvalCache, Evaluator, KernelWorkload
from repro.kernels import get_kernel
from repro.obs.spans import span

SWEEP = dict(max_size=256, min_size=16, ways=(1, 2, 4), tilings=(1, 2))

#: Upper bound on spans entered per evaluated configuration: a batch of
#: one enters evaluate_batch, trace_gen, miss_measure, add_bs, cycles and
#: energy; a larger (trace key, line size) group shares its first four.
SPANS_PER_EVAL = 6

OVERHEAD_BUDGET = 0.05

#: Tracing may cost up to 10% of a *cold* (simulating) evaluation.
TRACING_BUDGET = 0.10


def test_perf_obs_overhead(benchmark, report):
    kernel = get_kernel("compress")

    def compare():
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        t0 = time.perf_counter()
        evaluator.sweep(**SWEEP)  # cold pass: populate the cache
        t_cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        plain = evaluator.sweep(**SWEEP)
        t_disabled = time.perf_counter() - t0

        obs.enable_profiling()
        try:
            with obs.collecting():
                t0 = time.perf_counter()
                profiled = evaluator.sweep(**SWEEP)
                t_enabled = time.perf_counter() - t0
        finally:
            obs.disable_profiling()

        with obs.tracing("bench-trace"):
            t0 = time.perf_counter()
            traced = evaluator.sweep(**SWEEP)
            t_traced = time.perf_counter() - t0

        # Null-span microbenchmark: the per-stage cost while disabled.
        loops = 100_000
        t_null = timeit.timeit(
            lambda: span("trace_gen"), number=loops
        ) / loops
        return plain, profiled, traced, t_cold, t_disabled, t_enabled, \
            t_traced, t_null

    plain, profiled, traced, t_cold, t_disabled, t_enabled, t_traced, \
        t_null = benchmark.pedantic(compare, rounds=1, iterations=1)

    # Instrumentation must not change results.
    assert list(profiled) == list(plain)
    assert list(traced) == list(plain)

    n = len(list(plain))
    per_eval_s = t_disabled / n
    null_overhead = (SPANS_PER_EVAL * t_null) / per_eval_s
    enabled_overhead = (t_enabled - t_disabled) / t_disabled
    # Tracing cost per evaluation, relative to the cold evaluation a
    # traced job actually performs (the warm delta isolates pure
    # recording cost; the cold pass is the work it amortises against).
    tracing_overhead = ((t_traced - t_disabled) / n) / (t_cold / n)

    report(
        "perf_obs",
        f"Performance -- observability overhead (compress warm sweep, "
        f"{n} configs)",
        ("measure", "value"),
        [
            ("cold sweep (s)", round(t_cold, 5)),
            ("warm sweep, spans disabled (s)", round(t_disabled, 5)),
            ("warm sweep, spans enabled (s)", round(t_enabled, 5)),
            ("warm sweep, tracing active (s)", round(t_traced, 5)),
            ("null span cost (ns)", round(t_null * 1e9, 1)),
            ("disabled overhead per eval", round(null_overhead, 5)),
            ("enabled overhead (relative)", round(enabled_overhead, 5)),
            ("tracing overhead vs cold eval", round(tracing_overhead, 5)),
        ],
    )

    # The acceptance budgets: disabled instrumentation costs under 5% of
    # a warm evaluation (the thinnest pipeline the spans ever wrap), and
    # tracing costs under 10% of the cold evaluation it wraps in a real
    # traced job.
    assert null_overhead < OVERHEAD_BUDGET
    assert tracing_overhead < TRACING_BUDGET
