"""Performance benchmark: the cost of fault tolerance.

The resilience layer must be cheap enough to leave on for real sweeps:

* recording every completed chunk in a result store (one sqlite WAL
  commit per chunk, ``synchronous=NORMAL``) is measured against the
  identical unrecorded sweep -- the durability tax;
* resuming from a complete store is measured absolutely -- a resumed
  sweep does no evaluation, so its cost is one store read, and it
  bounds how fast a killed exploration gets back to where it died;
* both paths must return bit-identical estimates, asserted here like
  every other executor bench.

The rows keep the labels they had when a JSONL journal was the sweep's
record (``journaled`` is the store-recorded sweep, ``complete journal``
the complete store), so the regression gate compares like with like.
"""

import time

from repro.engine import (
    EvalCache,
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
)
from repro.kernels import get_kernel
from repro.serve.store import ResultStore

SWEEP = dict(max_size=256, min_size=16, ways=(1, 2, 4), tilings=(1, 2))


def test_perf_resilience_overhead(benchmark, report, tmp_path):
    kernel = get_kernel("compress")
    path = str(tmp_path / "bench.db")

    def compare():
        evaluator = Evaluator(KernelWorkload(kernel), cache=EvalCache())
        evaluator.sweep(**SWEEP)  # cold pass: populate the cache
        configs = [e.config for e in evaluator.sweep(**SWEEP)]

        t0 = time.perf_counter()
        plain = ParallelSweep(jobs=1).run(evaluator, configs)
        t_plain = time.perf_counter() - t0

        with ResultStore(path) as store:
            recorded = ParallelSweep(
                jobs=1, resilience=ResilienceOptions(store=store)
            )
            t0 = time.perf_counter()
            journaled = recorded.run(evaluator, configs)
            t_journaled = time.perf_counter() - t0

            t0 = time.perf_counter()
            resumed = recorded.run(evaluator, configs)
            t_resumed = time.perf_counter() - t0

        return plain, journaled, resumed, t_plain, t_journaled, t_resumed

    plain, journaled, resumed, t_plain, t_journaled, t_resumed = (
        benchmark.pedantic(compare, rounds=1, iterations=1)
    )

    # Durability must not change results -- on either path.
    assert journaled == plain
    assert resumed == plain

    n = len(plain)
    report(
        "perf_resilience",
        f"Performance -- sweep resilience (compress warm sweep, "
        f"{n} configs)",
        ("path", "seconds", "configs/s"),
        [
            ("warm, no journal", round(t_plain, 5), round(n / t_plain)),
            ("warm, journaled", round(t_journaled, 5), round(n / t_journaled)),
            ("resumed, complete journal", round(t_resumed, 5),
             round(n / t_resumed)),
        ],
    )

    # Resume never re-evaluates: it must beat the evaluating sweep.
    assert t_resumed < t_journaled
