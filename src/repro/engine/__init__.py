"""repro.engine: the pluggable, parallel evaluation engine.

The paper's MemExplore loop is one pipeline -- trace generation, miss
measurement, cycle/energy models -- and this package is its single
implementation, consumed by every exploration layer:

* :mod:`repro.engine.workload` -- the :class:`Workload` protocol unifying
  loop-nest kernels, instruction streams and raw traces;
* :mod:`repro.engine.backends` -- pluggable miss-measurement backends
  (``fastsim``, ``reference``, ``sampled``, ``analytic``);
* :mod:`repro.engine.cache` -- the process-wide, size-bounded
  :class:`EvalCache` memoising traces and miss vectors;
* :mod:`repro.engine.evaluator` -- the :class:`Evaluator` pipeline;
* :mod:`repro.engine.parallel` -- :class:`ParallelSweep`, chunked
  multi-process fan-out with deterministic, bit-identical results, on
  a :class:`WorkerPool` a long-lived caller can reuse across sweeps;
* :mod:`repro.engine.resilience` -- fault tolerance for sweeps: per-chunk
  retries with backoff, watchdog timeouts, cancellation, and the
  evaluator fingerprint that keys the result store behind
  ``--checkpoint``;
* :mod:`repro.engine.faults` -- the deterministic fault-injection harness
  (:class:`FaultInjector`) the test suite and nightly CI chaos job wrap
  around chunk dispatch.

Quickstart::

    from repro.engine import Evaluator, KernelWorkload
    from repro.kernels import get_kernel

    evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
    result = evaluator.sweep(max_size=512, jobs=4)
    print(result.min_energy())
"""

from repro.engine.backends import (
    AnalyticBackend,
    Backend,
    FastSimBackend,
    MissMeasurement,
    OnePassBackend,
    ReferenceBackend,
    SampledBackend,
    available_backends,
    cached_miss_vector,
    get_backend,
)
from repro.engine.cache import (
    CacheStats,
    EvalCache,
    configure_eval_cache,
    get_eval_cache,
)
from repro.engine.evaluator import Evaluator, assemble_estimate, order_configs
from repro.engine.faults import FaultInjector, InjectedCrash
from repro.engine.parallel import ParallelSweep, WorkerPool
from repro.engine.resilience import (
    CorruptPayloadError,
    ResilienceOptions,
    RetryPolicy,
    SweepChunkError,
    TransientChunkError,
    evaluator_fingerprint,
    sweep_fingerprint,
)
from repro.engine.result import ExplorationResult
from repro.engine.workload import (
    InstructionWorkload,
    KernelWorkload,
    TraceBundle,
    TraceWorkload,
    Workload,
    trace_fingerprint,
)

__all__ = [
    "AnalyticBackend",
    "Backend",
    "CacheStats",
    "CorruptPayloadError",
    "EvalCache",
    "Evaluator",
    "ExplorationResult",
    "FastSimBackend",
    "FaultInjector",
    "InjectedCrash",
    "InstructionWorkload",
    "KernelWorkload",
    "MissMeasurement",
    "OnePassBackend",
    "ParallelSweep",
    "ReferenceBackend",
    "ResilienceOptions",
    "RetryPolicy",
    "SampledBackend",
    "SweepChunkError",
    "TraceBundle",
    "TraceWorkload",
    "TransientChunkError",
    "WorkerPool",
    "Workload",
    "assemble_estimate",
    "available_backends",
    "cached_miss_vector",
    "configure_eval_cache",
    "evaluator_fingerprint",
    "get_backend",
    "get_eval_cache",
    "order_configs",
    "sweep_fingerprint",
    "trace_fingerprint",
]
