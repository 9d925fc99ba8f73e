"""Pluggable miss-measurement backends.

Every explorer needs the same fact about a (trace, geometry) pair -- how
often the cache misses -- and the built-in backends below trade accuracy
for speed in obtaining it:

``fastsim``
    The vectorized per-configuration LRU path (:mod:`repro.cache.fastsim`);
    exact, and what :func:`get_backend` returns when no backend is named.
``reference``
    The object-oriented Dinero-style simulator
    (:mod:`repro.cache.simulator`); exact, slow, the ground truth the fast
    path is validated against.
``sampled``
    Set sampling (:mod:`repro.cache.sampling`): simulate every ``k``-th set
    exactly on the stack filter and scale, the classic trick for
    industrial-size traces.
``analytic``
    The paper's own closed-form model (:mod:`repro.core.analytic`);
    simulation-free, only defined for loop-nest kernels.
``onepass``
    The Mattson-style stack filter (:mod:`repro.cache.stackdist`): one
    vectorized trace pass per distinct set count prices *every*
    associativity at once, so a whole (sets, ways) grid costs a handful
    of passes instead of one simulation per point.  Exact (bit-identical
    to ``fastsim``, property-tested) and the fast cold path for sweeps.
``auto``
    An alias for ``onepass``: the default of the CLI and ``serve`` when
    no backend is named.  It resolves at construction time, so
    fingerprints, checkpoints and store rows always record ``onepass``.

Backends are selected by name through :func:`get_backend`, which resolves
through the :mod:`repro.registry` plugin registry -- the built-ins above
are registered there alongside any ``repro.plugins`` entry points, so
every explorer and the CLI can swap in third-party backends without
touching the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Sequence, Union

import numpy as np

from repro.cache.fastsim import fast_miss_vector
from repro.cache.sampling import sampled_counts
from repro.cache.simulator import CacheGeometry, CacheSimulator
from repro.cache.stackdist import grid_miss_counts
from repro.cache.trace import MemoryTrace
from repro.engine.cache import EvalCache, get_eval_cache
from repro.obs.metrics import get_metrics
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import CacheConfig

__all__ = [
    "AnalyticBackend",
    "Backend",
    "FastSimBackend",
    "MissMeasurement",
    "OnePassBackend",
    "ReferenceBackend",
    "SampledBackend",
    "available_backends",
    "cached_miss_vector",
    "get_backend",
]


@dataclass(frozen=True)
class MissMeasurement:
    """Miss behaviour of one (trace, geometry) pair.

    ``exact`` backends also report the integer miss count; estimating
    backends only report rates.
    """

    accesses: int
    reads: int
    miss_rate: float
    read_miss_rate: float
    misses: Optional[int] = None
    exact: bool = True


def _count_simulation(backend_name: str, trace: MemoryTrace) -> None:
    """Record one actual simulation (not a cache hit) in the registry.

    Called from the measuring methods themselves, so counts reflect work
    performed: memoised re-requests never reach these methods.
    """
    metrics = get_metrics()
    metrics.counter(f"backend.{backend_name}.simulations").inc()
    metrics.counter(f"backend.{backend_name}.addresses_simulated").inc(
        len(trace)
    )


def _measurement_from_vector(
    trace: MemoryTrace, miss: np.ndarray
) -> MissMeasurement:
    accesses = len(trace)
    misses = int(miss.sum())
    read_mask = ~trace.is_write
    reads = int(read_mask.sum())
    read_misses = int((miss & read_mask).sum())
    return MissMeasurement(
        accesses=accesses,
        reads=reads,
        miss_rate=misses / accesses if accesses else 0.0,
        read_miss_rate=read_misses / reads if reads else 0.0,
        misses=misses,
        exact=True,
    )


class Backend:
    """Protocol: measure the miss behaviour of a trace on a geometry.

    Implement :meth:`measure`, or :meth:`miss_vector` (a bool per access)
    from which the default :meth:`measure` is derived.  The evaluator
    hands every cold (trace, line size) group to :meth:`measure_grid`,
    which defaults to one :meth:`measure` per configuration; override it
    to price a whole group at once.  ``params`` must make the
    measurement's cache key unique (e.g. the sampling stride).
    ``requires_kernel`` backends price loop nests rather than traces and
    are routed around the trace pipeline.
    """

    name: str = "?"
    requires_kernel: bool = False

    @property
    def params(self) -> Hashable:
        """Hashable configuration of the backend (part of cache keys)."""
        return ()

    def miss_vector(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> np.ndarray:
        raise NotImplementedError(f"backend {self.name!r} has no miss vector")

    def measure(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> MissMeasurement:
        return _measurement_from_vector(trace, self.miss_vector(trace, config))

    def measure_grid(
        self, trace: MemoryTrace, configs: Sequence["CacheConfig"]
    ) -> "Dict[CacheConfig, MissMeasurement]":
        """Measure many same-trace, same-line-size geometries at once."""
        return {config: self.measure(trace, config) for config in configs}


class FastSimBackend(Backend):
    """Exact vectorized LRU measurement (the default)."""

    name = "fastsim"

    def miss_vector(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> np.ndarray:
        _count_simulation(self.name, trace)
        line_ids = trace.line_ids(config.line_size)
        return fast_miss_vector(line_ids, config.num_sets, config.ways)


class ReferenceBackend(Backend):
    """Exact measurement through the object-oriented reference simulator.

    Slow (one Python-level call per access) but the ground truth; the
    cross-backend equivalence tests assert it matches ``fastsim`` bit for
    bit under LRU.
    """

    name = "reference"

    def miss_vector(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> np.ndarray:
        _count_simulation(self.name, trace)
        geometry = CacheGeometry(config.size, config.line_size, config.ways)
        simulator = CacheSimulator(geometry, policy="lru")
        access = simulator.access
        miss = np.empty(len(trace), dtype=bool)
        for i, (addr, wr) in enumerate(
            zip(trace.addresses.tolist(), trace.is_write.tolist())
        ):
            miss[i] = not access(addr, wr)
        return miss


class SampledBackend(Backend):
    """Set-sampled estimate: simulate every ``sample_every``-th set.

    Exact when a geometry has fewer sets than the stride would skip (the
    estimate degenerates to the full computation for ``num_sets == 1``).
    Misses and read misses come from one exact pass over the sampled sets.
    """

    name = "sampled"

    def __init__(self, sample_every: int = 4, offset: int = 0) -> None:
        if sample_every < 1:
            raise ValueError("sampling stride must be at least 1")
        self.sample_every = sample_every
        self.offset = offset % sample_every

    @property
    def params(self) -> Hashable:
        return (self.sample_every, self.offset)

    def measure(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> MissMeasurement:
        _count_simulation(self.name, trace)
        accesses = len(trace)
        reads = int((~trace.is_write).sum())
        if accesses == 0:
            return MissMeasurement(0, 0, 0.0, 0.0, misses=0, exact=True)
        stride = min(self.sample_every, config.num_sets)
        sample = sampled_counts(
            trace.line_ids(config.line_size),
            trace.is_write,
            config.num_sets,
            config.ways,
            sample_every=stride,
            offset=self.offset % stride,
        )
        miss_rate = sample.misses / sample.accesses if sample.accesses else 0.0
        read_miss_rate = (
            sample.read_misses / sample.reads if sample.reads else miss_rate
        )
        exact = stride == 1
        return MissMeasurement(
            accesses=accesses,
            reads=reads,
            miss_rate=miss_rate,
            read_miss_rate=read_miss_rate,
            misses=sample.misses if exact else None,
            exact=exact,
        )


class AnalyticBackend(Backend):
    """The paper's closed-form model; needs a loop nest, not a trace.

    Handled specially by the :class:`~repro.engine.evaluator.Evaluator`:
    workloads that carry a kernel are routed through
    :class:`~repro.core.analytic.AnalyticExplorer`, anything else is
    rejected.
    """

    name = "analytic"
    requires_kernel = True

    def measure(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> MissMeasurement:
        raise ValueError(
            "the analytic backend evaluates loop nests, not traces; "
            "use a kernel workload"
        )


class OnePassBackend(Backend):
    """All configurations of a line size from one stack-filter pass.

    Built on :func:`repro.cache.stackdist.grid_miss_counts`: for each
    distinct set count in the batch, one vectorized pass computes the
    exact per-depth hit histogram, from which the miss count of every
    requested associativity is read in O(1).  ``measure`` is the
    degenerate one-point batch, so single-config evaluation stays exact
    too; the win comes from :meth:`measure_grid`, which the evaluator
    feeds whole cold (trace, line size) groups.

    Emits ``onepass.passes`` / ``onepass.configs_measured`` /
    ``onepass.set_counts`` counters and one ``onepass_pass`` span per
    batch (see docs/OBSERVABILITY.md).
    """

    name = "onepass"

    def measure(
        self, trace: MemoryTrace, config: "CacheConfig"
    ) -> MissMeasurement:
        return self.measure_grid(trace, [config])[config]

    def measure_grid(
        self, trace: MemoryTrace, configs: Sequence["CacheConfig"]
    ) -> "Dict[CacheConfig, MissMeasurement]":
        if not configs:
            return {}
        line_size = configs[0].line_size
        for config in configs:
            if config.line_size != line_size:
                raise ValueError(
                    "a one-pass batch must share one line size; got "
                    f"{line_size} and {config.line_size}"
                )
        _count_simulation(self.name, trace)
        points = {(c.num_sets, c.ways) for c in configs}
        set_counts = {num_sets for num_sets, _ in points}
        with span(
            "onepass_pass",
            line_size=line_size,
            configs=len(configs),
            set_counts=len(set_counts),
        ):
            line_ids = trace.line_ids(line_size)
            counts = grid_miss_counts(line_ids, trace.is_write, points)
        metrics = get_metrics()
        metrics.counter("onepass.passes").inc()
        metrics.counter("onepass.configs_measured").inc(len(configs))
        metrics.counter("onepass.set_counts").inc(len(set_counts))
        out: "Dict[CacheConfig, MissMeasurement]" = {}
        for config in configs:
            grid = counts[(config.num_sets, config.ways)]
            out[config] = MissMeasurement(
                accesses=grid.accesses,
                reads=grid.reads,
                miss_rate=(
                    grid.misses / grid.accesses if grid.accesses else 0.0
                ),
                read_miss_rate=(
                    grid.read_misses / grid.reads if grid.reads else 0.0
                ),
                misses=grid.misses,
                exact=True,
            )
        return out


def available_backends() -> "tuple[str, ...]":
    """Names accepted by :func:`get_backend` (and the CLI ``--backend``).

    Sourced from the plugin registry: the built-ins above plus every
    backend an installed ``repro.plugins`` entry point registered.
    """
    from repro.registry import get_registry

    return get_registry().names("backend")


def get_backend(backend: Union[str, Backend, None], **kwargs) -> Backend:
    """Resolve a backend name through the registry (instances pass through)."""
    if backend is None:
        return FastSimBackend()
    if isinstance(backend, Backend):
        return backend
    from repro.registry import UnknownPluginError, get_registry

    try:
        return get_registry().create("backend", backend, **kwargs)
    except UnknownPluginError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {available_backends()}"
        ) from None


def cached_miss_vector(
    trace: MemoryTrace,
    line_size: int,
    num_sets: int,
    ways: int,
    trace_key: Optional[Hashable] = None,
    cache: Optional[EvalCache] = None,
) -> np.ndarray:
    """Exact LRU miss vector for a raw trace, memoised process-wide.

    The low-level entry point for call sites outside the explorer pipeline
    (e.g. :func:`repro.energy.dram.miss_stream_energy`).  ``trace_key``
    overrides the content fingerprint when the caller already has a stable
    identity for the trace.
    """
    from repro.engine.workload import trace_fingerprint

    store = cache if cache is not None else get_eval_cache()
    key = (
        "vec",
        trace_key if trace_key is not None else trace_fingerprint(trace),
        line_size,
        num_sets,
        ways,
        FastSimBackend.name,
    )
    def _build() -> np.ndarray:
        _count_simulation(FastSimBackend.name, trace)
        return fast_miss_vector(trace.line_ids(line_size), num_sets, ways)

    return store.miss(key, _build)
