"""Section 5 composite-program model.

A large program (the MPEG decoder) is a set of kernel programs ``j``, each
invoked ``trip(j)`` times.  For every shared cache configuration the paper
aggregates the per-kernel records ``(T, L, S, B, mr, C, E)``::

    MISS_R = sum_j mr(j) * trip(j) / sum_j trip(j)
    CYCLES = sum_j C(j) * trip(j)
    ENERGY = sum_j E(j) * trip(j)

Note the miss rate is trip-weighted (as printed in the paper), not
access-weighted -- the per-kernel records carry per-invocation cycles and
energy, so CYCLES and ENERGY scale correctly regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.energy.model import EnergyModel
from repro.engine.evaluator import Evaluator, order_configs
from repro.engine.result import ExplorationResult
from repro.engine.workload import KernelWorkload
from repro.kernels.base import Kernel

__all__ = ["CompositeProgram", "KernelContribution"]


@dataclass(frozen=True)
class KernelContribution:
    """One kernel's per-invocation estimate and its trip weight."""

    kernel_name: str
    trip: int
    estimate: PerformanceEstimate


class CompositeProgram:
    """A whole program assembled from weighted kernel programs.

    ``kernels`` carry their own ``invocations`` as the trip counts; pass
    ``trips`` to override them (keyed by kernel name).
    """

    def __init__(
        self,
        kernels: Sequence[Kernel],
        trips: Optional[Dict[str, int]] = None,
        energy_model: Optional[EnergyModel] = None,
        optimize_layout: bool = True,
        backend: str = "fastsim",
    ) -> None:
        if not kernels:
            raise ValueError("a composite program needs at least one kernel")
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            raise ValueError("kernel names must be unique within a composite")
        self.kernels = list(kernels)
        self.trips: Dict[str, int] = {
            k.name: (trips or {}).get(k.name, k.invocations) for k in kernels
        }
        if any(t <= 0 for t in self.trips.values()):
            raise ValueError("trip counts must be positive")
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.optimize_layout = optimize_layout
        self.backend = backend
        # One engine evaluator per kernel; the shared EvalCache means two
        # composites over overlapping kernel sets reuse each other's work.
        self._evaluators = {
            k.name: Evaluator(
                KernelWorkload(k, optimize_layout=optimize_layout),
                backend=backend,
                energy_model=self.energy_model,
            )
            for k in kernels
        }

    @property
    def total_trips(self) -> int:
        """``sum_j trip(j)``."""
        return sum(self.trips.values())

    def contributions(self, config: CacheConfig) -> List[KernelContribution]:
        """Per-kernel records for one shared configuration."""
        return [
            KernelContribution(
                kernel_name=kernel.name,
                trip=self.trips[kernel.name],
                estimate=self._evaluators[kernel.name].evaluate(config),
            )
            for kernel in self.kernels
        ]

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """Aggregate whole-program metrics for one configuration."""
        return self.evaluate_batch([config])[0]

    def evaluate_batch(
        self, configs: Iterable[CacheConfig]
    ) -> List[PerformanceEstimate]:
        """Aggregate whole-program metrics, one batch per kernel evaluator."""
        configs = list(configs)
        batches = [
            (name, self.trips[name], evaluator.evaluate_batch(configs))
            for name, evaluator in self._evaluators.items()
        ]
        return [
            self._aggregate(
                config,
                [
                    KernelContribution(name, trip, batch[i])
                    for name, trip, batch in batches
                ],
            )
            for i, config in enumerate(configs)
        ]

    def _aggregate(
        self, config: CacheConfig, parts: List[KernelContribution]
    ) -> PerformanceEstimate:
        """The Section 5 trip-weighted record of one configuration."""
        total_trip = self.total_trips
        miss_rate = sum(p.estimate.miss_rate * p.trip for p in parts) / total_trip
        read_miss_rate = (
            sum(p.estimate.read_miss_rate * p.trip for p in parts) / total_trip
        )
        cycles = sum(p.estimate.cycles * p.trip for p in parts)
        energy = sum(p.estimate.energy_nj * p.trip for p in parts)
        events = sum(p.estimate.events * p.trip for p in parts)
        accesses = sum(p.estimate.accesses * p.trip for p in parts)
        reads = sum(p.estimate.reads * p.trip for p in parts)
        add_bs = (
            sum(p.estimate.add_bs * p.estimate.accesses * p.trip for p in parts)
            / accesses
            if accesses
            else 0.0
        )
        return PerformanceEstimate(
            config=config,
            miss_rate=miss_rate,
            cycles=cycles,
            energy_nj=energy,
            events=events,
            accesses=accesses,
            reads=reads,
            read_miss_rate=read_miss_rate,
            add_bs=add_bs,
            conflict_free_layout=all(
                p.estimate.conflict_free_layout for p in parts
            ),
        )

    def explore(
        self, configs: Iterable[CacheConfig], jobs: int = 1, resilience=None
    ) -> ExplorationResult:
        """Aggregate estimates over a configuration set.

        ``jobs > 1`` distributes whole-program evaluations (each one covers
        every kernel) across processes via
        :class:`~repro.engine.parallel.ParallelSweep`, preserving order.
        ``resilience`` (a
        :class:`~repro.engine.resilience.ResilienceOptions`) opts into
        per-chunk retries, timeouts and checkpoint/resume -- the journal
        fingerprint covers every kernel and trip count of the composite.
        """
        ordered = order_configs(configs)
        if (jobs and jobs > 1) or resilience is not None:
            from repro.engine.parallel import ParallelSweep

            return ExplorationResult(
                ParallelSweep(jobs=jobs or 1, resilience=resilience).run(
                    self, ordered
                )
            )
        return ExplorationResult(self.evaluate_batch(ordered))

    def shared_cache_trace(self, config: CacheConfig) -> "MemoryTrace":
        """One interleaved trace of the whole program through a single cache.

        The paper aggregates per-kernel records, implicitly assuming each
        kernel runs against a cold cache and kernels do not interact.  This
        builds the alternative: kernel invocations interleaved in pipeline
        order (round-robin weighted by trip counts, the natural schedule of
        a block-structured decoder), each kernel's data disjoint in memory,
        all flowing through one cache.  Used by the composite-independence
        ablation to measure what the record model misses.
        """
        from repro.cache.trace import MemoryTrace

        pieces = []
        offsets: Dict[str, int] = {}
        cursor = 0
        for kernel in self.kernels:
            if self.optimize_layout:
                layout = kernel.optimized_layout(
                    config.size, config.line_size
                ).layout
            else:
                layout = kernel.default_layout()
            trace = kernel.trace(layout=layout, tile=config.tiling)
            offsets[kernel.name] = cursor
            pieces.append((kernel.name, trace))
            footprint = int(trace.addresses.max()) + 1 if len(trace) else 0
            cursor += -(-max(footprint, 1) // 256) * 256  # 256-byte spacing

        max_trip = max(self.trips.values())
        schedule = []
        for round_index in range(max_trip):
            for name, trace in pieces:
                if round_index < self.trips[name]:
                    shifted = MemoryTrace(
                        trace.addresses + offsets[name],
                        trace.is_write,
                        trace.ref_ids,
                    )
                    schedule.append(shifted)
        return MemoryTrace.concatenate(schedule)

    def evaluate_shared_cache(self, config: CacheConfig) -> PerformanceEstimate:
        """Whole-program metrics from the interleaved single-cache trace."""
        from repro.engine.workload import TraceWorkload

        trace = self.shared_cache_trace(config)
        events = sum(
            kernel.nest.iterations * self.trips[kernel.name]
            for kernel in self.kernels
        )
        workload = TraceWorkload(trace, events=events)
        evaluator = Evaluator(
            workload, backend=self.backend, energy_model=self.energy_model
        )
        return evaluator.evaluate(config)

    def per_kernel_optima(
        self, configs: Sequence[CacheConfig]
    ) -> Dict[str, Tuple[CacheConfig, float]]:
        """Each kernel's own minimum-energy configuration over ``configs``.

        Used for the paper's closing observation that the whole-program
        optimum differs from every kernel's individual optimum (Figure 10
        versus the Section 5 composite result).
        """
        optima: Dict[str, Tuple[CacheConfig, float]] = {}
        for kernel in self.kernels:
            evaluator = self._evaluators[kernel.name]
            result = evaluator.sweep(configs=list(configs))
            best = result.min_energy()
            optima[kernel.name] = (best.config, best.energy_nj)
        return optima
