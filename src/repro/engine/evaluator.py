"""The unified evaluation pipeline: trace -> misses -> cycles -> energy.

One :class:`Evaluator` binds a :class:`~repro.engine.workload.Workload` to
a :class:`~repro.engine.backends.Backend` and an energy model, and turns
:class:`~repro.core.config.CacheConfig` points into
:class:`~repro.core.metrics.PerformanceEstimate` records.  All four
exploration layers (:class:`~repro.core.explorer.MemExplorer`,
:class:`~repro.icache.explorer.ICacheExplorer`, the scratchpad comparison
and :class:`~repro.core.composite.CompositeProgram`) are thin consumers of
this class.

Traces and miss measurements are memoised in the process-wide
:class:`~repro.engine.cache.EvalCache`, keyed on the workload's trace key
(what the trace depends on, e.g. ``(kernel, T, L, B)`` with the Section
4.1 layout or ``(kernel, B)`` without it) and on ``(trace key, L, sets,
ways, backend)`` respectively, so the associativity sweep and repeated
sweeps across explorers never recompute shared work.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Iterable, List, Optional, Union

from repro.core.config import CacheConfig, design_space
from repro.core.cycles import processor_cycles
from repro.core.metrics import PerformanceEstimate
from repro.energy.bus import address_bus_switching
from repro.energy.model import EnergyModel
from repro.engine.backends import (
    Backend,
    MissMeasurement,
    _measurement_from_vector,
    get_backend,
)
from repro.engine.cache import EvalCache, get_eval_cache
from repro.engine.resilience import ResilienceOptions
from repro.engine.result import ExplorationResult
from repro.engine.workload import TraceBundle, Workload
from repro.obs.metrics import get_metrics
from repro.obs.spans import span

__all__ = ["Evaluator", "assemble_estimate", "order_configs"]

logger = logging.getLogger(__name__)


def order_configs(configs: Iterable[CacheConfig]) -> List[CacheConfig]:
    """Canonical sweep order: by ``(T, L, B)``, then ways.

    All engine sweeps use this order so that the associativity sweep reuses
    each generated trace and serial/parallel runs agree on result order.
    A trace key never depends on more than ``(T, L, B)``; a dense-layout
    kernel's depends on ``B`` alone, and :meth:`Evaluator.evaluate_batch`
    groups such traces across sizes.
    """
    return sorted(configs, key=lambda c: (c.size, c.line_size, c.tiling, c.ways))


def assemble_estimate(
    bundle: TraceBundle,
    config: CacheConfig,
    measurement: MissMeasurement,
    energy_model: EnergyModel,
    add_bs: float,
) -> PerformanceEstimate:
    """Section 2.2 cycle model + Section 2.3 energy model on a measurement."""
    events = bundle.events if bundle.events is not None else measurement.accesses
    with span("cycles"):
        cycles = processor_cycles(
            measurement.miss_rate,
            events,
            ways=config.ways,
            line_size=config.line_size,
            tiling=config.tiling,
        )
    with span("energy"):
        breakdown = energy_model.breakdown(
            config.size,
            config.line_size,
            config.ways,
            hit_rate=1.0 - measurement.read_miss_rate,
            miss_rate=measurement.read_miss_rate,
            events=events,
            add_bs=add_bs,
        )
    return PerformanceEstimate(
        config=config,
        miss_rate=measurement.miss_rate,
        cycles=cycles,
        energy_nj=breakdown.total,
        events=events,
        accesses=measurement.accesses,
        reads=measurement.reads,
        read_miss_rate=measurement.read_miss_rate,
        add_bs=add_bs,
        conflict_free_layout=bundle.conflict_free,
        energy_breakdown=breakdown,
    )


class Evaluator:
    """Evaluate one workload through one backend, with shared memoisation.

    Parameters
    ----------
    workload:
        Any :class:`~repro.engine.workload.Workload`.
    backend:
        Backend instance or name (``fastsim``, ``reference``, ``sampled``,
        ``analytic``).
    energy_model:
        Section 2.3 model; defaults to the paper's constants.
    gray_code:
        Gray-code the address bus when measuring ``Add_bs``.
    cache:
        Override the process-wide :class:`EvalCache` (tests only).
    """

    def __init__(
        self,
        workload: Workload,
        backend: Union[str, Backend, None] = None,
        energy_model: Optional[EnergyModel] = None,
        gray_code: bool = True,
        cache: Optional[EvalCache] = None,
    ) -> None:
        self.workload = workload
        self.backend = get_backend(backend)
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.gray_code = gray_code
        self._cache = cache
        self._analytic = None

    # The cache is process-local state: when an evaluator crosses a process
    # boundary (ParallelSweep), the worker re-binds to its own global cache.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = None
        state["_analytic"] = None
        return state

    @property
    def cache(self) -> EvalCache:
        """The memoisation store in use (process-wide unless overridden)."""
        return self._cache if self._cache is not None else get_eval_cache()

    def _bundle_for(self, config: CacheConfig) -> TraceBundle:
        key = ("trace", self.workload.trace_key(config))
        with span("trace_gen", config=config.label(full=True)):
            return self.cache.trace(
                key, lambda: self.workload.trace_for(config, self.cache)
            )

    def _measure_key(self, trace_key, config: CacheConfig):
        """Cache key of a (non-vector) measurement for ``config``.

        Shared by the single and the batch path, so a warm single
        evaluation hits whatever a grouped one-pass sweep filled in.
        """
        return (
            "measure",
            trace_key,
            config.line_size,
            config.num_sets,
            config.ways,
            self.backend.name,
            self.backend.params,
        )

    def _measure(
        self, bundle: TraceBundle, config: CacheConfig
    ) -> MissMeasurement:
        trace_key = self.workload.trace_key(config)
        with span(
            "miss_measure",
            backend=self.backend.name,
            config=config.label(full=True),
        ):
            if self.backend.provides_vector:
                key = (
                    "vec",
                    trace_key,
                    config.line_size,
                    config.num_sets,
                    config.ways,
                    self.backend.name,
                )
                vector = self.cache.miss(
                    key, lambda: self.backend.miss_vector(bundle.trace, config)
                )
                return _measurement_from_vector(bundle.trace, vector)
            return self.cache.miss(
                self._measure_key(trace_key, config),
                lambda: self.backend.measure(bundle.trace, config),
            )

    def _add_bs(self, bundle: TraceBundle, config: CacheConfig) -> float:
        key = ("addbs", self.workload.trace_key(config), self.gray_code)
        with span("add_bs"):
            return self.cache.miss(
                key,
                lambda: address_bus_switching(
                    bundle.trace.addresses, gray=self.gray_code
                ),
            )

    def _analytic_explorer(self):
        if self._analytic is None:
            from repro.core.analytic import AnalyticExplorer

            kernel = getattr(self.workload, "kernel", None)
            if kernel is None:
                raise ValueError(
                    "the analytic backend needs a loop-nest kernel workload"
                )
            self._analytic = AnalyticExplorer(
                kernel, energy_model=self.energy_model
            )
        return self._analytic

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """One configuration -> one :class:`PerformanceEstimate`."""
        metrics = get_metrics()
        metrics.counter("engine.configs_evaluated").inc()
        started = time.perf_counter()
        try:
            with span("evaluate", config=config.label(full=True)):
                self.workload.validate(config)
                if self.backend.requires_kernel:
                    return self._analytic_explorer().evaluate(config)
                bundle = self._bundle_for(config)
                measurement = self._measure(bundle, config)
                add_bs = self._add_bs(bundle, config)
                return assemble_estimate(
                    bundle, config, measurement, self.energy_model, add_bs
                )
        finally:
            # Per-eval latency, overall and per backend.  Looked up by
            # name each call: histograms hold a Lock, so a picklable
            # evaluator must not cache instrument references.
            elapsed = time.perf_counter() - started
            metrics.histogram("engine.eval").observe(elapsed)
            metrics.histogram(
                "engine.eval." + self.backend.name
            ).observe(elapsed)

    def evaluate_batch(
        self, configs: Iterable[CacheConfig]
    ) -> List[PerformanceEstimate]:
        """Many configurations at once, grouped for grid-capable backends.

        Configurations are grouped by ``(trace key, line size)`` and each
        group's *cold* measurements are obtained from one
        :meth:`~repro.engine.backends.Backend.measure_grid` pass; warm
        ones come from the :class:`EvalCache` exactly as in
        :meth:`evaluate`, through the same keys, so single and grouped
        evaluation fill and hit one another's entries.  Estimates are
        returned in input order and are byte-identical to per-config
        :meth:`evaluate` calls (asserted by the test suite).  Backends
        without ``provides_grid`` (and the kernel-bound analytic backend)
        simply fall back to per-config evaluation.
        """
        configs = list(configs)
        if not self.backend.provides_grid or self.backend.requires_kernel:
            return [self.evaluate(config) for config in configs]
        metrics = get_metrics()
        groups: "dict[tuple, List[tuple[int, CacheConfig]]]" = {}
        group_order: List[tuple] = []
        for position, config in enumerate(configs):
            self.workload.validate(config)
            group_key = (self.workload.trace_key(config), config.line_size)
            if group_key not in groups:
                groups[group_key] = []
                group_order.append(group_key)
            groups[group_key].append((position, config))
        results: List[Optional[PerformanceEstimate]] = [None] * len(configs)
        for group_key in group_order:
            trace_key, line_size = group_key
            members = groups[group_key]
            started = time.perf_counter()
            with span(
                "evaluate_batch",
                backend=self.backend.name,
                configs=len(members),
                line_size=line_size,
            ):
                bundle = self._bundle_for(members[0][1])
                by_key: "dict[tuple, CacheConfig]" = {}
                for _, config in members:
                    by_key.setdefault(self._measure_key(trace_key, config), config)

                def _measure_missing(missing, _bundle=bundle, _by_key=by_key):
                    cold = [_by_key[key] for key in missing]
                    measured = self.backend.measure_grid(_bundle.trace, cold)
                    return {
                        self._measure_key(trace_key, config): measurement
                        for config, measurement in measured.items()
                    }

                with span(
                    "miss_measure",
                    backend=self.backend.name,
                    configs=len(by_key),
                ):
                    measurements = self.cache.miss_many(
                        list(by_key), _measure_missing
                    )
                add_bs = self._add_bs(bundle, members[0][1])
                for position, config in members:
                    results[position] = assemble_estimate(
                        bundle,
                        config,
                        measurements[self._measure_key(trace_key, config)],
                        self.energy_model,
                        add_bs,
                    )
            elapsed = time.perf_counter() - started
            metrics.counter("engine.configs_evaluated").inc(len(members))
            # The per-eval histograms see the amortised group latency so
            # their totals still sum to wall-clock evaluation time.
            amortised = elapsed / len(members)
            overall = metrics.histogram("engine.eval")
            per_backend = metrics.histogram("engine.eval." + self.backend.name)
            for _ in members:
                overall.observe(amortised)
                per_backend.observe(amortised)
        return list(results)

    def sweep(
        self,
        configs: Optional[Iterable[CacheConfig]] = None,
        max_size: int = 1024,
        jobs: int = 1,
        progress: Optional[Callable[[PerformanceEstimate], None]] = None,
        resilience: Optional[ResilienceOptions] = None,
        **space_kwargs,
    ) -> ExplorationResult:
        """Evaluate a configuration set (default: the MemExplore space).

        ``jobs > 1`` fans the sweep out across processes through
        :class:`~repro.engine.parallel.ParallelSweep`; results are returned
        in the same deterministic order (and are bit-identical to the
        serial path, which the tests assert).

        ``resilience`` opts into fault tolerance -- per-chunk retries and
        timeouts, checkpoint journaling and resume-from-checkpoint (see
        :class:`~repro.engine.resilience.ResilienceOptions`).  It applies
        to serial sweeps too: ``jobs=1`` with a checkpoint journals and
        resumes chunk by chunk through the same executor.
        """
        if configs is None:
            configs = design_space(max_size=max_size, **space_kwargs)
        ordered = order_configs(configs)
        logger.info(
            "sweep start: %d configs, backend=%s, jobs=%s",
            len(ordered),
            self.backend.name,
            jobs,
        )
        started = time.perf_counter()
        with span(
            "sweep", backend=self.backend.name, configs=len(ordered), jobs=jobs
        ):
            if (jobs and jobs > 1) or resilience is not None:
                from repro.engine.parallel import ParallelSweep

                estimates = ParallelSweep(
                    jobs=jobs or 1, resilience=resilience
                ).run(self, ordered)
                if progress is not None:
                    for estimate in estimates:
                        progress(estimate)
            elif self.backend.provides_grid and not self.backend.requires_kernel:
                estimates = self.evaluate_batch(ordered)
                if progress is not None:
                    for estimate in estimates:
                        progress(estimate)
            else:
                estimates = []
                for config in ordered:
                    estimate = self.evaluate(config)
                    estimates.append(estimate)
                    if progress is not None:
                        progress(estimate)
        elapsed = time.perf_counter() - started
        metrics = get_metrics()
        metrics.counter("engine.sweeps").inc()
        metrics.histogram("engine.sweep_seconds").observe(elapsed)
        metrics.gauge("engine.last_sweep_configs").set(len(ordered))
        logger.info(
            "sweep done: %d configs in %.3fs (backend=%s)",
            len(ordered),
            elapsed,
            self.backend.name,
        )
        return ExplorationResult(estimates)
