"""Algorithm MemExplore: the paper's exploration loop.

For every candidate ``(T, L, S, B)`` the explorer

1. places the kernel's arrays off-chip -- by default with the Section 4.1
   padded assignment for the candidate geometry (the paper's "largest
   performance enhancement"), optionally with the dense unoptimized layout
   for the parenthesised comparison columns of Figure 9;
2. generates the exact address trace (tiled when ``B > 1``);
3. measures the miss rate through a pluggable backend;
4. evaluates the Section 2.2 cycle model and the Section 2.3 energy model
   (Gray-coded address-bus switching measured on the same trace);
5. records a :class:`~repro.core.metrics.PerformanceEstimate`.

The pipeline itself lives in :mod:`repro.engine`; :class:`MemExplorer` is
its loop-nest consumer.  The Section 4.1 layout depends only on ``(T,
L)``, a trace on ``(T, L, B)`` (on ``B`` alone with the dense layout) and
a miss vector on ``(trace, L, sets, ways)``, so the engine's process-wide
:class:`~repro.engine.cache.EvalCache` shares each across the tilings or
the associativity sweep, across explorer instances and across layers.
"""

from __future__ import annotations

import logging
import warnings
from typing import Callable, Iterable, Optional, Tuple, Union

from repro.cache.trace import MemoryTrace
from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.energy.bus import address_bus_switching
from repro.energy.model import EnergyModel
from repro.engine.backends import Backend, get_backend
from repro.engine.evaluator import Evaluator, assemble_estimate
from repro.engine.result import ExplorationResult
from repro.engine.workload import KernelWorkload, TraceBundle
from repro.kernels.base import Kernel

__all__ = ["ExplorationResult", "MemExplorer", "evaluate_trace"]

logger = logging.getLogger(__name__)


def evaluate_trace(
    trace: MemoryTrace,
    config: CacheConfig,
    energy_model: Optional[EnergyModel] = None,
    conflict_free_layout: bool = False,
    gray_code: bool = True,
    events: Optional[int] = None,
    backend: Union[str, Backend, None] = None,
) -> PerformanceEstimate:
    """Metrics of one configuration on a concrete trace.

    This is the geometry-only core of the explorer, also used directly for
    workloads that are traces rather than loop nests (e.g. the instruction
    streams of :mod:`repro.icache`).  The tiling field of ``config`` only
    enters the cycle model here -- the caller is responsible for having
    generated the trace in tiled order.

    ``events`` is the paper's *trip count*: the multiplier that turns
    per-event expectations into totals.  Loop-nest workloads pass the
    iteration count (the paper's convention, confirmed against the legible
    Figure 9 values); raw traces default to one event per access.

    Implemented on :mod:`repro.engine`; ``backend`` selects the miss
    measurement (default ``fastsim``).  One-shot calls bypass the engine
    cache -- wrap the trace in a
    :class:`~repro.engine.workload.TraceWorkload` and an
    :class:`~repro.engine.evaluator.Evaluator` to memoise repeated sweeps.
    """
    model = energy_model if energy_model is not None else EnergyModel()
    resolved = get_backend(backend)
    bundle = TraceBundle(
        trace=trace, conflict_free=conflict_free_layout, events=events
    )
    measurement = resolved.measure(trace, config)
    add_bs = address_bus_switching(trace.addresses, gray=gray_code)
    return assemble_estimate(bundle, config, measurement, model, add_bs)


class MemExplorer:
    """Run Algorithm MemExplore over one kernel.

    A thin consumer of :class:`repro.engine.Evaluator` that keeps the
    historical interface.

    Parameters
    ----------
    kernel:
        The workload.  Estimates cover **one** invocation; the Section 5
        composite model applies the ``trip(j)`` weights.
    energy_model:
        Section 2.3 model (technology constants + off-chip ``Em``).
    optimize_layout:
        Apply the Section 4.1 assignment per ``(T, L)`` (default); when
        False, use the dense unoptimized placement throughout.
    gray_code:
        Gray-code the address bus when measuring ``Add_bs``.
    backend:
        Miss-measurement backend name or instance (``fastsim``,
        ``reference``, ``sampled``, ``analytic``).
    """

    def __init__(
        self,
        kernel: Kernel,
        energy_model: Optional[EnergyModel] = None,
        optimize_layout: bool = True,
        gray_code: bool = True,
        backend: Union[str, Backend, None] = None,
    ) -> None:
        self.kernel = kernel
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.optimize_layout = optimize_layout
        self.gray_code = gray_code
        self.evaluator = Evaluator(
            KernelWorkload(kernel, optimize_layout=optimize_layout),
            backend=backend,
            energy_model=self.energy_model,
            gray_code=gray_code,
        )

    @property
    def backend(self) -> Backend:
        """The miss-measurement backend in use."""
        return self.evaluator.backend

    def _trace_for(self, config: CacheConfig) -> Tuple[MemoryTrace, bool]:
        """Deprecated: the engine's :class:`EvalCache` memoises traces now."""
        warnings.warn(
            "MemExplorer._trace_for is deprecated; traces are managed by "
            "repro.engine (KernelWorkload.trace_for + EvalCache)",
            DeprecationWarning,
            stacklevel=2,
        )
        bundle = self.evaluator._bundle_for(config)
        return bundle.trace, bundle.conflict_free

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """Estimate miss rate, cycles and energy for one configuration."""
        return self.evaluator.evaluate(config)

    def explore(
        self,
        configs: Optional[Iterable[CacheConfig]] = None,
        max_size: int = 1024,
        progress: Optional[Callable[[PerformanceEstimate], None]] = None,
        jobs: int = 1,
        resilience=None,
        **space_kwargs,
    ) -> ExplorationResult:
        """Evaluate a configuration set (default: the full MemExplore space).

        ``space_kwargs`` are forwarded to
        :func:`~repro.core.config.design_space` when ``configs`` is not
        given.  Configurations are re-ordered so that the associativity
        sweep shares each generated trace; ``jobs > 1`` distributes the
        sweep across processes with bit-identical results.  ``resilience``
        (a :class:`~repro.engine.resilience.ResilienceOptions`) opts into
        per-chunk retries, timeouts and checkpoint/resume.
        """
        logger.info(
            "MemExplore: kernel=%s backend=%s optimize_layout=%s jobs=%d",
            self.kernel.name,
            self.backend.name,
            self.optimize_layout,
            jobs,
        )
        return self.evaluator.sweep(
            configs=configs,
            max_size=max_size,
            jobs=jobs,
            progress=progress,
            resilience=resilience,
            **space_kwargs,
        )
