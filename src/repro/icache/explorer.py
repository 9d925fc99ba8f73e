"""Instruction-cache exploration over basic-block traces.

A thin consumer of :mod:`repro.engine`: the fetch trace of a
:class:`~repro.icache.blocks.ControlFlowTrace` becomes an
:class:`~repro.engine.workload.InstructionWorkload` and flows through the
same evaluation pipeline as the data-side explorers.  The design space
drops the tiling dimension (``B`` is pinned to 1 -- tiling is a
data-locality transformation), matching how the paper proposes merging
Kirovski's application-driven instruction-side method with its data-side
exploration.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional, Union

from repro.core.config import CacheConfig, design_space
from repro.core.metrics import PerformanceEstimate
from repro.energy.model import EnergyModel
from repro.engine.backends import Backend
from repro.engine.evaluator import Evaluator
from repro.engine.result import ExplorationResult
from repro.engine.workload import InstructionWorkload
from repro.icache.blocks import ControlFlowTrace

__all__ = ["ICacheExplorer"]

logger = logging.getLogger(__name__)


class ICacheExplorer:
    """MemExplore over an instruction-fetch stream."""

    def __init__(
        self,
        execution: ControlFlowTrace,
        energy_model: Optional[EnergyModel] = None,
        gray_code: bool = True,
        backend: Union[str, Backend, None] = None,
    ) -> None:
        self.execution = execution
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.gray_code = gray_code
        self.workload = InstructionWorkload(execution)
        self.evaluator = Evaluator(
            self.workload,
            backend=backend,
            energy_model=self.energy_model,
            gray_code=gray_code,
        )

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """Metrics of one instruction-cache configuration."""
        return self.evaluator.evaluate(config)

    def explore(
        self,
        configs: Optional[Iterable[CacheConfig]] = None,
        max_size: int = 1024,
        jobs: int = 1,
        **space_kwargs,
    ) -> ExplorationResult:
        """Sweep the (T, L, S) space (tiling pinned to 1)."""
        if configs is None:
            space_kwargs.setdefault("tilings", (1,))
            configs = design_space(max_size=max_size, **space_kwargs)
        logger.info(
            "ICacheExplore: %d fetch accesses, backend=%s jobs=%d",
            len(self.workload.trace),
            self.evaluator.backend.name,
            jobs,
        )
        return self.evaluator.sweep(configs=configs, jobs=jobs)
