"""Closed-form miss-rate model (the paper's own methodology).

The authors state they "developed analytical expressions to calculate the
minimum cache line requirement, minimum cache size, off-chip data
assignment, miss rates, # of cycles and energy ... rather than developing
a trace driven simulator".  This module reconstructs that analytic layer
on top of the Section 3 class analysis, with the assumptions the paper's
numbers imply:

* the off-chip layout is the Section 4.1 conflict-free placement and the
  cache is at least the Section 3 minimum size, so **conflict misses are
  zero by construction**;
* the cache retains exactly the classes' sliding windows, so every line a
  class touches during one innermost-loop sweep is fetched once per sweep
  (**no retention across sweeps** -- the paper's miss rates depend on the
  line size but not on the cache size beyond the minimum);
* a class whose addresses do not move with the innermost loop touches its
  (static) window once per sweep.

Per class/case ``g`` with innermost step displacement ``delta_g`` bytes and
instantaneous window width ``w_g`` bytes::

    span_g   = (trip_inner - 1) * |delta_g| + w_g        bytes per sweep
    misses_g = outer_sweeps * ceil(span_g / L)
    miss rate = sum_g misses_g / total accesses

Cross-validation: at the minimum conflict-free cache size the model
reproduces the simulator exactly for the bundled compatible kernels
(Compress at C16L4: 496 misses both ways); above it the simulator's
cross-sweep retention lowers the real miss rate -- the systematic
difference between the paper's model and trace-driven truth, quantified by
``benchmarks/test_ablation_analytic.py``.

The same per-access expectations feed the Section 2.2 cycle and Section
2.3 energy models, giving :class:`AnalyticExplorer` -- a drop-in,
simulation-free counterpart of :class:`~repro.core.explorer.MemExplorer`
that evaluates a configuration in microseconds (how the authors swept the
space in 1999).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.config import CacheConfig, config_sort_key, design_space
from repro.core.cycles import processor_cycles
from repro.core.explorer import ExplorationResult
from repro.core.metrics import PerformanceEstimate
from repro.energy.area import cache_area_bits
from repro.energy.model import EnergyModel
from repro.kernels.base import Kernel
from repro.loops.ir import LoopNest
from repro.loops.reuse import ReferenceGroup, group_references

__all__ = ["AnalyticExplorer", "PricedSpace", "analytic_miss_rate", "analytic_misses"]

#: Gray-coded address-bus switching assumed by the analytic model; the
#: kernels' measured values sit between ~1 (sequential) and ~6
#: (interleaved); the model uses a fixed mid value since E_dec is tiny.
DEFAULT_ADD_BS = 2.0


def _group_geometry(nest: LoopNest, group: ReferenceGroup) -> "tuple[int, int]":
    """``(delta_bytes, width_bytes)`` of a class under the dense pitches.

    ``delta_bytes`` is how far the class's window moves per innermost-loop
    step; ``width_bytes`` its instantaneous extent.  Padding only shifts
    windows relative to each other (it never changes a single class's
    stride along the innermost loop for the outermost-dimension padding
    the Section 4.1 assignment applies), so the dense strides suffice.
    """
    decl = nest.array(group.array)
    strides = decl.row_major_strides()
    innermost = nest.loops[-1].index
    ref = nest.refs[group.ref_indices[0]]
    delta_elements = sum(
        stride * expr.coeff(innermost)
        for stride, expr in zip(strides, ref.indices)
    )
    delta_bytes = abs(delta_elements) * decl.element_size * nest.loops[-1].step
    width_bytes = (group.span + 1) * decl.element_size
    return delta_bytes, width_bytes


def analytic_misses(nest: LoopNest, line_size: int) -> int:
    """Total misses of one nest execution under the paper's assumptions."""
    if line_size <= 0:
        raise ValueError("line size must be positive")
    if not nest.loops:
        return len(nest.refs)
    inner_trips = nest.loops[-1].trip_count
    outer_sweeps = 1
    for loop in nest.loops[:-1]:
        outer_sweeps *= loop.trip_count
    total = 0
    for group in group_references(nest):
        delta, width = _group_geometry(nest, group)
        span = (inner_trips - 1) * delta + width
        total += outer_sweeps * max(1, math.ceil(span / line_size))
    return total


def analytic_miss_rate(nest: LoopNest, line_size: int) -> float:
    """Miss rate over all accesses (misses capped at the access count)."""
    accesses = nest.accesses
    if accesses == 0:
        return 0.0
    return min(analytic_misses(nest, line_size), accesses) / accesses


#: Spaces whose priced table an explorer keeps (a session searches one).
_PRICED_SPACES = 8


class PricedSpace(NamedTuple):
    """One configuration space priced by the closed-form model.

    ``configs`` is the whole space in config-key order; ``priced`` the
    members the model prices (it rejects the rest with ``ValueError``);
    ``values`` an ``(len(priced), 3)`` float64 matrix of their cycles,
    energy (nJ) and area (:func:`~repro.energy.area.cache_area_bits`).
    """

    configs: Tuple[CacheConfig, ...]
    priced: Tuple[CacheConfig, ...]
    values: np.ndarray


class AnalyticExplorer:
    """Simulation-free MemExplore using the closed-form miss model.

    Mirrors :class:`~repro.core.explorer.MemExplorer`'s interface.  The
    model assumes the Section 4.1 conflict-free layout and a cache at
    least the Section 3 minimum size for the requested line size;
    configurations below that minimum are scored as fully thrashing
    (miss rate 1.0), matching the catastrophic regime the simulator shows
    there.  Associativity does not change the analytic miss rate (no
    conflicts remain to absorb); tiling enters only the cycle model.

    Estimates are memoised per configuration and the line-size model per
    line size, so repeated sweeps of one space price each point once;
    :meth:`price_space` keeps the last few spaces' objective tables.
    """

    def __init__(
        self,
        kernel: Kernel,
        energy_model: Optional[EnergyModel] = None,
        add_bs: float = DEFAULT_ADD_BS,
    ) -> None:
        if add_bs < 0:
            raise ValueError("address-bus switching must be non-negative")
        self.kernel = kernel
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.add_bs = add_bs
        self._mr_cache: dict = {}
        self._estimates: Dict[CacheConfig, PerformanceEstimate] = {}
        self._spaces: Dict[FrozenSet[CacheConfig], PricedSpace] = {}

    def _line_model(self, line_size: int) -> Tuple[float, int]:
        """``(miss rate, Section 3 minimum cache size)`` at one line size."""
        if line_size not in self._mr_cache:
            self._mr_cache[line_size] = (
                analytic_miss_rate(self.kernel.nest, line_size),
                self.kernel.min_cache_size(line_size),
            )
        return self._mr_cache[line_size]

    def min_cache_size(self, line_size: int) -> int:
        """The kernel's Section 3 minimum cache size at ``line_size``."""
        return self._line_model(line_size)[1]

    def miss_rate(self, config: CacheConfig) -> float:
        """Analytic miss rate of the kernel at this geometry."""
        mr, min_size = self._line_model(config.line_size)
        if config.size < min_size:
            return 1.0
        return mr

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """Closed-form counterpart of :meth:`MemExplorer.evaluate`."""
        estimate = self._estimates.get(config)
        if estimate is None:
            estimate = self._estimates[config] = self._price(config)
        return estimate

    def price_space(self, configs: Iterable[CacheConfig]) -> PricedSpace:
        """The :class:`PricedSpace` of a configuration set, memoised per set."""
        key = frozenset(configs)
        table = self._spaces.get(key)
        if table is None:
            ordered = tuple(sorted(key, key=config_sort_key))
            priced = []
            rows = []
            for config in ordered:
                try:
                    estimate = self.evaluate(config)
                except ValueError:
                    continue
                priced.append(config)
                rows.append(
                    (
                        float(estimate.cycles),
                        float(estimate.energy_nj),
                        float(
                            cache_area_bits(config.size, config.line_size, config.ways)
                        ),
                    )
                )
            values = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
            values.flags.writeable = False
            table = PricedSpace(ordered, tuple(priced), values)
            # Two threads racing here build equal tables; either may stay.
            self._spaces[key] = table
            for stale in list(self._spaces)[:-_PRICED_SPACES]:
                self._spaces.pop(stale, None)
        return table

    def _price(self, config: CacheConfig) -> PerformanceEstimate:
        nest = self.kernel.nest
        miss_rate = self.miss_rate(config)
        events = nest.iterations
        cycles = processor_cycles(
            miss_rate,
            events,
            ways=config.ways,
            line_size=config.line_size,
            tiling=config.tiling,
        )
        breakdown = self.energy_model.breakdown(
            config.size,
            config.line_size,
            config.ways,
            hit_rate=1.0 - miss_rate,
            miss_rate=miss_rate,
            events=events,
            add_bs=self.add_bs,
        )
        return PerformanceEstimate(
            config=config,
            miss_rate=miss_rate,
            cycles=cycles,
            energy_nj=breakdown.total,
            events=events,
            accesses=nest.accesses,
            reads=len(nest.reads) * nest.iterations,
            read_miss_rate=miss_rate,
            add_bs=self.add_bs,
            conflict_free_layout=True,
            energy_breakdown=breakdown,
        )

    def explore(
        self,
        configs: Optional[Iterable[CacheConfig]] = None,
        max_size: int = 1024,
        **space_kwargs,
    ) -> ExplorationResult:
        """Sweep a configuration set with the closed-form model."""
        if configs is None:
            configs = design_space(max_size=max_size, **space_kwargs)
        ordered: List[CacheConfig] = sorted(configs, key=config_sort_key)
        return ExplorationResult([self.evaluate(c) for c in ordered])
