"""Split vs unified caches: spending one on-chip budget on I and D.

The paper explores the data cache alone (and sketches the instruction side
as future work).  A real SoC splits one silicon budget between the two --
or buys a single unified cache serving both streams.  This module builds
the merged instruction+data trace of a loop kernel (each iteration fetches
its loop body, then performs its data accesses) and compares:

* **split** -- an instruction cache and a data cache, each a power-of-two
  share of the budget, each serving its own stream;
* **unified** -- one cache of the full budget serving the interleaved
  stream, where hot loop code and data evict each other.

The expected embedded-systems result (borne out by the bench): a tiny
dedicated I-cache pins the loop body, so the best split beats the unified
cache whenever the data stream is eviction-prone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cache.stackdist import grid_miss_counts
from repro.cache.trace import MemoryTrace
from repro.core.config import powers_of_two
from repro.kernels.base import Kernel

__all__ = ["SplitComparison", "merged_trace", "split_vs_unified"]

#: Instruction width in bytes (matches the basic-block model's default).
INSTRUCTION_BYTES = 4


def merged_trace(
    kernel: Kernel,
    body_instructions: int = 12,
    code_base: Optional[int] = None,
) -> Tuple[MemoryTrace, np.ndarray]:
    """Interleave per-iteration instruction fetches with the data accesses.

    Returns the merged trace plus a boolean mask marking the instruction
    fetches.  The loop body is ``body_instructions`` straight-line
    instructions starting at ``code_base`` (defaults to just past the data
    footprint, rounded to 4 KiB -- code and data segments are disjoint).
    """
    if body_instructions < 1:
        raise ValueError("a loop body needs at least one instruction")
    data = kernel.trace()
    if code_base is None:
        footprint = int(data.addresses.max()) + 1 if len(data) else 0
        code_base = -(-footprint // 4096) * 4096
    iterations = kernel.nest.iterations
    refs_per_iter = len(kernel.nest.refs)
    fetches = code_base + INSTRUCTION_BYTES * np.arange(
        body_instructions, dtype=np.int64
    )

    addresses: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    data_matrix = data.addresses.reshape(iterations, refs_per_iter)
    for it in range(iterations):
        addresses.append(fetches)
        masks.append(np.ones(body_instructions, dtype=bool))
        addresses.append(data_matrix[it])
        masks.append(np.zeros(refs_per_iter, dtype=bool))
    merged = MemoryTrace(np.concatenate(addresses))
    return merged, np.concatenate(masks)


def _direct_mapped_misses(
    line_ids: np.ndarray, sizes: Set[int], line_size: int
) -> Dict[int, int]:
    """Direct-mapped LRU miss count of ``line_ids`` at each cache size."""
    points = {size: (size // line_size, 1) for size in sizes}
    counts = grid_miss_counts(
        line_ids, np.zeros(line_ids.size, dtype=bool), points.values()
    )
    return {size: counts[point].misses for size, point in points.items()}


@dataclass(frozen=True)
class SplitComparison:
    """One budget: the best split pair vs the unified cache."""

    budget: int
    line_size: int
    best_icache: int
    best_dcache: int
    split_misses: int
    unified_misses: int

    @property
    def winner(self) -> str:
        """``"split"`` or ``"unified"`` by total miss count."""
        return "split" if self.split_misses <= self.unified_misses else "unified"


def split_vs_unified(
    kernel: Kernel,
    budget: int,
    line_size: int = 8,
    body_instructions: int = 12,
) -> SplitComparison:
    """Best split of ``budget`` bytes vs one unified cache (direct-mapped).

    The split search tries every power-of-two partition with at least one
    line per side; both organisations serve the same merged trace.
    """
    if budget < 2 * line_size:
        raise ValueError("budget must hold at least one line per side")
    merged, is_fetch = merged_trace(kernel, body_instructions)
    line_ids = merged.line_ids(line_size)
    pairs = []
    for i_size in powers_of_two(line_size, budget - line_size):
        remainder = budget - i_size
        d_size = 1 << (remainder.bit_length() - 1)  # round down to 2^k
        if d_size >= line_size:
            pairs.append((i_size, d_size))
    i_misses = _direct_mapped_misses(
        line_ids[is_fetch], {i for i, _ in pairs}, line_size
    )
    d_misses = _direct_mapped_misses(
        line_ids[~is_fetch], {d for _, d in pairs}, line_size
    )
    # Ties go to the smallest I-cache, the first pair in size order.
    split_misses, best_icache, best_dcache = min(
        (i_misses[i] + d_misses[d], i, d) for i, d in pairs
    )
    unified = _direct_mapped_misses(line_ids, {budget}, line_size)
    return SplitComparison(
        budget=budget,
        line_size=line_size,
        best_icache=best_icache,
        best_dcache=best_dcache,
        split_misses=split_misses,
        unified_misses=unified[budget],
    )
