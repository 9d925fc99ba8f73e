"""Array-to-scratchpad allocation.

Panda/Dutt/Nicolau partition a program's arrays between a scratchpad and
off-chip memory so that the most frequently accessed data lives on chip.
With per-array access counts known exactly (affine nests make them a
closed-form product of trip counts), the partitioning is a 0/1 knapsack:
maximise captured accesses subject to the scratchpad capacity.  Array
sizes here are small (bytes to kilobytes), so the classic
dynamic-programming solution over capacity is exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.kernels.base import Kernel
from repro.loops.ir import LoopNest

__all__ = ["Allocation", "allocate_arrays", "array_access_counts"]


def array_access_counts(nest: LoopNest) -> Dict[str, int]:
    """Exact per-array access counts of one nest execution.

    Every reference fires once per iteration, so an array's count is
    (number of references to it) x (iterations).
    """
    counts: Dict[str, int] = {decl.name: 0 for decl in nest.arrays}
    for ref in nest.refs:
        counts[ref.array] += nest.iterations
    return counts


@dataclass(frozen=True)
class Allocation:
    """Result of the knapsack: which arrays live in the scratchpad."""

    capacity: int
    mapped: Tuple[str, ...]
    mapped_bytes: int
    captured_accesses: int
    total_accesses: int

    @property
    def hit_fraction(self) -> float:
        """Fraction of accesses served by the scratchpad."""
        if self.total_accesses == 0:
            return 0.0
        return self.captured_accesses / self.total_accesses


def allocate_arrays(kernel: Kernel, capacity: int) -> Allocation:
    """Optimal 0/1 knapsack allocation of ``kernel``'s arrays.

    Maximises captured accesses under ``capacity`` bytes; ties are broken
    toward smaller footprints (leaving room is never worse).
    """
    if capacity < 0:
        raise ValueError("scratchpad capacity must be non-negative")
    nest = kernel.nest
    counts = array_access_counts(nest)
    items = [
        (decl.name, decl.size_bytes, counts[decl.name])
        for decl in nest.arrays
        if counts[decl.name] > 0
    ]
    total_accesses = sum(value for _, _, value in items)

    # DP over capacity: best[c] = (captured, -bytes_used, chosen frozenset).
    best: List[Tuple[int, int, Tuple[str, ...]]] = [(0, 0, ())] * (capacity + 1)
    for name, size, value in items:
        if size > capacity:
            continue
        for c in range(capacity, size - 1, -1):
            candidate_value = best[c - size][0] + value
            candidate_bytes = -best[c - size][1] + size
            if (candidate_value, -candidate_bytes) > (best[c][0], best[c][1]):
                best[c] = (
                    candidate_value,
                    -candidate_bytes,
                    best[c - size][2] + (name,),
                )
    captured, neg_bytes, chosen = best[capacity]
    return Allocation(
        capacity=capacity,
        mapped=tuple(sorted(chosen)),
        mapped_bytes=-neg_bytes,
        captured_accesses=captured,
        total_accesses=total_accesses,
    )
