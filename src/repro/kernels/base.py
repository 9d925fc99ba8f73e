"""Kernel wrapper: a loop nest plus exploration metadata.

A :class:`Kernel` bundles the :class:`~repro.loops.ir.LoopNest` with the
knobs the exploration needs: how many of its innermost loops tiling applies
to, how many times the kernel is invoked inside a larger program (the
``trip(j)`` of Section 5), and the original pseudo-code for documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cache.trace import MemoryTrace
from repro.layout.address_map import DataLayout, default_layout
from repro.layout.assignment import AssignmentResult, assign_offchip_layout
from repro.loops.ir import LoopNest
from repro.loops.reuse import min_cache_lines, min_cache_size
from repro.loops.trace_gen import generate_trace

__all__ = ["Kernel"]


@dataclass(frozen=True)
class Kernel:
    """A benchmark workload: loop nest + exploration metadata.

    A kernel is swept over many cache geometries, so the work that does
    not depend on the geometry is done once per instance: the hash (see
    :meth:`__hash__`), and the nest's reference grouping, compatibility
    and ``(H, c)`` parts (:meth:`LoopNest.analysis`).  None of it is a
    field, so a kernel that has run a sweep compares, hashes, prints and
    pickles exactly like a fresh one.
    """

    nest: LoopNest
    n_tiled: Optional[int] = None
    invocations: int = 1
    source: str = ""

    def __post_init__(self) -> None:
        if self.invocations <= 0:
            raise ValueError("invocation count must be positive")
        if self.n_tiled is not None and not 0 <= self.n_tiled <= len(self.nest.loops):
            raise ValueError(
                f"kernel {self.name!r}: cannot tile {self.n_tiled} of "
                f"{len(self.nest.loops)} loops"
            )

    def __hash__(self) -> int:
        # Kernels key every evaluation-cache entry, and hashing the whole
        # frozen nest costs microseconds, so the hash is computed once and
        # kept in the instance dict.  It is not a field: ``==`` and
        # ``repr`` ignore it, and ``__getstate__`` leaves it out of
        # pickles, so a process with another hash seed computes its own.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.nest, self.n_tiled, self.invocations, self.source))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def name(self) -> str:
        """Kernel name (the nest's name)."""
        return self.nest.name

    @property
    def accesses_per_invocation(self) -> int:
        """Memory accesses of one kernel invocation."""
        return self.nest.accesses

    def with_invocations(self, invocations: int) -> "Kernel":
        """A copy invoked a different number of times."""
        return replace(self, invocations=invocations)

    def default_layout(self) -> DataLayout:
        """The unoptimized dense off-chip placement."""
        return default_layout(self.nest)

    def optimized_layout(self, cache_size: int, line_size: int) -> AssignmentResult:
        """Section 4.1 padded placement for the given geometry.

        Placement plus its simulation certificate; for a compatible nest
        the result carries the certified untiled trace, which equals
        ``self.trace(result.layout)``.
        """
        return assign_offchip_layout(self.nest, cache_size, line_size)

    def trace(
        self,
        layout: Optional[DataLayout] = None,
        tile: int = 1,
        repeat: int = 1,
    ) -> MemoryTrace:
        """Address trace of ``repeat`` invocations under ``layout``.

        Tiling (``tile > 1``) is applied to the kernel's tiled loops
        (``n_tiled`` innermost; all loops when unset).
        """
        return generate_trace(
            self.nest, layout=layout, tile=tile, n_tiled=self.n_tiled, repeat=repeat
        )

    def min_cache_lines(self, line_size: int) -> int:
        """Section 3 minimum conflict-free line count."""
        return min_cache_lines(self.nest, line_size)

    def min_cache_size(self, line_size: int) -> int:
        """Section 3 minimum conflict-free cache size in bytes."""
        return min_cache_size(self.nest, line_size)
