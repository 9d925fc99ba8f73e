"""Cache configurations and the MemExplore design space.

Algorithm MemExplore sweeps, all in powers of two::

    for on-chip memory size M:
      for cache size T (< M):
        for line size L (< T):
          for set associativity S (<= 8):
            for tiling size B (<= T/L):
              estimate performance

:class:`CacheConfig` is one ``(T, L, S, B)`` point; :func:`design_space`
enumerates the sweep.  The paper labels configurations ``C<T>L<L>`` (e.g.
``C64L16``), which :meth:`CacheConfig.label` reproduces, extended with
``S``/``B`` suffixes when they differ from the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Tuple

__all__ = ["CacheConfig", "config_sort_key", "design_space", "powers_of_two"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def powers_of_two(low: int, high: int) -> Tuple[int, ...]:
    """All powers of two in ``[low, high]`` (inclusive)."""
    if low <= 0 or high <= 0:
        raise ValueError("bounds must be positive")
    value = 1
    while value < low:
        value *= 2
    result = []
    while value <= high:
        result.append(value)
        value *= 2
    return tuple(result)


@dataclass(frozen=True, order=True)
class CacheConfig:
    """One MemExplore design point: ``(T, L, S, B)``."""

    size: int
    line_size: int
    ways: int = 1
    tiling: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("cache size T", self.size),
            ("line size L", self.line_size),
            ("set associativity S", self.ways),
            ("tiling size B", self.tiling),
        ):
            if not _is_pow2(value):
                raise ValueError(f"{label} must be a power of two, got {value}")
        if self.line_size > self.size:
            raise ValueError("line size exceeds cache size")
        if self.ways > self.num_lines:
            raise ValueError("more ways than cache lines")
        # Algorithm MemExplore bounds B by T/L, but Figures 6 and 7 plot
        # tiling sizes past the line count to show the degradation once the
        # tile no longer fits, so the bound is applied by design_space()
        # rather than here.

    def __hash__(self) -> int:
        # Configurations key every search, store and estimate dict, so the
        # dataclass field-tuple hash is computed once and kept in the
        # instance dict.  It is not a field: ``==``, ordering and ``repr``
        # ignore it, and ``__getstate__`` leaves it out of pickles and
        # copies.  Most configurations are hashed a handful of times, so
        # the first call avoids a raised KeyError and ``object.__setattr__``.
        state = self.__dict__
        value = state.get("_hash")
        if value is None:
            value = state["_hash"] = hash(
                (self.size, self.line_size, self.ways, self.tiling)
            )
        return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def num_lines(self) -> int:
        """Number of cache lines ``T / L``."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets ``T / (L * S)``."""
        return self.num_lines // self.ways

    def label(self, full: bool = False) -> str:
        """The paper's ``C<T>L<L>`` label; ``full`` appends S and B."""
        base = f"C{self.size}L{self.line_size}"
        if full or self.ways != 1 or self.tiling != 1:
            base += f"S{self.ways}B{self.tiling}"
        return base

    def with_tiling(self, tiling: int) -> "CacheConfig":
        """A copy with a different tiling size."""
        return replace(self, tiling=tiling)

    def with_ways(self, ways: int) -> "CacheConfig":
        """A copy with a different associativity."""
        return replace(self, ways=ways)

    def __str__(self) -> str:
        return self.label(full=True)


def config_sort_key(config: CacheConfig) -> Tuple[int, int, int, int]:
    """The canonical sweep order of configurations: ``(T, L, B, S)``."""
    return (config.size, config.line_size, config.tiling, config.ways)


def design_space(
    max_size: int,
    min_size: int = 16,
    min_line: int = 4,
    max_line: int = 256,
    max_ways: int = 8,
    sizes: Optional[Sequence[int]] = None,
    line_sizes: Optional[Sequence[int]] = None,
    ways: Optional[Sequence[int]] = None,
    tilings: Optional[Sequence[int]] = None,
) -> Iterator[CacheConfig]:
    """Enumerate the MemExplore sweep.

    By default sizes run over powers of two in ``[min_size, max_size]``,
    line sizes in ``[min_line, min(max_line, T)]``, associativities in
    ``[1, max_ways]`` limited to the line count, and tilings in
    ``[1, T/L]``.  Any dimension can be pinned with an explicit sequence;
    infeasible combinations from explicit sequences are skipped silently so
    callers can pass one flat list per dimension.
    """
    size_list = tuple(sizes) if sizes is not None else powers_of_two(min_size, max_size)
    for size in size_list:
        if line_sizes is not None:
            lines = tuple(line_sizes)
        else:
            lines = powers_of_two(min_line, min(max_line, size))
        for line in lines:
            if line > size:
                continue
            num_lines = size // line
            if ways is not None:
                way_list = tuple(ways)
            else:
                way_list = powers_of_two(1, min(max_ways, num_lines))
            for way in way_list:
                if way > num_lines:
                    continue
                if tilings is not None:
                    tiling_list = tuple(tilings)
                else:
                    tiling_list = powers_of_two(1, num_lines)
                for tiling in tiling_list:
                    if tiling > num_lines:
                        continue
                    yield CacheConfig(size, line, way, tiling)
