"""Integer-genome to cache-configuration grammar.

Grammatical evolution evolves flat integer genomes; this module maps them
onto valid :class:`~repro.core.config.CacheConfig` points.  The grammar is
a sequence of *axes* (cache size, line size, associativity, tiling -- and,
when hierarchy/victim/prefetch knobs land, more), each with its candidate
value list derived from the search space.  Decoding consumes one codon per
axis modulo the *feasible* choices at that derivation step, so every
genome decodes to a structurally valid configuration: line size never
exceeds cache size, associativity never exceeds the line count, tiling
never exceeds the line count.  Codons wrap when the genome is shorter than
the axis list, the classic GE trick that keeps genome length independent
of grammar depth.

Searchers run on integer *rows* rather than on configurations.  A
:class:`RowIndex` numbers every configuration a search can meet -- the
grammar's derivable product plus any space member it misses -- in
canonical config-key order, and tabulates ``encode`` per row and
``decode`` per in-range genome once; :func:`row_index` memoises one index
per distinct space, so the searches of a session share it.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.config import CacheConfig, config_sort_key

__all__ = ["ConfigGrammar", "RowIndex", "row_index"]


def _axis(values: Iterable[int], label: str) -> Tuple[int, ...]:
    axis = tuple(sorted(set(int(v) for v in values)))
    if not axis:
        raise ValueError(f"grammar axis {label!r} has no values")
    return axis


class ConfigGrammar:
    """Maps integer genomes onto the (size, line, ways, tiling) axes."""

    def __init__(
        self,
        sizes: Iterable[int],
        line_sizes: Iterable[int],
        ways: Iterable[int] = (1,),
        tilings: Iterable[int] = (1,),
    ) -> None:
        self.sizes = _axis(sizes, "sizes")
        self.line_sizes = _axis(line_sizes, "line_sizes")
        self.ways = _axis(ways, "ways")
        self.tilings = _axis(tilings, "tilings")
        if min(self.line_sizes) > min(self.sizes):
            raise ValueError("smallest line size exceeds smallest cache size")

    @classmethod
    def from_space(cls, configs: Iterable[CacheConfig]) -> "ConfigGrammar":
        """Derive the axes from an existing configuration space."""
        configs = list(configs)
        if not configs:
            raise ValueError("cannot derive a grammar from an empty space")
        return cls(
            sizes=(c.size for c in configs),
            line_sizes=(c.line_size for c in configs),
            ways=(c.ways for c in configs),
            tilings=(c.tiling for c in configs),
        )

    @property
    def length(self) -> int:
        """Codons consumed per derivation (one per axis)."""
        return 4

    @property
    def axis_sizes(self) -> Tuple[int, ...]:
        """Choice counts per axis; the codon value range for mutation."""
        return (
            len(self.sizes),
            len(self.line_sizes),
            len(self.ways),
            len(self.tilings),
        )

    def _feasible(self, size: int, line: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        num_lines = size // line
        ways_pool = tuple(w for w in self.ways if w <= num_lines) or (1,)
        tiling_pool = tuple(t for t in self.tilings if t <= num_lines) or (1,)
        return ways_pool, tiling_pool

    def decode(self, genome: Sequence[int]) -> CacheConfig:
        """Derive a valid configuration from an integer genome (wrapping)."""
        if not genome:
            raise ValueError("cannot decode an empty genome")

        def codon(index: int) -> int:
            return int(genome[index % len(genome)])

        size = self.sizes[codon(0) % len(self.sizes)]
        line_pool = tuple(l for l in self.line_sizes if l <= size)
        line = line_pool[codon(1) % len(line_pool)]
        ways_pool, tiling_pool = self._feasible(size, line)
        ways = ways_pool[codon(2) % len(ways_pool)]
        tiling = tiling_pool[codon(3) % len(tiling_pool)]
        return CacheConfig(size, line, ways, tiling)

    def encode(self, config: CacheConfig) -> Tuple[int, ...]:
        """A genome that decodes back to ``config`` (for seeding).

        Axis values missing from the grammar snap to the nearest feasible
        choice, so encoding never fails; ``decode(encode(c)) == c`` holds
        whenever ``c`` lies on the grammar's axes.
        """

        def nearest(pool: Sequence[int], value: int) -> int:
            return min(
                range(len(pool)), key=lambda i: (abs(pool[i] - value), pool[i])
            )

        size_idx = nearest(self.sizes, config.size)
        size = self.sizes[size_idx]
        line_pool = tuple(l for l in self.line_sizes if l <= size)
        line_idx = nearest(line_pool, config.line_size)
        line = line_pool[line_idx]
        ways_pool, tiling_pool = self._feasible(size, line)
        return (
            size_idx,
            line_idx,
            nearest(ways_pool, config.ways),
            nearest(tiling_pool, config.tiling),
        )

    def random_genome(self, rng: random.Random, length: int = 0) -> Tuple[int, ...]:
        """A uniform random genome (default length: one codon per axis)."""
        length = length or self.length
        limits = self.axis_sizes
        return tuple(
            rng.randrange(limits[i % len(limits)]) for i in range(length)
        )

    def configs(self) -> List[CacheConfig]:
        """The full product space the grammar can derive, canonical order."""
        result = []
        for size in self.sizes:
            for line in self.line_sizes:
                if line > size:
                    continue
                ways_pool, tiling_pool = self._feasible(size, line)
                for tiling in tiling_pool:
                    for ways in ways_pool:
                        result.append(CacheConfig(size, line, ways, tiling))
        return sorted(result, key=config_sort_key)


class RowIndex:
    """A search space's configurations as integer rows, tabulated once.

    ``rows`` holds the grammar's derivable configurations plus every space
    member they miss (a tiling above T/L, say), sorted by
    :func:`~repro.core.config.config_sort_key`, so comparing two row ids
    compares their configurations' keys.  ``row_of`` maps a configuration
    to its row, ``space_rows`` lists the space members' rows in order,
    ``genome_of[row]`` equals ``grammar.encode(rows[row])`` and
    :meth:`decode` equals ``grammar.decode`` for every in-range genome --
    the genomes ``random_genome``, mutation and ``genome_of`` produce.
    ``extra`` configurations (seeds off the space) get rows too without
    changing the grammar.
    """

    def __init__(
        self, space: Iterable[CacheConfig], extra: Iterable[CacheConfig] = ()
    ) -> None:
        space = set(space)
        self.grammar = ConfigGrammar.from_space(space)
        rows = sorted(
            space.union(self.grammar.configs(), extra), key=config_sort_key
        )
        self.rows: Tuple[CacheConfig, ...] = tuple(rows)
        self.row_of: Dict[CacheConfig, int] = {c: i for i, c in enumerate(rows)}
        self.space_rows: Tuple[int, ...] = tuple(
            sorted(self.row_of[c] for c in space)
        )
        self.genome_of: Tuple[Tuple[int, ...], ...] = tuple(
            self.grammar.encode(c) for c in rows
        )
        self._limits = self.grammar.axis_sizes
        self._decoded: Tuple[int, ...] = tuple(
            self.row_of[self.grammar.decode(genome)]
            for genome in itertools.product(*(range(n) for n in self._limits))
        )

    def decode(self, genome: Sequence[int]) -> int:
        """The row of ``grammar.decode(genome)`` for an in-range genome.

        The genome carries at least one codon per axis (later codons are
        ignored, as decoding never wraps round to them) and each axis's
        codon lies in ``range(axis_sizes[axis])``.
        """
        flat = 0
        for codon, limit in zip(genome, self._limits):
            flat = flat * limit + codon
        return self._decoded[flat]


@functools.lru_cache(maxsize=8)
def _index_of(space: FrozenSet[CacheConfig]) -> RowIndex:
    return RowIndex(space)


def row_index(space: Iterable[CacheConfig]) -> RowIndex:
    """The :class:`RowIndex` of ``space``, shared by searches of one space.

    Memoised on the set of configurations (a few spaces at a time), so a
    designer session's searches on one grid build the index once.
    """
    return _index_of(frozenset(space))
