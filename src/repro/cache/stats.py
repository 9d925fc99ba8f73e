"""Cache statistics and 3C miss classification.

:class:`CacheStats` is what the simulator fills in: overall and per-reference
hit/miss counts, plus write-back traffic.  :func:`classify_misses` implements
Hill's classic three-C breakdown -- compulsory (first touch of a line),
capacity (misses a fully-associative LRU cache of the same size also takes),
and conflict (the rest).  Conflict misses are the quantity the Section 4.1
off-chip assignment eliminates, so this classification is how the
reproduction *verifies* that claim rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cache.stackdist import COLD, set_local_distances
from repro.cache.trace import MemoryTrace

__all__ = ["CacheStats", "MissClassification", "classify_misses"]


@dataclass
class CacheStats:
    """Counters produced by one simulation run."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    per_ref_hits: Dict[int, int] = field(default_factory=dict)
    per_ref_misses: Dict[int, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 for an empty trace)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 for an empty trace)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def read_accesses(self) -> int:
        """Total read accesses."""
        return self.read_hits + self.read_misses

    @property
    def read_miss_rate(self) -> float:
        """Miss rate over read accesses only (the paper's energy input)."""
        reads = self.read_accesses
        return self.read_misses / reads if reads else 0.0

    def record(self, hit: bool, is_write: bool, ref_id: int) -> None:
        """Account one access."""
        self.accesses += 1
        if hit:
            self.hits += 1
            self.per_ref_hits[ref_id] = self.per_ref_hits.get(ref_id, 0) + 1
            if is_write:
                self.write_hits += 1
            else:
                self.read_hits += 1
        else:
            self.misses += 1
            self.per_ref_misses[ref_id] = self.per_ref_misses.get(ref_id, 0) + 1
            if is_write:
                self.write_misses += 1
            else:
                self.read_misses += 1

    def check_consistency(self) -> None:
        """Raise :class:`AssertionError` if the counters disagree."""
        assert self.hits + self.misses == self.accesses
        assert self.read_hits + self.write_hits == self.hits
        assert self.read_misses + self.write_misses == self.misses
        assert sum(self.per_ref_hits.values()) == self.hits
        assert sum(self.per_ref_misses.values()) == self.misses


@dataclass(frozen=True)
class MissClassification:
    """Three-C breakdown of the misses of one run."""

    compulsory: int
    capacity: int
    conflict: int

    @property
    def total(self) -> int:
        """Total misses across the three classes."""
        return self.compulsory + self.capacity + self.conflict


def classify_misses(
    trace: MemoryTrace, size: int, line_size: int
) -> MissClassification:
    """Three-C classification for a cache of ``size`` bytes, ``line_size`` lines.

    The classification is associativity-independent by construction: it
    compares the trace against an idealised fully-associative LRU cache of
    the same capacity, read off one stack-distance pass (first touches are
    compulsory; warm accesses deeper than the capacity are capacity
    misses).  The caller pairs it with the simulator's actual miss
    count for the geometry of interest; ``conflict`` here is reported as
    ``actual - compulsory - capacity`` by
    :meth:`repro.cache.simulator.CacheSimulator.classified_misses`.
    """
    if size <= 0 or line_size <= 0 or size % line_size:
        raise ValueError("cache size must be a positive multiple of line size")
    distances = set_local_distances(trace.line_ids(line_size), 1)
    compulsory = int((distances == COLD).sum())
    capacity = int((distances > size // line_size).sum())
    return MissClassification(compulsory=compulsory, capacity=capacity, conflict=0)
