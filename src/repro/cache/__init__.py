"""Trace-driven cache simulation substrate.

The paper derived miss rates from closed-form expressions "rather than
developing a trace driven simulator that could be ported to Dinero".  This
reproduction builds the simulator anyway and uses it as ground truth: it is a
small Dinero-style set-associative simulator with pluggable replacement
policies, write policies, 3C miss classification, and a vectorized fast path
for the large design-space sweeps of Algorithm MemExplore.
"""

from repro.cache.trace import MemoryAccess, MemoryTrace
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.cache.simulator import CacheGeometry, CacheSimulator, simulate_trace
from repro.cache.stats import CacheStats, MissClassification, classify_misses
from repro.cache.stackdist import (
    GridCounts,
    grid_miss_counts,
    miss_ratio_curve,
    reuse_profile,
    set_local_distances,
)
from repro.cache.sampling import SampledEstimate, sampled_miss_rate
from repro.cache.hierarchy import HierarchyStats, TwoLevelCache
from repro.cache.prefetch import PrefetchCache, PrefetchStats
from repro.cache.writebuffer import WriteBuffer, WriteBufferStats
from repro.cache.victim import VictimCache, VictimStats
from repro.cache.dinero import read_din_trace, write_din_trace

__all__ = [
    "CacheGeometry",
    "CacheSimulator",
    "CacheStats",
    "FIFOPolicy",
    "HierarchyStats",
    "LRUPolicy",
    "MemoryAccess",
    "MemoryTrace",
    "MissClassification",
    "PrefetchCache",
    "PrefetchStats",
    "RandomPolicy",
    "ReplacementPolicy",
    "TwoLevelCache",
    "VictimCache",
    "VictimStats",
    "WriteBuffer",
    "WriteBufferStats",
    "GridCounts",
    "classify_misses",
    "grid_miss_counts",
    "make_policy",
    "miss_ratio_curve",
    "reuse_profile",
    "set_local_distances",
    "SampledEstimate",
    "sampled_miss_rate",
    "read_din_trace",
    "simulate_trace",
    "write_din_trace",
]
