"""Vectorized fast path for design-space sweeps.

Algorithm MemExplore simulates every ``(T, L, S, B)`` combination; the
object-oriented :class:`~repro.cache.simulator.CacheSimulator` is convenient
but slow for the thousands of configurations a full sweep visits.  This
module computes the per-access miss vector directly from the line-id stream:

* accesses are stably grouped by set index, turning the simulation into an
  independent scan per set;
* direct-mapped sets reduce to "miss iff the line differs from the previous
  line in the same set", which vectorizes completely;
* set-associative sets run a compact LRU list per set (at most 8 ways in the
  paper's space), which is cheap because each access is handled exactly once.

The result is bit-exact with the reference simulator under LRU (asserted by
the test suite, including property-based cross-checks).
"""

from __future__ import annotations

import numpy as np

__all__ = ["fast_miss_vector"]


def _direct_mapped_miss_vector(
    line_ids: np.ndarray, num_sets: int
) -> np.ndarray:
    set_ids = line_ids % num_sets
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order]
    sorted_lines = line_ids[order]
    miss_sorted = np.ones(line_ids.size, dtype=bool)
    if line_ids.size > 1:
        same_set = sorted_sets[1:] == sorted_sets[:-1]
        same_line = sorted_lines[1:] == sorted_lines[:-1]
        miss_sorted[1:] = ~(same_set & same_line)
    miss = np.empty_like(miss_sorted)
    miss[order] = miss_sorted
    return miss


def _associative_miss_vector(
    line_ids: np.ndarray, num_sets: int, ways: int
) -> np.ndarray:
    set_ids = line_ids % num_sets
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order].tolist()
    sorted_lines = line_ids[order].tolist()
    miss_sorted = np.zeros(line_ids.size, dtype=bool)
    current_set = -1
    lru: list = []
    for i, (s, line) in enumerate(zip(sorted_sets, sorted_lines)):
        if s != current_set:
            current_set = s
            lru = []
        if line in lru:
            lru.remove(line)
            lru.append(line)
        else:
            miss_sorted[i] = True
            if len(lru) >= ways:
                lru.pop(0)
            lru.append(line)
    miss = np.empty_like(miss_sorted)
    miss[order] = miss_sorted
    return miss


def fast_miss_vector(
    line_ids: np.ndarray, num_sets: int, ways: int
) -> np.ndarray:
    """Per-access LRU miss flags for the given geometry.

    ``line_ids`` is the global line-number stream
    (:meth:`repro.cache.trace.MemoryTrace.line_ids`); ``num_sets * ways``
    lines make up the cache.
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("geometry parameters must be positive")
    line_ids = np.ascontiguousarray(line_ids, dtype=np.int64)
    if line_ids.size == 0:
        return np.zeros(0, dtype=bool)
    if ways == 1:
        return _direct_mapped_miss_vector(line_ids, num_sets)
    return _associative_miss_vector(line_ids, num_sets, ways)

