"""LRU stack analysis: exact stack distances, miss-ratio curves and
one-pass, all-configuration miss counts (vectorized Mattson).

Mattson's classic result: for a fully-associative LRU cache, an access
hits iff its *stack distance* -- the number of distinct lines touched since
the previous access to the same line -- is at most the cache's line
capacity.  One pass over the trace therefore yields the miss count of
EVERY cache size at once (the miss-ratio curve, :func:`miss_ratio_curve`).
It explains the one systematic deviation of this reproduction from the
paper: the paper's analytic model ignores cross-sweep retention, i.e. it
prices every cache size on the curve at the curve's plateau, while the
simulator follows the curve down (see EXPERIMENTS.md, Figures 3-4).

The same trick generalises to the set-associative, bit-selected caches of
the MemExplore space.  With ``set = line mod S`` a line's set never
changes, so the LRU state of each set is the global recency order
restricted to that set, and an access hits an ``(S, W)`` cache iff its
*set-local* stack distance is at most ``W``.
One pass per set count therefore yields exact miss counts for every
associativity at once, and a whole ``(sets, ways)`` grid costs one pass
per distinct set count instead of one simulation per configuration;
direct-mapped falls out as ``W = 1``.

Two vectorized passes live here (no Python loop over accesses):

* :func:`grid_miss_counts` -- the sweep workhorse.  Accesses are stably
  grouped by set index (segments stay in time order), then a *stack
  filter* peels one LRU depth per level: at level ``k`` every event
  carries the value it pushes (``P``, the top it demoted at level
  ``k-1``; at the base level its own line) and the line it looks for
  (``Q``).  Because segments are contiguous the current top is simply
  the previous event's push, so each level is one shift-and-compare;
  ``Q == P[t-1]`` means the line sat at depth exactly ``k`` and the
  event drops out, everything else survives with ``P`` replaced by the
  demoted top.  Values from different segments differ mod ``S`` and can
  never compare equal, so no boundary bookkeeping is needed.  ``cap``
  levels (the largest requested ways) over shrinking arrays price the
  whole associativity range; events still unresolved miss everywhere.
* :func:`set_local_distances` -- exact, uncapped distances.  ``prev``
  occurrences come from one stable sort on line id, and the distance of
  a warm access at grouped position ``t`` is ``c(t) - prev(t)`` where
  ``c(t) = #{s < t : prev(s) <= prev(t)}``, an inversion-style count
  computed by top-down merge counting, O(n log^2 n) inside numpy.

Histograms of either answer every ways value in O(1).  Bit-exact with
:mod:`repro.cache.fastsim` (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cache.trace import MemoryTrace

__all__ = [
    "COLD",
    "GridCounts",
    "grid_miss_counts",
    "miss_ratio_curve",
    "reuse_profile",
    "set_local_distances",
]

#: Stack distance reported for a line's first touch (a compulsory miss).
COLD = -1


@dataclass(frozen=True)
class GridCounts:
    """Exact miss behaviour of one ``(num_sets, ways)`` grid point."""

    accesses: int
    reads: int
    misses: int
    read_misses: int


# Below this block width the level loop hands over to one broadcasted
# triangular comparison; the narrow levels are overhead-bound otherwise.
_BOTTOM_WIDTH = 16


def _count_preceding_leq(values: np.ndarray) -> np.ndarray:
    """For every position ``t``: ``#{s < t : values[s] <= values[t]}``.

    Top-down merge-sort counting: one global stable argsort, then one
    cheap O(n) pass per level.  The layout invariant is "original
    positions, grouped by width-``w`` block of the *original* index,
    sorted by value within each block"; splitting a block into its halves
    is a stable partition (a cumsum), and while splitting, every
    right-half element reads off the number of left-half elements ``<=``
    itself as its rank among the lefts.  Each (s, t) pair is counted
    exactly once, at the level where the two positions last share a
    block; pairs inside the narrowest blocks are finished off with one
    broadcasted triangular comparison.
    """
    n = int(values.size)
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    width = 1
    while width < n:
        width *= 2
    if width > _BOTTOM_WIDTH:
        # Layout: original positions in global value order (stable, so
        # equal values keep time order and "<=" ties resolve correctly).
        pos = np.argsort(values, kind="stable").astype(np.int64)
        slots = np.arange(n, dtype=np.int64)
        scratch = np.empty(n, dtype=np.int64)
        while width > _BOTTOM_WIDTH:
            half = width >> 1
            right = (pos & half) != 0
            block_start = pos & ~(width - 1)
            rank = slots - block_start
            # Right-half elements strictly before each layout slot.
            before = np.empty(n, dtype=np.int64)
            before[0] = 0
            np.cumsum(right[:-1], out=before[1:])
            rights_before = before - before[block_start]
            lefts_before = rank - rights_before
            counts[pos[right]] += lefts_before[right]
            # Stable partition into the two half-blocks (the last block
            # may be short; its left half then holds whatever remains).
            left_count = np.minimum(half, n - block_start)
            new_slot = block_start + np.where(
                right, left_count + rights_before, lefts_before
            )
            scratch[new_slot] = pos
            pos, scratch = scratch, pos
            width = half
    # Remaining pairs live inside width-sized blocks of original
    # positions: one triangular broadcast finishes them.
    blocks = (n + width - 1) // width
    padded = np.full(blocks * width, np.iinfo(np.int64).max, dtype=np.int64)
    padded[:n] = values
    tiles = padded.reshape(blocks, width)
    leq = tiles[:, None, :] <= tiles[:, :, None]
    strictly_before = np.tril(np.ones((width, width), dtype=bool), k=-1)
    counts += (leq & strictly_before).sum(axis=2).ravel()[:n]
    return counts


def set_local_distances(line_ids: np.ndarray, num_sets: int) -> np.ndarray:
    """Per-access LRU stack distance *within each access's set*.

    ``COLD`` marks first touches.  An access with distance ``d`` hits
    every ``num_sets``-set LRU cache with at least ``d`` ways;
    ``num_sets = 1`` gives the classic fully-associative stack distance
    (1 means "the most recently used line was re-touched").
    """
    if num_sets < 1:
        raise ValueError("num_sets must be positive")
    line_ids = np.asarray(line_ids, dtype=np.int64)
    n = line_ids.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    set_ids = line_ids % num_sets
    order = np.argsort(set_ids, kind="stable")
    grouped_lines = line_ids[order]
    grouped_sets = set_ids[order]
    positions = np.arange(n, dtype=np.int64)
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = grouped_sets[1:] != grouped_sets[:-1]
    seg_start = np.maximum.accumulate(np.where(is_start, positions, 0))
    # Previous occurrence of the same line, as a grouped position.  A
    # line's set is fixed, so "same line" already implies "same segment".
    by_line = np.argsort(grouped_lines, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    same = grouped_lines[by_line[1:]] == grouped_lines[by_line[:-1]]
    prev[by_line[1:][same]] = by_line[:-1][same]
    cold = prev < 0
    prev[cold] = seg_start[cold] - 1
    distances = _count_preceding_leq(prev) - prev
    distances[cold] = COLD
    out = np.empty(n, dtype=np.int64)
    out[order] = distances
    return out


def _capped_hit_histograms(
    line_ids: np.ndarray,
    read_mask: np.ndarray,
    num_sets: int,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hits at each exact stack depth ``1..cap``, total and read-only.

    The stack filter: group by set, then per level shift-and-compare.
    Every event pushes its ``P`` (own line at the base level, the
    demoted top afterwards), so the top seen by event ``t`` is
    ``P[t-1]``; a match resolves the event at depth ``k``, everything
    else survives to the next level carrying the demoted top.  Pushes
    that cross a segment boundary (or the ``-1`` start sentinel) differ
    mod ``num_sets`` from every query in the segment, so they behave as
    an empty stack and simply produce the misses they should.
    """
    hits_all = np.zeros(cap + 1, dtype=np.int64)
    hits_read = np.zeros(cap + 1, dtype=np.int64)
    if num_sets == 1:
        queries = line_ids
        reads = read_mask
    else:
        order = np.argsort(line_ids % num_sets, kind="stable")
        queries = line_ids[order]
        reads = read_mask[order]
    pushes = queries
    for depth in range(1, cap + 1):
        if queries.size == 0:
            break
        top = np.empty_like(pushes)
        top[0] = -1
        top[1:] = pushes[:-1]
        hit = queries == top
        resolved = int(hit.sum())
        if resolved:
            hits_all[depth] = resolved
            hits_read[depth] = int((hit & reads).sum())
            survive = ~hit
            queries = queries[survive]
            pushes = top[survive]
            reads = reads[survive]
        else:
            pushes = top
    return hits_all, hits_read


def grid_miss_counts(
    line_ids: np.ndarray,
    is_write: np.ndarray,
    points: Iterable[Tuple[int, int]],
) -> Dict[Tuple[int, int], GridCounts]:
    """Exact miss counts for every requested ``(num_sets, ways)`` point.

    One stack-filter pass per *distinct set count* prices every
    associativity at that set count: an access misses ``(S, W)`` iff its
    set-local stack depth exceeds ``W`` (cold accesses never resolve and
    miss everywhere).
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    if line_ids.shape != is_write.shape:
        raise ValueError("line_ids and is_write must have the same length")
    by_sets: Dict[int, List[int]] = {}
    for num_sets, ways in points:
        num_sets, ways = int(num_sets), int(ways)
        if num_sets < 1 or ways < 1:
            raise ValueError("grid points need positive sets and ways")
        by_sets.setdefault(num_sets, []).append(ways)
    n = int(line_ids.size)
    read_mask = ~is_write
    reads = int(read_mask.sum())
    results: Dict[Tuple[int, int], GridCounts] = {}
    for num_sets in sorted(by_sets):
        ways_list = sorted(set(by_sets[num_sets]))
        if n == 0:
            for ways in ways_list:
                results[(num_sets, ways)] = GridCounts(0, 0, 0, 0)
            continue
        cap = ways_list[-1]
        hits_all, hits_read = _capped_hit_histograms(
            line_ids, read_mask, num_sets, cap
        )
        cum_all = np.cumsum(hits_all)
        cum_read = np.cumsum(hits_read)
        for ways in ways_list:
            results[(num_sets, ways)] = GridCounts(
                accesses=n,
                reads=reads,
                misses=n - int(cum_all[ways]),
                read_misses=reads - int(cum_read[ways]),
            )
    return results


def miss_ratio_curve(
    trace: MemoryTrace, line_size: int, capacities: Sequence[int]
) -> Dict[int, float]:
    """Fully-associative LRU miss ratio at each capacity (in lines).

    One stack-distance pass prices every requested capacity: an access
    misses a ``c``-line cache iff it is cold or its distance exceeds ``c``.
    """
    if any(c <= 0 for c in capacities):
        raise ValueError("capacities must be positive line counts")
    distances = set_local_distances(trace.line_ids(line_size), 1)
    n = distances.size
    if n == 0:
        return {c: 0.0 for c in capacities}
    cold = int((distances == COLD).sum())
    warm = distances[distances != COLD]
    return {
        c: (cold + int((warm > c).sum())) / n
        for c in capacities
    }


def reuse_profile(trace: MemoryTrace, line_size: int) -> Dict[str, float]:
    """Summary statistics of a trace's temporal locality.

    Returns the compulsory fraction, the median and 90th-percentile stack
    distance of the warm accesses, and the line-capacity knee: the
    smallest power-of-two capacity whose fully-associative miss ratio is
    within 1% of compulsory-only.
    """
    distances = set_local_distances(trace.line_ids(line_size), 1)
    n = distances.size
    if n == 0:
        return {
            "compulsory_fraction": 0.0,
            "median_distance": 0.0,
            "p90_distance": 0.0,
            "knee_lines": 1,
        }
    cold_mask = distances == COLD
    warm = distances[~cold_mask]
    compulsory_fraction = float(cold_mask.mean())
    if warm.size == 0:
        return {
            "compulsory_fraction": compulsory_fraction,
            "median_distance": 0.0,
            "p90_distance": 0.0,
            "knee_lines": 1,
        }
    floor_mr = compulsory_fraction
    knee = 1
    while True:
        mr = (int(cold_mask.sum()) + int((warm > knee).sum())) / n
        if mr <= floor_mr + 0.01 or knee > int(warm.max()):
            break
        knee *= 2
    return {
        "compulsory_fraction": compulsory_fraction,
        "median_distance": float(np.median(warm)),
        "p90_distance": float(np.percentile(warm, 90)),
        "knee_lines": knee,
    }
