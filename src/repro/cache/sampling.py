"""Set sampling: estimate miss rates from a fraction of the cache sets.

The classic trick for scaling trace-driven studies (Puzak; later the
backbone of hardware utility monitors): because a set-associative cache's
sets operate independently, simulating only every ``k``-th set and scaling
by the sampled fraction estimates the whole cache's miss count from a
fraction of the trace.  Exact for uniformly spread traffic; the error on
skewed traffic is what the sampling ablation bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.stackdist import GridCounts, grid_miss_counts

__all__ = ["SampledEstimate", "sampled_counts", "sampled_miss_rate"]


@dataclass(frozen=True)
class SampledEstimate:
    """A sampled miss-rate estimate and its coverage."""

    miss_rate: float
    sampled_accesses: int
    total_accesses: int
    sampled_sets: int
    total_sets: int

    @property
    def coverage(self) -> float:
        """Fraction of the trace actually simulated."""
        if not self.total_accesses:
            return 0.0
        return self.sampled_accesses / self.total_accesses


def sampled_counts(
    line_ids: np.ndarray,
    is_write: np.ndarray,
    num_sets: int,
    ways: int,
    sample_every: int = 4,
    offset: int = 0,
) -> GridCounts:
    """Exact LRU counts of the accesses that map to the sampled sets.

    The sampled sets are ``{offset, offset + sample_every, ...}``; their
    accesses are simulated exactly (set behaviour is independent of the
    discarded traffic), misses and read misses in one
    :func:`~repro.cache.stackdist.grid_miss_counts` pass.
    """
    if sample_every < 1:
        raise ValueError("sampling stride must be at least 1")
    if not 0 <= offset < sample_every:
        raise ValueError("offset must lie in [0, sample_every)")
    line_ids = np.asarray(line_ids, dtype=np.int64)
    mask = (line_ids % num_sets) % sample_every == offset
    point = (num_sets, ways)
    is_write = np.asarray(is_write, dtype=bool)
    return grid_miss_counts(line_ids[mask], is_write[mask], [point])[point]


def sampled_miss_rate(
    line_ids: np.ndarray,
    num_sets: int,
    ways: int,
    sample_every: int = 4,
    offset: int = 0,
) -> SampledEstimate:
    """Estimate the LRU miss rate simulating every ``sample_every``-th set.

    The miss rate of the sampled sets (:func:`sampled_counts`) estimates
    the whole.  ``sample_every = 1`` degenerates to the exact computation.
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    counts = sampled_counts(
        line_ids,
        np.zeros(line_ids.size, dtype=bool),
        num_sets,
        ways,
        sample_every,
        offset,
    )
    return SampledEstimate(
        miss_rate=counts.misses / counts.accesses if counts.accesses else 0.0,
        sampled_accesses=counts.accesses,
        total_accesses=int(line_ids.size),
        sampled_sets=len(range(offset, num_sets, sample_every)),
        total_sets=num_sets,
    )
