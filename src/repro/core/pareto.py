"""Energy-time Pareto analysis.

The paper's central observation is that cycles and energy pull in different
directions -- configurations that minimise one are usually not minimal in
the other -- so the useful summary of an exploration is the (cycles, energy)
Pareto frontier from which a designer picks once the bounds are known.

Beyond the estimate-based frontier the module provides objective-space
primitives used by the multi-objective search subsystem (``repro.moo``),
all over plain objective tuples under minimisation:

* ``dominance_matrix`` -- the one dominance kernel: a numpy ``(n, n)``
  boolean matrix whose ``[i, j]`` entry says point ``i`` dominates point
  ``j``.  Every non-dominated set is computed from it: ``pareto_points``
  here, NSGA-II's ``fast_nondominated_sort`` and the search archive's
  admission step;
* ``dominates`` -- the scalar pairwise test, kept as the reference the
  kernel is tested against;
* ``pareto_points`` -- the non-dominated subset, deduplicated and
  deterministically ordered;
* ``hypervolume`` -- exact for two and three objectives against a fixed
  reference point.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.config import config_sort_key
from repro.core.metrics import PerformanceEstimate

__all__ = [
    "dominance_matrix",
    "dominated_by_any",
    "dominates",
    "hypervolume",
    "pareto_front",
    "pareto_points",
    "tradeoff_range",
]

Point = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimisation).

    ``a`` dominates ``b`` when it is no worse in every objective and strictly
    better in at least one.  Vectors must have equal length.
    """
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length: {len(a)} vs {len(b)}")
    no_worse = all(x <= y for x, y in zip(a, b))
    return no_worse and any(x < y for x, y in zip(a, b))


def dominance_matrix(points: Sequence[Sequence[float]]) -> np.ndarray:
    """``D[i, j]`` is True when ``points[i]`` dominates ``points[j]``.

    The vectorised form of :func:`dominates` over every ordered pair, with
    float64 comparisons: row ``i`` lists what ``i`` dominates and column
    ``j`` what dominates ``j``.  Vectors must have equal length; an
    ``(n, k)`` array is taken as it is.  One ``(n, n)`` comparison per
    objective is ANDed into "no worse" and ORed into "strictly better".
    """
    try:
        values = np.asarray(points, dtype=np.float64)
    except ValueError:
        raise ValueError("objective vectors differ in length") from None
    if not len(values):
        return np.zeros((0, 0), dtype=bool)
    if values.ndim != 2:
        raise ValueError("objective vectors differ in length")
    count, width = values.shape
    if not width:
        return np.zeros((count, count), dtype=bool)
    left = values.T[:, :, None]
    right = values.T[:, None, :]
    no_worse = left[0] <= right[0]
    better = left[0] < right[0]
    for axis in range(1, width):
        no_worse &= left[axis] <= right[axis]
        better |= left[axis] < right[axis]
    return no_worse & better


def pareto_points(points: Iterable[Sequence[float]]) -> List[Point]:
    """Non-dominated subset of objective tuples, deduplicated and sorted.

    Equal-objective points collapse to one representative, and the result is
    ordered lexicographically -- so the output is a pure function of the
    *set* of input points, independent of input order (the determinism the
    search archive relies on under parallel evaluation).
    """
    unique = sorted({tuple(float(v) for v in p) for p in points})
    dominated = dominance_matrix(unique).any(axis=0)
    return [p for p, beaten in zip(unique, dominated) if not beaten]


def _hypervolume_2d(points: Sequence[Point], reference: Point) -> float:
    """Exact 2-D hypervolume via a sweep over the sorted frontier."""
    front = [p for p in pareto_points(points) if p[0] < reference[0] and p[1] < reference[1]]
    volume = 0.0
    prev_y = reference[1]
    for x, y in front:  # sorted by x ascending => y strictly descending
        volume += (reference[0] - x) * (prev_y - y)
        prev_y = y
    return volume


def _hypervolume_3d(points: Sequence[Point], reference: Point) -> float:
    """Exact 3-D hypervolume by slicing along the third objective.

    Between consecutive distinct z values the dominated region's cross
    section is constant, so the volume is the 2-D hypervolume of the points
    at or below the slab, times the slab height.
    """
    inside = [
        p
        for p in pareto_points(points)
        if p[0] < reference[0] and p[1] < reference[1] and p[2] < reference[2]
    ]
    if not inside:
        return 0.0
    levels = sorted({p[2] for p in inside})
    volume = 0.0
    for index, z in enumerate(levels):
        z_next = levels[index + 1] if index + 1 < len(levels) else reference[2]
        active = [p[:2] for p in inside if p[2] <= z]
        volume += _hypervolume_2d(active, reference[:2]) * (z_next - z)
    return volume


def hypervolume(points: Iterable[Sequence[float]], reference: Sequence[float]) -> float:
    """Exact hypervolume dominated by ``points`` w.r.t. ``reference`` (minimisation).

    The reference must be weakly worse than every point that should count;
    points at or beyond the reference in any objective contribute nothing.
    Supports 2 and 3 objectives exactly (1 trivially); higher dimensions are
    rejected rather than approximated.
    """
    ref = tuple(float(v) for v in reference)
    pts = [tuple(float(v) for v in p) for p in points]
    for p in pts:
        if len(p) != len(ref):
            raise ValueError(
                f"point dimensionality {len(p)} does not match reference {len(ref)}"
            )
    if not pts:
        return 0.0
    if len(ref) == 1:
        best = min(p[0] for p in pts)
        return max(0.0, ref[0] - best)
    if len(ref) == 2:
        return _hypervolume_2d(pts, ref)
    if len(ref) == 3:
        return _hypervolume_3d(pts, ref)
    raise ValueError("hypervolume supports 1, 2 or 3 objectives")


def dominated_by_any(
    estimate: PerformanceEstimate, others: Sequence[PerformanceEstimate]
) -> bool:
    """True when some other estimate Pareto-dominates this one."""
    return any(other.dominates(estimate) for other in others)


def pareto_front(
    estimates: Sequence[PerformanceEstimate],
) -> List[PerformanceEstimate]:
    """Non-dominated estimates, sorted by increasing cycles.

    Duplicate (cycles, energy) points keep a single representative -- the
    one with the smallest configuration key, independent of input order --
    so the frontier is strictly improving in energy as cycles increase and
    identical estimate sets always yield the identical frontier.
    """
    ordered = sorted(
        enumerate(estimates),
        key=lambda pair: (
            pair[1].cycles,
            pair[1].energy_nj,
            config_sort_key(pair[1].config),
            pair[0],
        ),
    )
    front: List[PerformanceEstimate] = []
    best_energy = float("inf")
    last_point: Tuple[float, float] = (float("nan"), float("nan"))
    for _, estimate in ordered:
        point = (estimate.cycles, estimate.energy_nj)
        if estimate.energy_nj < best_energy and point != last_point:
            front.append(estimate)
            best_energy = estimate.energy_nj
            last_point = point
    return front


def tradeoff_range(
    estimates: Sequence[PerformanceEstimate],
) -> Tuple[PerformanceEstimate, PerformanceEstimate]:
    """The two ends of the frontier: (min-time point, min-energy point)."""
    if not estimates:
        raise ValueError("no estimates to analyse")
    front = pareto_front(estimates)
    return front[0], front[-1]
