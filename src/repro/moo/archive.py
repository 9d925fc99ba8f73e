"""The elitist non-dominated archive behind every search.

:class:`FrontArchive` accumulates the best trade-off points seen so far:
estimates are admitted only while non-dominated, equal-objective duplicates
collapse to the smallest configuration, and when the archive outgrows its
capacity the most crowded interior points are pruned first (objective-space
extremes are never dropped).  The archive is a pure function of the *set*
of estimates fed to it, so serial and parallel searches agree bit for bit.

Hypervolume is tracked against a fixed reference point over the *complete*
non-dominated point set (including points later pruned from the bounded
estimate archive), which makes the per-generation hypervolume series
exactly monotone for an elitist search -- the property the streaming
``repro.front/1`` events advertise and CI asserts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import config_sort_key
from repro.core.metrics import PerformanceEstimate
from repro.core.pareto import dominance_matrix, hypervolume, pareto_points
from repro.moo.objectives import objective_vector, validate_objectives

__all__ = ["FRONT_SCHEMA", "FrontArchive", "crowding_distances"]

#: Schema tag of streamed front events and persisted front manifests.
FRONT_SCHEMA = "repro.front/1"

Point = Tuple[float, ...]


def crowding_distances(vectors: Sequence[Point]) -> List[float]:
    """NSGA-II crowding distance of each vector within its set.

    Boundary points (per-objective extremes) get ``inf``; interior points
    get the normalised side length of the cuboid spanned by their
    neighbours.  Deterministic: ties in an objective are broken by the
    full vector, so equal inputs always produce equal outputs.
    """
    count = len(vectors)
    if count == 0:
        return []
    if count <= 2:
        return [float("inf")] * count
    distances = [0.0] * count
    width = len(vectors[0])
    for axis in range(width):
        order = sorted(range(count), key=lambda i: (vectors[i][axis], vectors[i]))
        low = vectors[order[0]][axis]
        high = vectors[order[-1]][axis]
        span_width = high - low
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        if span_width <= 0:
            continue
        for position in range(1, count - 1):
            if distances[order[position]] == float("inf"):
                continue
            gap = (
                vectors[order[position + 1]][axis]
                - vectors[order[position - 1]][axis]
            )
            distances[order[position]] += gap / span_width
    return distances


class FrontArchive:
    """Bounded elitist non-dominated archive with generation snapshots."""

    def __init__(
        self,
        objectives: Sequence[str] = ("cycles", "energy"),
        capacity: int = 128,
        reference: Optional[Sequence[float]] = None,
    ) -> None:
        self.objectives = validate_objectives(objectives)
        if capacity < 4:
            raise ValueError("archive capacity must be at least 4")
        self.capacity = capacity
        self._reference: Optional[Point] = (
            tuple(float(v) for v in reference) if reference is not None else None
        )
        if self._reference is not None and len(self._reference) != len(self.objectives):
            raise ValueError("reference dimensionality does not match objectives")
        # (vector, estimate), non-dominated, sorted by (vector, config key).
        self._entries: List[Tuple[Point, PerformanceEstimate]] = []
        # The complete non-dominated point set ever seen (vectors only);
        # basis of the exact, monotone hypervolume series.
        self._points: List[Point] = []
        self.snapshots: List[Dict[str, Any]] = []

    @property
    def reference(self) -> Optional[Point]:
        """The fixed hypervolume reference point (``None`` until set)."""
        return self._reference

    def set_reference(self, reference: Sequence[float]) -> None:
        """Pin the reference; it may be set once and never changed."""
        candidate = tuple(float(v) for v in reference)
        if len(candidate) != len(self.objectives):
            raise ValueError("reference dimensionality does not match objectives")
        if self._reference is not None and self._reference != candidate:
            raise ValueError("hypervolume reference is fixed once set")
        self._reference = candidate

    def __len__(self) -> int:
        return len(self._entries)

    def vector_of(self, estimate: PerformanceEstimate) -> Point:
        """The archive's objective vector for one estimate."""
        return objective_vector(estimate, self.objectives)

    def add(self, estimates: Iterable[PerformanceEstimate]) -> int:
        """Merge estimates into the archive; returns how many were admitted.

        Admission recomputes the non-dominated set over old and new entries
        together, dedupes equal objective vectors onto the smallest
        configuration, and prunes to capacity by crowding distance.
        """
        candidates = list(self._entries)
        fresh = 0
        for estimate in estimates:
            vector = self.vector_of(estimate)
            candidates.append((vector, estimate))
            self._points.append(vector)
        # Dedupe equal vectors onto the deterministically smallest config.
        by_vector: Dict[Point, PerformanceEstimate] = {}
        for vector, estimate in candidates:
            kept = by_vector.get(vector)
            key = config_sort_key(estimate.config)
            if kept is None or key < config_sort_key(kept.config):
                by_vector[vector] = estimate
        vectors = sorted(by_vector)
        dominated = dominance_matrix(vectors).any(axis=0)
        front = [
            (v, by_vector[v]) for v, beaten in zip(vectors, dominated) if not beaten
        ]
        if len(front) > self.capacity:
            front = self._prune(front)
        previous = {id(est) for _, est in self._entries}
        fresh = sum(1 for _, est in front if id(est) not in previous)
        self._entries = front
        self._points = pareto_points(self._points)
        return fresh

    def _prune(self, front: List[Tuple[Point, PerformanceEstimate]]):
        """Drop the most crowded interior points until capacity fits."""
        entries = list(front)
        while len(entries) > self.capacity:
            distances = crowding_distances([vector for vector, _ in entries])
            victim = min(
                range(len(entries)),
                key=lambda i: (
                    distances[i],
                    entries[i][0],
                    config_sort_key(entries[i][1].config),
                ),
            )
            del entries[victim]
        return entries

    def estimates(self) -> List[PerformanceEstimate]:
        """Archive members, deterministically ordered by objective vector."""
        return [estimate for _, estimate in self._entries]

    def points(self) -> List[Point]:
        """Objective vectors of the archive members, in archive order."""
        return [vector for vector, _ in self._entries]

    def hypervolume(self) -> float:
        """Exact hypervolume of everything non-dominated seen so far."""
        if self._reference is None:
            raise ValueError("hypervolume needs a reference point")
        if not self._points:
            return 0.0
        return hypervolume(self._points, self._reference)

    def front_doc(self) -> List[Dict[str, Any]]:
        """JSON-compatible description of the archive members."""
        doc = []
        for vector, estimate in self._entries:
            config = estimate.config
            doc.append(
                {
                    "config": [config.size, config.line_size, config.ways, config.tiling],
                    "label": config.label(full=True),
                    "objectives": {
                        name: value for name, value in zip(self.objectives, vector)
                    },
                }
            )
        return doc

    def record_generation(self, generation: int, evaluations: int) -> Dict[str, Any]:
        """Snapshot the archive as one ``repro.front/1`` generation event."""
        event = {
            "schema": FRONT_SCHEMA,
            "event": "front",
            "generation": generation,
            "evaluations": evaluations,
            "archive_size": len(self._entries),
            "objectives": list(self.objectives),
            "reference": list(self._reference) if self._reference else None,
            "hypervolume": self.hypervolume() if self._reference else None,
            "points": self.front_doc(),
        }
        self.snapshots.append(event)
        return event
