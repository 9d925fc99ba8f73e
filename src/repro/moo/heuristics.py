"""Classic single-objective heuristics, living in the search subsystem.

The exact greedy coordinate-descent and bound-pruned sweep, plus
:class:`Searcher` adapters so both strategies are first-class citizens of
the ``searcher`` registry kind and show up in ``repro plugins`` alongside
NSGA-II and grammatical evolution.

The functional entry points (:func:`greedy_descent`,
:func:`pruned_min_energy`) are byte-for-byte the historical algorithms;
the adapters re-express them in the batch ask/tell protocol so the moo
driver can run them with deduplicated, store-deduplicated generations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import CacheConfig, config_sort_key, powers_of_two
from repro.core.metrics import PerformanceEstimate
from repro.engine.result import ExplorationResult

__all__ = [
    "GreedyDescentSearcher",
    "PrunedSweepSearcher",
    "SearchOutcome",
    "greedy_descent",
    "pruned_min_energy",
]

Point = Tuple[float, ...]
EvaluatorFn = Callable[[CacheConfig], PerformanceEstimate]


@dataclass(frozen=True)
class SearchOutcome:
    """Best point found plus the cost of finding it."""

    best: PerformanceEstimate
    evaluations: int
    visited: Tuple[CacheConfig, ...]

    @property
    def result(self) -> ExplorationResult:
        """The visited estimates are not retained; expose the best only."""
        return ExplorationResult([self.best])


def _candidate_values(
    kind: str,
    config: CacheConfig,
    sizes: Sequence[int],
    line_sizes: Sequence[int],
    ways: Sequence[int],
    tilings: Sequence[int],
) -> List[CacheConfig]:
    if kind == "size":
        return [CacheConfig(v, config.line_size, config.ways, config.tiling)
                for v in sizes if v >= config.line_size * config.ways]
    if kind == "line":
        return [CacheConfig(config.size, v, config.ways, config.tiling)
                for v in line_sizes if v * config.ways <= config.size]
    if kind == "ways":
        return [CacheConfig(config.size, config.line_size, v, config.tiling)
                for v in ways if v * config.line_size <= config.size]
    return [CacheConfig(config.size, config.line_size, config.ways, v)
            for v in tilings]


def greedy_descent(
    evaluator: EvaluatorFn,
    objective: str = "energy",
    seed: Optional[CacheConfig] = None,
    sizes: Sequence[int] = powers_of_two(16, 1024),
    line_sizes: Sequence[int] = (4, 8, 16, 32, 64),
    ways: Sequence[int] = (1, 2, 4, 8),
    tilings: Sequence[int] = (1, 2, 4, 8),
    max_rounds: int = 8,
):
    """Coordinate-descent search for the best configuration.

    ``objective`` is ``"energy"`` or ``"cycles"``.  Finds a local optimum
    of the design space; on the bundled kernels' well-behaved surfaces it
    reaches the global optimum with ~10x fewer evaluations (measured by
    the search ablation bench).
    """
    if objective not in ("energy", "cycles"):
        raise ValueError("objective must be 'energy' or 'cycles'")
    key = (
        (lambda e: (e.energy_nj, e.cycles))
        if objective == "energy"
        else (lambda e: (e.cycles, e.energy_nj))
    )
    if seed is None:
        seed = CacheConfig(sizes[len(sizes) // 2], line_sizes[0])
    cache: dict = {}
    visited: List[CacheConfig] = []

    def evaluate(config: CacheConfig) -> PerformanceEstimate:
        if config not in cache:
            cache[config] = evaluator(config)
            visited.append(config)
        return cache[config]

    best = evaluate(seed)
    for _ in range(max_rounds):
        improved = False
        for kind in ("size", "line", "ways", "tiling"):
            candidates = _candidate_values(
                kind, best.config, sizes, line_sizes, ways, tilings
            )
            for candidate in candidates:
                estimate = evaluate(candidate)
                if key(estimate) < key(best):
                    best = estimate
                    improved = True
        if not improved:
            break
    return SearchOutcome(
        best=best, evaluations=len(visited), visited=tuple(visited)
    )


def pruned_min_energy(
    evaluator: EvaluatorFn,
    configs: Sequence[CacheConfig],
    hit_energy_bound: Callable[[CacheConfig], float],
) -> SearchOutcome:
    """Exhaustive minimum-energy sweep with sound lower-bound pruning.

    ``hit_energy_bound(config)`` must be a true lower bound on the total
    energy of ``config`` (the all-hit energy ``events * E_hit`` is one:
    misses only add energy).  Configurations whose bound exceeds the best
    total seen are skipped without evaluation, preserving optimality.
    """
    best: Optional[PerformanceEstimate] = None
    visited: List[CacheConfig] = []
    ordered = sorted(configs, key=config_sort_key)
    for config in ordered:
        if best is not None and hit_energy_bound(config) > best.energy_nj:
            continue
        estimate = evaluator(config)
        visited.append(config)
        if best is None or (estimate.energy_nj, estimate.cycles) < (
            best.energy_nj,
            best.cycles,
        ):
            best = estimate
    if best is None:
        raise ValueError("no configurations to search")
    return SearchOutcome(
        best=best, evaluations=len(visited), visited=tuple(visited)
    )


class GreedyDescentSearcher:
    """Batch coordinate descent expressed in the ask/tell protocol.

    It opens on the seeds plus the smallest-geometry member of the middle
    cache size.  Each generation asks for every one-axis neighbour of the
    incumbent best (minimising the objective vector lexicographically, so
    the first objective dominates) and moves to the best improvement; it
    finishes -- ``ask`` returns ``[]`` -- once a full round improves
    nothing.  It asks only for members of the space.
    """

    name = "greedy"

    def __init__(self) -> None:
        self._members: Set[CacheConfig] = set()
        self._axes: Dict[str, Tuple[int, ...]] = {}
        self._fitness: Dict[CacheConfig, Point] = {}
        self._best: Optional[CacheConfig] = None
        self._pending: List[CacheConfig] = []
        self._done = False

    def setup(
        self,
        space: Sequence[CacheConfig],
        *,
        population: int,
        generations: int,
        seed: int = 0,
        seeds: Sequence[CacheConfig] = (),
    ) -> None:
        self._members = set(space)
        if not self._members:
            raise ValueError("cannot search an empty space")
        self._axes = {
            "sizes": tuple(sorted({c.size for c in self._members})),
            "line_sizes": tuple(sorted({c.line_size for c in self._members})),
            "ways": tuple(sorted({c.ways for c in self._members})),
            "tilings": tuple(sorted({c.tiling for c in self._members})),
        }
        self._fitness = {}
        self._done = False
        self._best = None
        sizes = self._axes["sizes"]
        middle = sizes[len(sizes) // 2]
        start = min(
            (c for c in self._members if c.size == middle),
            key=lambda c: (c.line_size, c.ways, c.tiling),
        )
        self._pending = [
            c for c in dict.fromkeys([*seeds, start]) if c in self._members
        ]

    def _neighbours(self, config: CacheConfig) -> List[CacheConfig]:
        axes = self._axes
        pool: List[CacheConfig] = []
        for kind in ("size", "line", "ways", "tiling"):
            pool.extend(
                _candidate_values(
                    kind,
                    config,
                    axes["sizes"],
                    axes["line_sizes"],
                    axes["ways"],
                    axes["tilings"],
                )
            )
        return [c for c in dict.fromkeys(pool) if c in self._members]

    def ask(self) -> List[CacheConfig]:
        if self._done:
            return []
        return list(self._pending)

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        for config, vector in results:
            self._fitness[config] = tuple(vector)
        scored = [c for c in self._fitness]
        if not scored:
            self._done = True
            return
        incumbent = self._best
        best = min(scored, key=lambda c: (self._fitness[c], config_sort_key(c)))
        if incumbent is not None and self._fitness[best] >= self._fitness[incumbent]:
            self._done = True
            return
        self._best = best
        self._pending = [
            c for c in self._neighbours(best) if c not in self._fitness
        ]
        if not self._pending:
            self._done = True


class PrunedSweepSearcher:
    """The exhaustive sweep as a searcher: canonical order, batched asks.

    Without an energy lower bound available through the protocol this
    enumerates the space in canonical order, one population-sized batch
    per generation -- the baseline every pruned or evolutionary strategy
    is measured against.  The historical bound-pruned variant remains
    available as :func:`pruned_min_energy`.
    """

    name = "pruned"

    def __init__(self) -> None:
        self._ordered: List[CacheConfig] = []
        self._cursor = 0
        self._batch = 0

    def setup(
        self,
        space: Sequence[CacheConfig],
        *,
        population: int,
        generations: int,
        seed: int = 0,
        seeds: Sequence[CacheConfig] = (),
    ) -> None:
        self._ordered = sorted(set(space), key=config_sort_key)
        if not self._ordered:
            raise ValueError("cannot search an empty space")
        self._cursor = 0
        self._batch = max(1, population)

    def ask(self) -> List[CacheConfig]:
        return self._ordered[self._cursor:self._cursor + self._batch]

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        self._cursor += self._batch
