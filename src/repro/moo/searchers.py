"""Population-based multi-objective searchers (ask/tell protocol).

A :class:`Searcher` proposes batches of configurations (``ask``) and
receives their objective vectors back (``tell``); the generation loop,
evaluation batching, checkpointing and cancellation all live in
:mod:`repro.moo.driver`, so every searcher is a pure, deterministic
strategy object.  Two evolutionary searchers ship here:

* :class:`NSGA2Searcher` -- the classic non-dominated-sort +
  crowding-distance genetic algorithm (Deb et al.), operating on the
  axis-index genomes of :class:`~repro.moo.grammar.ConfigGrammar`;
* :class:`GrammaticalEvolutionSearcher` -- evolves redundant integer
  genomes (longer than the grammar, with codon wrapping) mapped through
  the grammar, following the L1-cache GE line of work in PAPERS.md.

Both are registered under the ``searcher`` registry kind, so third-party
strategies drop in exactly like backends do.  All randomness flows through
one ``random.Random(seed)`` and all orderings are derived from
configuration keys -- never from hash order -- so a fixed seed reproduces
the identical search under any evaluation parallelism.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.pareto import dominance_matrix
from repro.moo.archive import crowding_distances
from repro.moo.grammar import ConfigGrammar

__all__ = [
    "GrammaticalEvolutionSearcher",
    "NSGA2Searcher",
    "Searcher",
    "fast_nondominated_sort",
]

Point = Tuple[float, ...]


def fast_nondominated_sort(vectors: Sequence[Point]) -> List[List[int]]:
    """Indices grouped into Pareto fronts (rank 0 first), NSGA-II style."""
    matrix = dominance_matrix(vectors)
    dominated_by = [row.nonzero()[0].tolist() for row in matrix]
    domination_count = matrix.sum(axis=0).tolist()
    fronts: List[List[int]] = [
        [i for i, count in enumerate(domination_count) if count == 0]
    ]
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


def _config_key(config: CacheConfig) -> Tuple[int, int, int, int]:
    return (config.size, config.line_size, config.tiling, config.ways)


class Searcher(abc.ABC):
    """The ask/tell strategy protocol every searcher implements.

    Lifecycle: one :meth:`setup` call binding the search space and budget,
    then alternating :meth:`ask` (a batch of configurations to evaluate;
    empty means the searcher is finished) and :meth:`tell` (the objective
    vectors of the *unique* configurations from the last ask, in canonical
    config order).  Searchers must be deterministic functions of
    ``(space, population, generations, seed, seeds)`` and the told
    fitness values.
    """

    #: Registry name; subclasses override.
    name = "searcher"

    @abc.abstractmethod
    def setup(
        self,
        space: Sequence[CacheConfig],
        *,
        population: int,
        generations: int,
        seed: int = 0,
        seeds: Sequence[CacheConfig] = (),
    ) -> None:
        """Bind the search space and budget before the first ask."""

    @abc.abstractmethod
    def ask(self) -> List[CacheConfig]:
        """The next batch of configurations to evaluate ([] = finished)."""

    @abc.abstractmethod
    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        """Deliver objective vectors for the last ask's configurations."""


class _RankedSelection:
    """Shared NSGA-II ranking machinery over (item, vector) populations."""

    @staticmethod
    def select(
        items: Sequence,
        vectors: Sequence[Point],
        count: int,
        tie_key,
    ) -> Tuple[List, Dict[int, Tuple[int, float]]]:
        """The ``count`` best items by (rank, -crowding); plus their scores.

        Returns the survivors (deterministic order) and a map from
        survivor position to its (rank, crowding distance) for tournament
        selection.  ``tie_key(item)`` breaks exact score ties.
        """
        fronts = fast_nondominated_sort(vectors)
        chosen: List[Tuple[int, int, float]] = []  # (index, rank, crowding)
        for rank, front in enumerate(fronts):
            distances = crowding_distances([vectors[i] for i in front])
            ranked = sorted(
                zip(front, distances),
                key=lambda pair: (-pair[1], vectors[pair[0]], tie_key(items[pair[0]])),
            )
            for index, distance in ranked:
                chosen.append((index, rank, distance))
                if len(chosen) == count:
                    break
            if len(chosen) == count:
                break
        survivors = [items[index] for index, _, _ in chosen]
        scores = {
            position: (rank, distance)
            for position, (_, rank, distance) in enumerate(chosen)
        }
        return survivors, scores

    @staticmethod
    def tournament(
        rng: random.Random,
        survivors: Sequence,
        scores: Dict[int, Tuple[int, float]],
        tie_key,
    ):
        """Binary tournament on (rank, -crowding distance)."""
        a = rng.randrange(len(survivors))
        b = rng.randrange(len(survivors))

        def key(position: int):
            rank, distance = scores[position]
            return (rank, -distance, tie_key(survivors[position]))

        return survivors[min(a, b, key=key)]


class NSGA2Searcher(Searcher):
    """Non-dominated sorting GA with crowding distance (NSGA-II).

    Individuals are configurations encoded as axis-index genomes of the
    space's :class:`ConfigGrammar`; variation is uniform crossover plus
    per-axis random-reset mutation.  Selection is the standard (mu+lambda)
    environmental selection over parents and offspring.
    """

    name = "nsga2"

    def __init__(
        self, crossover_rate: float = 0.9, mutation_rate: Optional[float] = None
    ) -> None:
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self._rng: random.Random = random.Random(0)
        self._grammar: Optional[ConfigGrammar] = None
        self._population = 0
        self._fitness: Dict[CacheConfig, Point] = {}
        self._parents: List[CacheConfig] = []
        self._pending: List[CacheConfig] = []

    def setup(
        self,
        space: Sequence[CacheConfig],
        *,
        population: int,
        generations: int,
        seed: int = 0,
        seeds: Sequence[CacheConfig] = (),
    ) -> None:
        if population < 2:
            raise ValueError("population must be at least 2")
        space = sorted(set(space), key=_config_key)
        if not space:
            raise ValueError("cannot search an empty space")
        self._rng = random.Random(seed)
        self._grammar = ConfigGrammar.from_space(space)
        self._population = population
        self._fitness = {}
        self._parents = []
        initial = list(dict.fromkeys(seeds))[:population]
        remaining = [c for c in space if c not in set(initial)]
        while len(initial) < population and remaining:
            pick = remaining.pop(self._rng.randrange(len(remaining)))
            initial.append(pick)
        self._pending = initial

    def ask(self) -> List[CacheConfig]:
        return list(self._pending)

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        for config, vector in results:
            self._fitness[config] = tuple(vector)
        pool = [
            c
            for c in dict.fromkeys(self._parents + self._pending)
            if c in self._fitness
        ]
        if not pool:
            self._pending = []
            return
        vectors = [self._fitness[c] for c in pool]
        survivors, scores = _RankedSelection.select(
            pool, vectors, min(self._population, len(pool)), _config_key
        )
        self._parents = survivors
        self._pending = self._breed(survivors, scores)

    def _breed(self, survivors, scores) -> List[CacheConfig]:
        grammar = self._grammar
        assert grammar is not None
        rng = self._rng
        limits = grammar.axis_sizes
        mutation = (
            self.mutation_rate
            if self.mutation_rate is not None
            else 1.0 / grammar.length
        )
        genomes = {config: grammar.encode(config) for config in survivors}
        children: List[CacheConfig] = []
        while len(children) < self._population:
            mother = _RankedSelection.tournament(rng, survivors, scores, _config_key)
            father = _RankedSelection.tournament(rng, survivors, scores, _config_key)
            genome_a = genomes[mother]
            genome_b = genomes[father]
            child = list(genome_a)
            if rng.random() < self.crossover_rate:
                child = [
                    genome_b[i] if rng.random() < 0.5 else genome_a[i]
                    for i in range(len(genome_a))
                ]
            for position in range(len(child)):
                if rng.random() < mutation:
                    child[position] = rng.randrange(limits[position])
            children.append(grammar.decode(child))
        return children


class GrammaticalEvolutionSearcher(Searcher):
    """Grammatical evolution over redundant, wrapping integer genomes.

    Genomes carry twice as many codons as the grammar has axes, decoded
    with wrapping -- the neutral redundancy that gives GE its smooth
    search surface.  Environmental selection reuses the NSGA-II ranking
    on decoded phenotype fitness; variation is one-point crossover plus
    per-codon reset mutation.
    """

    name = "ge"

    def __init__(
        self,
        genome_length: int = 8,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.1,
    ) -> None:
        if genome_length < 4:
            raise ValueError("genome length must be at least 4")
        self.genome_length = genome_length
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self._rng: random.Random = random.Random(0)
        self._grammar: Optional[ConfigGrammar] = None
        self._population = 0
        self._fitness: Dict[CacheConfig, Point] = {}
        self._parents: List[Tuple[int, ...]] = []
        self._pending: List[Tuple[int, ...]] = []

    def setup(
        self,
        space: Sequence[CacheConfig],
        *,
        population: int,
        generations: int,
        seed: int = 0,
        seeds: Sequence[CacheConfig] = (),
    ) -> None:
        if population < 2:
            raise ValueError("population must be at least 2")
        space = sorted(set(space), key=_config_key)
        if not space:
            raise ValueError("cannot search an empty space")
        self._rng = random.Random(seed)
        self._grammar = ConfigGrammar.from_space(space)
        self._population = population
        self._fitness = {}
        self._parents = []
        genomes: List[Tuple[int, ...]] = []
        for config in dict.fromkeys(seeds):
            base = self._grammar.encode(config)
            padded = tuple(base[i % len(base)] for i in range(self.genome_length))
            genomes.append(padded)
            if len(genomes) == population:
                break
        while len(genomes) < population:
            genomes.append(self._grammar.random_genome(self._rng, self.genome_length))
        self._pending = genomes

    def _decode(self, genome: Tuple[int, ...]) -> CacheConfig:
        assert self._grammar is not None
        return self._grammar.decode(genome)

    def ask(self) -> List[CacheConfig]:
        return [self._decode(genome) for genome in self._pending]

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        for config, vector in results:
            self._fitness[config] = tuple(vector)
        pool = list(dict.fromkeys(self._parents + self._pending))
        scored = [g for g in pool if self._decode(g) in self._fitness]
        if not scored:
            self._pending = []
            return
        vectors = [self._fitness[self._decode(g)] for g in scored]
        survivors, scores = _RankedSelection.select(
            scored, vectors, min(self._population, len(scored)), tuple
        )
        self._parents = survivors
        self._pending = self._breed(survivors, scores)

    def _breed(self, survivors, scores) -> List[Tuple[int, ...]]:
        grammar = self._grammar
        assert grammar is not None
        rng = self._rng
        limits = grammar.axis_sizes
        children: List[Tuple[int, ...]] = []
        while len(children) < self._population:
            mother = _RankedSelection.tournament(rng, survivors, scores, tuple)
            father = _RankedSelection.tournament(rng, survivors, scores, tuple)
            child = list(mother)
            if rng.random() < self.crossover_rate:
                cut = rng.randrange(1, self.genome_length)
                child = list(mother[:cut]) + list(father[cut:])
            for position in range(len(child)):
                if rng.random() < self.mutation_rate:
                    child[position] = rng.randrange(limits[position % len(limits)])
            children.append(tuple(child))
        return children
