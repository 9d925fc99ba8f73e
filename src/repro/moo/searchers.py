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

Both keep their populations as integers -- rows of the space's
:class:`~repro.moo.grammar.RowIndex` and genomes -- and meet
configurations only in ``ask`` and ``tell``.

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
from repro.moo.grammar import RowIndex, row_index

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


def _select(
    items: Sequence, vectors: Sequence[Point], count: int
) -> Tuple[List, List[Tuple[int, float, object]]]:
    """The ``count`` best items by (rank, -crowding); plus their tournament keys.

    Items are rows (which order as their configurations do) or genomes,
    and break exact score ties themselves.  Returns the survivors in
    deterministic order and, per survivor, the ``(rank, -crowding
    distance, item)`` key binary tournaments compare.
    """
    survivors: List = []
    keys: List[Tuple[int, float, object]] = []
    for rank, front in enumerate(fast_nondominated_sort(vectors)):
        distances = crowding_distances([vectors[i] for i in front])
        ranked = sorted(
            zip(front, distances),
            key=lambda pair: (-pair[1], vectors[pair[0]], items[pair[0]]),
        )
        for index, distance in ranked[: count - len(survivors)]:
            survivors.append(items[index])
            keys.append((rank, -distance, items[index]))
        if len(survivors) == count:
            break
    return survivors, keys


def _tournament(rng: random.Random, keys: Sequence[Tuple]) -> int:
    """Binary tournament: the position with the smaller key."""
    a = rng.randrange(len(keys))
    b = rng.randrange(len(keys))
    return b if keys[b] < keys[a] else a


def _check_rate(value: float, label: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} rate must lie in [0, 1]")
    return value


def _record_fitness(
    fitness: Dict[int, Point],
    row_of: Dict[CacheConfig, int],
    results: Sequence[Tuple[CacheConfig, Point]],
) -> None:
    # Only asked configurations can re-enter a population, and every asked
    # configuration has a row.
    for config, vector in results:
        row = row_of.get(config)
        if row is not None:
            fitness[row] = tuple(vector)


class NSGA2Searcher(Searcher):
    """Non-dominated sorting GA with crowding distance (NSGA-II).

    Individuals are rows of the space's :class:`~repro.moo.grammar.RowIndex`,
    bred as their axis-index genomes; variation is uniform crossover plus
    per-axis random-reset mutation.  Selection is the standard (mu+lambda)
    environmental selection over parents and offspring.  Configurations
    appear only in :meth:`ask` and :meth:`tell`.
    """

    name = "nsga2"

    def __init__(
        self, crossover_rate: float = 0.9, mutation_rate: Optional[float] = None
    ) -> None:
        self.crossover_rate = _check_rate(crossover_rate, "crossover")
        self.mutation_rate = (
            None if mutation_rate is None else _check_rate(mutation_rate, "mutation")
        )
        self._rng: random.Random = random.Random(0)
        self._index: Optional[RowIndex] = None
        self._population = 0
        self._fitness: Dict[int, Point] = {}
        self._parents: List[int] = []
        self._pending: List[int] = []

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
        if not space:
            raise ValueError("cannot search an empty space")
        seeds = list(dict.fromkeys(seeds))[:population]
        index = row_index(space)
        if any(config not in index.row_of for config in seeds):
            index = RowIndex(space, extra=seeds)
        self._rng = random.Random(seed)
        self._index = index
        self._population = population
        self._fitness = {}
        self._parents = []
        initial = [index.row_of[config] for config in seeds]
        chosen = set(initial)
        remaining = [row for row in index.space_rows if row not in chosen]
        while len(initial) < population and remaining:
            initial.append(remaining.pop(self._rng.randrange(len(remaining))))
        self._pending = initial

    def ask(self) -> List[CacheConfig]:
        assert self._index is not None
        rows = self._index.rows
        return [rows[row] for row in self._pending]

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        assert self._index is not None
        _record_fitness(self._fitness, self._index.row_of, results)
        pool = [
            row
            for row in dict.fromkeys(self._parents + self._pending)
            if row in self._fitness
        ]
        if not pool:
            self._pending = []
            return
        vectors = [self._fitness[row] for row in pool]
        survivors, keys = _select(pool, vectors, min(self._population, len(pool)))
        self._parents = survivors
        self._pending = self._breed(survivors, keys)

    def _breed(self, survivors: List[int], keys) -> List[int]:
        index = self._index
        assert index is not None
        rng = self._rng
        limits = index.grammar.axis_sizes
        width = len(limits)
        mutation = (
            self.mutation_rate
            if self.mutation_rate is not None
            else 1.0 / index.grammar.length
        )
        genomes = [index.genome_of[row] for row in survivors]
        children: List[int] = []
        while len(children) < self._population:
            genome_a = genomes[_tournament(rng, keys)]
            genome_b = genomes[_tournament(rng, keys)]
            child = list(genome_a)
            if rng.random() < self.crossover_rate:
                child = [
                    genome_b[i] if rng.random() < 0.5 else genome_a[i]
                    for i in range(width)
                ]
            for position in range(width):
                if rng.random() < mutation:
                    child[position] = rng.randrange(limits[position])
            children.append(index.decode(child))
        return children


class GrammaticalEvolutionSearcher(Searcher):
    """Grammatical evolution over redundant, wrapping integer genomes.

    Genomes carry twice as many codons as the grammar has axes, decoded
    with wrapping -- the neutral redundancy that gives GE its smooth
    search surface.  Environmental selection reuses the NSGA-II ranking
    on decoded phenotype fitness; variation is one-point crossover plus
    per-codon reset mutation.  Genomes decode to rows of the space's
    :class:`~repro.moo.grammar.RowIndex` by table lookup.
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
        self.crossover_rate = _check_rate(crossover_rate, "crossover")
        self.mutation_rate = _check_rate(mutation_rate, "mutation")
        self._rng: random.Random = random.Random(0)
        self._index: Optional[RowIndex] = None
        self._population = 0
        self._fitness: Dict[int, Point] = {}
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
        if not space:
            raise ValueError("cannot search an empty space")
        self._rng = random.Random(seed)
        self._index = row_index(space)
        grammar = self._index.grammar
        self._population = population
        self._fitness = {}
        self._parents = []
        genomes: List[Tuple[int, ...]] = []
        for config in dict.fromkeys(seeds):
            base = grammar.encode(config)
            padded = tuple(base[i % len(base)] for i in range(self.genome_length))
            genomes.append(padded)
            if len(genomes) == population:
                break
        while len(genomes) < population:
            genomes.append(grammar.random_genome(self._rng, self.genome_length))
        self._pending = genomes

    def ask(self) -> List[CacheConfig]:
        index = self._index
        assert index is not None
        return [index.rows[index.decode(genome)] for genome in self._pending]

    def tell(self, results: Sequence[Tuple[CacheConfig, Point]]) -> None:
        index = self._index
        assert index is not None
        _record_fitness(self._fitness, index.row_of, results)
        scored: List[Tuple[int, ...]] = []
        vectors: List[Point] = []
        for genome in dict.fromkeys(self._parents + self._pending):
            vector = self._fitness.get(index.decode(genome))
            if vector is not None:
                scored.append(genome)
                vectors.append(vector)
        if not scored:
            self._pending = []
            return
        survivors, keys = _select(scored, vectors, min(self._population, len(scored)))
        self._parents = survivors
        self._pending = self._breed(survivors, keys)

    def _breed(self, survivors: List[Tuple[int, ...]], keys) -> List[Tuple[int, ...]]:
        index = self._index
        assert index is not None
        rng = self._rng
        limits = index.grammar.axis_sizes
        children: List[Tuple[int, ...]] = []
        while len(children) < self._population:
            mother = survivors[_tournament(rng, keys)]
            father = survivors[_tournament(rng, keys)]
            child = list(mother)
            if rng.random() < self.crossover_rate:
                cut = rng.randrange(1, self.genome_length)
                child = list(mother[:cut]) + list(father[cut:])
            for position in range(len(child)):
                if rng.random() < self.mutation_rate:
                    child[position] = rng.randrange(limits[position % len(limits)])
            children.append(tuple(child))
        return children
