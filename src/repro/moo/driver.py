"""The search driver: generations, batching, a result store, cancellation.

:func:`run_search` owns the generation loop so searchers stay pure
strategies.  Each generation it asks the searcher for candidates, dedupes
them into canonical order, evaluates only the cold ones -- through the
caller's :class:`~repro.engine.parallel.ParallelSweep`, or a serial one
built once per search -- updates the
:class:`~repro.moo.archive.FrontArchive` and tells the searcher its
fitness vectors.

Determinism is the core contract: for a fixed seed the sequence of asked
configurations, the archive contents and the per-generation events are
identical under a sweep of any ``jobs``, with or without a store, on a
clean run and on a resume.  The durable record is the sweep's
:class:`~repro.serve.store.ResultStore` (the CLI's ``--checkpoint``, the
service's store): each generation takes the rows stored for its
evaluator and writes the ones it evaluates, so a killed search rerun
over the same store replays the stored generations without evaluating
them, and any other search or sweep over that evaluator reuses them
too.  "Evaluations used" counts unique configurations *requested*, not
cold simulator calls, so resumed and clean runs report the same numbers.

Cancellation follows the sweep convention: a set
``sweep.resilience.cancel_event`` raises
:class:`~repro.engine.resilience.SweepCancelledError` between generations
(and aborts a parallel in-flight generation), leaving the store intact
so a resubmission resumes from the last complete generation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig, config_sort_key
from repro.core.metrics import PerformanceEstimate
from repro.engine.parallel import ParallelSweep
from repro.engine.resilience import SweepCancelledError
from repro.engine.result import ExplorationResult
from repro.moo.archive import FRONT_SCHEMA, FrontArchive
from repro.moo.objectives import objective_vector, reference_point, validate_objectives
from repro.moo.seeding import analytic_seeds
from repro.moo.searchers import Searcher
from repro.obs.metrics import get_metrics
from repro.obs.spans import span

__all__ = [
    "SearchRun",
    "SearchSettings",
    "run_search",
]

logger = logging.getLogger(__name__)


def _order(configs) -> List[CacheConfig]:
    return sorted(configs, key=config_sort_key)


@dataclass(frozen=True)
class SearchSettings:
    """Everything that identifies one search run."""

    searcher: str = "nsga2"
    generations: int = 10
    population: int = 16
    seed: int = 0
    objectives: Tuple[str, ...] = ("cycles", "energy")
    archive_capacity: int = 128
    reference: Optional[Tuple[float, ...]] = None
    seed_population: bool = True

    def __post_init__(self) -> None:
        if not self.searcher or not isinstance(self.searcher, str):
            raise ValueError("searcher must be a non-empty name")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.archive_capacity < 4:
            raise ValueError("archive capacity must be at least 4")
        object.__setattr__(self, "objectives", validate_objectives(self.objectives))
        if self.reference is not None:
            reference = tuple(float(v) for v in self.reference)
            if len(reference) != len(self.objectives):
                raise ValueError(
                    "reference dimensionality does not match objectives"
                )
            if any(v <= 0 for v in reference):
                raise ValueError("reference components must be positive")
            object.__setattr__(self, "reference", reference)

    @property
    def budget(self) -> int:
        """Nominal evaluation budget: generations x population."""
        return self.generations * self.population

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "searcher": self.searcher,
            "generations": self.generations,
            "population": self.population,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "archive_capacity": self.archive_capacity,
            "seed_population": self.seed_population,
        }
        if self.reference is not None:
            doc["reference"] = list(self.reference)
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "SearchSettings":
        if not isinstance(doc, dict):
            raise ValueError("search section must be an object")
        known = {
            "searcher",
            "generations",
            "population",
            "seed",
            "objectives",
            "archive_capacity",
            "reference",
            "seed_population",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown search fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for key in known:
            if key in doc:
                value = doc[key]
                if key == "objectives":
                    value = tuple(value)
                elif key == "reference" and value is not None:
                    value = tuple(value)
                kwargs[key] = value
        return cls(**kwargs)


@dataclass
class SearchRun:
    """What one search produced, plus the cost of producing it."""

    settings: SearchSettings
    front: List[PerformanceEstimate]
    estimates: List[PerformanceEstimate]
    events: List[Dict[str, Any]] = field(default_factory=list)
    generations: int = 0
    evaluations: int = 0
    hypervolume: float = 0.0
    reference: Tuple[float, ...] = ()

    @property
    def result(self) -> ExplorationResult:
        """The final front as a standard exploration result."""
        return ExplorationResult(self.front)

    def manifest_doc(self) -> Dict[str, Any]:
        """The ``search`` section persisted in the run manifest."""
        return {
            "schema": FRONT_SCHEMA,
            "settings": self.settings.to_json(),
            "generations": self.generations,
            "evaluations": self.evaluations,
            "reference": list(self.reference),
            "hypervolume": self.hypervolume,
            "front": [
                {
                    "config": [
                        e.config.size,
                        e.config.line_size,
                        e.config.ways,
                        e.config.tiling,
                    ],
                    "label": e.config.label(full=True),
                    "objectives": {
                        name: value
                        for name, value in zip(
                            self.settings.objectives,
                            objective_vector(e, self.settings.objectives),
                        )
                    },
                }
                for e in self.front
            ],
        }


def _make_searcher(name: str) -> Searcher:
    from repro.registry import get_registry

    return get_registry().create("searcher", name)


def _admissible(evaluator: Any, configs: List[CacheConfig]) -> List[CacheConfig]:
    """Drop candidates the workload rejects (grammar products off-space)."""
    workload = getattr(evaluator, "workload", None)
    validate = getattr(workload, "validate", None)
    if not callable(validate):
        return configs
    admitted = []
    for config in configs:
        try:
            validate(config)
        except ValueError:
            continue
        admitted.append(config)
    return admitted


def run_search(
    evaluator: Any,
    space: Sequence[CacheConfig],
    settings: Optional[SearchSettings] = None,
    *,
    sweep: Optional[ParallelSweep] = None,
    on_generation: Optional[Callable[[Dict[str, Any], FrontArchive], None]] = None,
    searcher: Optional[Searcher] = None,
) -> SearchRun:
    """Run one multi-objective search over ``space`` and return its front.

    ``sweep`` (a :class:`~repro.engine.parallel.ParallelSweep`, by
    default ``ParallelSweep(jobs=1)``) evaluates each generation's cold
    configurations: its store supplies every estimate it holds for
    ``evaluator`` and records each one this search evaluates, its workers
    fan them out, and its cancel event stops the search between
    generations.  An evaluator that raises fails the search with a
    :class:`~repro.engine.resilience.SweepChunkError`.
    ``on_generation(event, archive)`` fires after every completed
    generation with the ``repro.front/1`` event just recorded -- the hook
    the serve layer uses to stream fronts and persist partial state.
    """
    settings = settings if settings is not None else SearchSettings()
    if sweep is None:
        sweep = ParallelSweep(jobs=1)
    cancel_event = sweep.resilience.cancel_event
    ordered_space = _order(set(space))
    if not ordered_space:
        raise ValueError("cannot search an empty configuration space")
    strategy = searcher if searcher is not None else _make_searcher(settings.searcher)
    seeds: List[CacheConfig] = []
    if settings.seed_population:
        seeds = analytic_seeds(evaluator, ordered_space, settings.objectives)
    strategy.setup(
        ordered_space,
        population=settings.population,
        generations=settings.generations,
        seed=settings.seed,
        seeds=seeds,
    )

    evaluated: Dict[CacheConfig, PerformanceEstimate] = {}
    archive = FrontArchive(
        objectives=settings.objectives,
        capacity=settings.archive_capacity,
        reference=settings.reference,
    )
    metrics = get_metrics()
    requested: set = set()
    events: List[Dict[str, Any]] = []
    generations_run = 0
    with span(
        "moo.search",
        searcher=settings.searcher,
        generations=settings.generations,
        population=settings.population,
        space=len(ordered_space),
    ):
        for generation in range(settings.generations):
            if cancel_event is not None and cancel_event.is_set():
                raise SweepCancelledError(
                    f"search cancelled before generation {generation}",
                    done=len(requested),
                    total=settings.budget,
                )
            asked = strategy.ask()
            if not asked:
                break
            unique = _order(dict.fromkeys(asked))
            admitted = _admissible(evaluator, unique)
            if not admitted:
                logger.warning(
                    "generation %d proposed no admissible configurations",
                    generation,
                )
                strategy.tell([])
                continue
            missing = [c for c in admitted if c not in evaluated]
            with span(
                "moo.generation",
                generation=generation,
                configs=len(admitted),
                cold=len(missing),
            ):
                fresh = sweep.run(evaluator, missing) if missing else []
            for estimate in fresh:
                evaluated[estimate.config] = estimate
            requested.update(admitted)
            generation_estimates = [evaluated[c] for c in admitted]
            if archive.reference is None:
                vectors = [
                    objective_vector(e, settings.objectives)
                    for e in generation_estimates
                ]
                archive.set_reference(reference_point(vectors))
            archive.add(generation_estimates)
            strategy.tell(
                [
                    (c, objective_vector(evaluated[c], settings.objectives))
                    for c in admitted
                ]
            )
            generations_run = generation + 1
            event = archive.record_generation(
                generation=generation, evaluations=len(requested)
            )
            events.append(event)
            metrics.counter("moo.generations").inc()
            metrics.counter("moo.evaluations").inc(len(missing))
            metrics.gauge("moo.archive_size").set(len(archive))
            if event["hypervolume"] is not None:
                metrics.gauge("moo.hypervolume").set(event["hypervolume"])
            if on_generation is not None:
                on_generation(event, archive)

    front = archive.estimates()
    reference = archive.reference or ()
    hv = archive.hypervolume() if archive.reference is not None else 0.0
    logger.info(
        "search done: %s, %d generations, %d evaluations, front=%d, hv=%.6g",
        settings.searcher,
        generations_run,
        len(requested),
        len(front),
        hv,
    )
    return SearchRun(
        settings=settings,
        front=front,
        estimates=[evaluated[c] for c in _order(evaluated)],
        events=events,
        generations=generations_run,
        evaluations=len(requested),
        hypervolume=hv,
        reference=tuple(reference),
    )
