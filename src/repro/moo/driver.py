"""The search driver: generations, batching, checkpoints, cancellation.

:func:`run_search` owns the generation loop so searchers stay pure
strategies.  Each generation it asks the searcher for candidates, dedupes
them into canonical order, evaluates only the cold ones through
``Evaluator.evaluate_batch`` (one grouped one-pass/store-deduplicated
batch per generation; ``jobs > 1`` fans out through
:class:`~repro.engine.parallel.ParallelSweep`), updates the
:class:`~repro.moo.archive.FrontArchive`, journals the generation and
tells the searcher its fitness vectors.

Determinism is the core contract: for a fixed seed the sequence of asked
configurations, the archive contents and the per-generation events are
identical under ``jobs=1`` and ``jobs=N``, on a clean run and on a resume
from the ``repro.moo.checkpoint/1`` journal -- the journal is a pure
evaluation cache, and "evaluations used" counts unique configurations
*requested*, not cold simulator calls, so resumed and clean runs report
the same numbers.

Cancellation follows the sweep convention: a set ``cancel_event`` raises
:class:`~repro.engine.resilience.SweepCancelledError` between generations
(and aborts a parallel in-flight generation), leaving the journal intact
so a resubmission resumes from the last complete generation.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.engine.resilience import (
    CheckpointError,
    CheckpointMismatchError,
    ResilienceOptions,
    SweepCancelledError,
    estimate_from_json,
    estimate_to_json,
    sweep_fingerprint,
)
from repro.engine.result import ExplorationResult
from repro.moo.archive import FRONT_SCHEMA, FrontArchive
from repro.moo.objectives import objective_vector, reference_point, validate_objectives
from repro.moo.seeding import analytic_seeds
from repro.moo.searchers import Searcher
from repro.obs.metrics import get_metrics
from repro.obs.spans import span

__all__ = [
    "MOO_CHECKPOINT_SCHEMA",
    "SearchCheckpoint",
    "SearchRun",
    "SearchSettings",
    "run_search",
    "search_fingerprint",
]

logger = logging.getLogger(__name__)

MOO_CHECKPOINT_SCHEMA = "repro.moo.checkpoint/1"


def _config_key(config: CacheConfig) -> Tuple[int, int, int, int]:
    return (config.size, config.line_size, config.tiling, config.ways)


def _order(configs) -> List[CacheConfig]:
    return sorted(configs, key=_config_key)


@dataclass(frozen=True)
class SearchSettings:
    """Everything that identifies one search run (and its journal)."""

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

    def canonical(self) -> str:
        """Canonical JSON (sorted keys) -- the fingerprint input."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def search_fingerprint(
    evaluator: Any, configs: Sequence[CacheConfig], settings: SearchSettings
) -> str:
    """SHA-256 identity of one search: evaluator + space + settings."""
    digest = hashlib.sha256()
    digest.update(sweep_fingerprint(evaluator, configs).encode())
    digest.update(b"|")
    digest.update(settings.canonical().encode())
    return digest.hexdigest()


class SearchCheckpoint:
    """Append-only JSONL journal of completed search generations.

    Schema (``repro.moo.checkpoint/1``), one JSON object per line::

        {"schema": ..., "fingerprint": "<sha256>", "budget": N}
        {"generation": 0, "estimates": [{estimate...}, ...]}

    Each generation record holds the estimates *newly evaluated* that
    generation; on resume their union is a pure evaluation cache and the
    deterministic searcher replays journaled generations without touching
    a backend.  Records must be contiguous from generation 0; a torn or
    out-of-order trailing record (a kill mid-write) is dropped along with
    everything after it, exactly like sweep checkpoints.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle: Optional[Any] = None

    def load(
        self, fingerprint: str
    ) -> List[List[PerformanceEstimate]]:
        """The contiguous complete generation records journaled so far."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{self.path} is not a {MOO_CHECKPOINT_SCHEMA} journal"
            ) from exc
        if not isinstance(header, dict) or header.get("schema") != MOO_CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path} is not a {MOO_CHECKPOINT_SCHEMA} journal"
            )
        if header.get("fingerprint") != fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint {self.path} was written by a different search "
                "(workload, backend, space or settings changed); delete it "
                "or drop --resume to start over"
            )
        records: List[List[PerformanceEstimate]] = []
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                generation = int(record["generation"])
                estimates = [
                    estimate_from_json(doc) for doc in record["estimates"]
                ]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                logger.warning(
                    "search checkpoint %s: ignoring torn record at line %d "
                    "(and everything after it)",
                    self.path,
                    number,
                )
                break
            if generation != len(records):
                logger.warning(
                    "search checkpoint %s: generation %d out of order at "
                    "line %d; ignoring it and everything after",
                    self.path,
                    generation,
                    number,
                )
                break
            records.append(estimates)
        return records

    def open_for_append(self, fingerprint: str, fresh: bool, budget: int) -> None:
        """Truncate + header when ``fresh``, else position for append."""
        mode = "w" if fresh or not os.path.exists(self.path) else "a"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, mode, encoding="utf-8")
        if mode == "w":
            self._write(
                {
                    "schema": MOO_CHECKPOINT_SCHEMA,
                    "fingerprint": fingerprint,
                    "budget": budget,
                }
            )

    def record_generation(
        self, generation: int, estimates: Sequence[PerformanceEstimate]
    ) -> None:
        """Append one completed generation (flushed and fsynced)."""
        if self._handle is None:
            raise RuntimeError("checkpoint is not open for append")
        self._write(
            {
                "generation": generation,
                "estimates": [estimate_to_json(e) for e in estimates],
            }
        )

    def _write(self, doc: Dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(doc, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


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


def _evaluate(
    evaluator: Any,
    configs: List[CacheConfig],
    jobs: int,
    cancel_event: Optional[threading.Event],
) -> List[PerformanceEstimate]:
    """One generation's cold evaluations (bit-identical serial/parallel)."""
    if not configs:
        return []
    if jobs and jobs > 1:
        from repro.engine.parallel import ParallelSweep

        resilience = (
            ResilienceOptions(cancel_event=cancel_event)
            if cancel_event is not None
            else None
        )
        return ParallelSweep(jobs=jobs, resilience=resilience).run(
            evaluator, configs
        )
    return evaluator.evaluate_batch(configs)


def run_search(
    evaluator: Any,
    space: Sequence[CacheConfig],
    settings: Optional[SearchSettings] = None,
    *,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    cancel_event: Optional[threading.Event] = None,
    on_generation: Optional[Callable[[Dict[str, Any], FrontArchive], None]] = None,
    searcher: Optional[Searcher] = None,
) -> SearchRun:
    """Run one multi-objective search over ``space`` and return its front.

    ``on_generation(event, archive)`` fires after every completed
    generation with the ``repro.front/1`` event just recorded -- the hook
    the serve layer uses to stream fronts and persist partial state.
    """
    settings = settings if settings is not None else SearchSettings()
    ordered_space = _order(set(space))
    if not ordered_space:
        raise ValueError("cannot search an empty configuration space")
    strategy = searcher if searcher is not None else _make_searcher(settings.searcher)
    seeds: List[CacheConfig] = []
    if settings.seed_population:
        try:
            seeds = analytic_seeds(
                evaluator, ordered_space, settings.objectives
            )
        except Exception:
            logger.warning("analytic seeding failed; starting unseeded", exc_info=True)
            seeds = []
    strategy.setup(
        ordered_space,
        population=settings.population,
        generations=settings.generations,
        seed=settings.seed,
        seeds=seeds,
    )

    journal: Optional[SearchCheckpoint] = None
    journaled_generations = 0
    evaluated: Dict[CacheConfig, PerformanceEstimate] = {}
    if checkpoint:
        fingerprint = search_fingerprint(evaluator, ordered_space, settings)
        journal = SearchCheckpoint(checkpoint)
        records: List[List[PerformanceEstimate]] = []
        if resume:
            records = journal.load(fingerprint)
        # Always rewrite: a torn trailing line must not linger mid-file.
        journal.open_for_append(fingerprint, fresh=True, budget=settings.budget)
        for generation, estimates in enumerate(records):
            journal.record_generation(generation, estimates)
            for estimate in estimates:
                evaluated[estimate.config] = estimate
        journaled_generations = len(records)
        if journaled_generations:
            logger.info(
                "search resume: %d generations (%d estimates) from %s",
                journaled_generations,
                len(evaluated),
                checkpoint,
            )

    archive = FrontArchive(
        objectives=settings.objectives,
        capacity=settings.archive_capacity,
        reference=settings.reference,
    )
    metrics = get_metrics()
    requested: set = set()
    events: List[Dict[str, Any]] = []
    generations_run = 0
    try:
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
                    fresh = _evaluate(evaluator, missing, jobs, cancel_event)
                for estimate in fresh:
                    evaluated[estimate.config] = estimate
                requested.update(admitted)
                if journal is not None and generation >= journaled_generations:
                    journal.record_generation(generation, fresh)
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
    finally:
        if journal is not None:
            journal.close()

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
