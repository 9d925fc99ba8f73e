"""repro.moo: multi-objective memory-configuration search.

Exhaustive grids stop scaling the moment the design space grows past the
paper's few hundred points; this package finds the energy/time/area
Pareto front while evaluating only a small fraction of the space.  The
pieces:

* :mod:`repro.moo.searchers` -- the ask/tell :class:`Searcher` protocol
  plus :class:`NSGA2Searcher` and :class:`GrammaticalEvolutionSearcher`,
  registered under the ``searcher`` registry kind;
* :mod:`repro.moo.heuristics` -- the classic greedy-descent and pruned
  sweep strategies (:func:`greedy_descent`, :func:`pruned_min_energy`,
  both returning a :class:`SearchOutcome`);
* :mod:`repro.moo.grammar` -- the integer-genome -> configuration
  grammar evolutionary searchers breed over;
* :mod:`repro.moo.archive` -- the bounded elitist
  :class:`FrontArchive` with generation snapshots and exact, monotone
  hypervolume tracking;
* :mod:`repro.moo.seeding` -- analytic-model + min-cache-bound initial
  populations, so searches start near the front for free;
* :mod:`repro.moo.driver` -- :func:`run_search`: the deterministic,
  resumable, cancellable generation loop every consumer (CLI, service,
  benchmarks) drives.

Quickstart::

    from repro.engine import Evaluator, KernelWorkload
    from repro.kernels import make_kernel
    from repro.moo import SearchSettings, run_search

    evaluator = Evaluator(KernelWorkload(make_kernel("matmul")), backend="onepass")
    run = run_search(
        evaluator,
        space=list(design_space(max_size=512)),
        settings=SearchSettings(searcher="nsga2", generations=12, population=16),
    )
    for estimate in run.front:
        print(estimate.config.label(full=True), estimate.cycles, estimate.energy_nj)
"""

from repro.moo.archive import FRONT_SCHEMA, FrontArchive, crowding_distances
from repro.moo.driver import (
    MOO_CHECKPOINT_SCHEMA,
    SearchCheckpoint,
    SearchRun,
    SearchSettings,
    run_search,
    search_fingerprint,
)
from repro.moo.grammar import ConfigGrammar
from repro.moo.heuristics import (
    GreedyDescentSearcher,
    PrunedSweepSearcher,
    SearchOutcome,
    greedy_descent,
    pruned_min_energy,
)
from repro.moo.objectives import OBJECTIVES, objective_vector, reference_point
from repro.moo.searchers import (
    GrammaticalEvolutionSearcher,
    NSGA2Searcher,
    Searcher,
    fast_nondominated_sort,
)
from repro.moo.seeding import analytic_seeds

__all__ = [
    "FRONT_SCHEMA",
    "MOO_CHECKPOINT_SCHEMA",
    "OBJECTIVES",
    "ConfigGrammar",
    "FrontArchive",
    "GrammaticalEvolutionSearcher",
    "GreedyDescentSearcher",
    "NSGA2Searcher",
    "PrunedSweepSearcher",
    "SearchCheckpoint",
    "SearchOutcome",
    "SearchRun",
    "SearchSettings",
    "Searcher",
    "analytic_seeds",
    "crowding_distances",
    "fast_nondominated_sort",
    "greedy_descent",
    "objective_vector",
    "pruned_min_energy",
    "reference_point",
    "run_search",
    "search_fingerprint",
]
