"""Analytic seeding: start the population near the front, for free.

The paper's Section 3 analytic model scores a configuration in closed
form, and its minimum-cache bound names the smallest cache that stops a
kernel thrashing at each line size.  Seeding the initial population with
(a) the analytic Pareto front over the search space and (b) the smallest
in-space configuration at or above the min-cache bound per line size
means most generations start within mutation distance of the true front
-- without a single simulator call.

Trace workloads have no kernel, so they seed nothing and the searcher
falls back to its random initialisation; configurations the model
rejects are skipped.  Any other error propagates, so a defect never
silently turns a seeded search into an unseeded one.
"""

from __future__ import annotations

import logging
from typing import Any, List, Sequence

from repro.core.config import CacheConfig
from repro.core.pareto import dominance_matrix
from repro.moo.objectives import OBJECTIVES, validate_objectives

__all__ = ["analytic_seeds"]

logger = logging.getLogger(__name__)


def analytic_seeds(
    evaluator: Any,
    space: Sequence[CacheConfig],
    objectives: Sequence[str] = ("cycles", "energy"),
    limit: int = 32,
) -> List[CacheConfig]:
    """Seed configurations for ``space``, cheapest model first.

    Returns the analytic-front members plus the per-line-size min-cache
    bound configurations, deduplicated in that order and truncated to
    ``limit``.  Empty when the workload carries no loop-nest kernel.
    Prices the space on ``evaluator.analytic_explorer()``, whose
    :meth:`~repro.core.analytic.AnalyticExplorer.price_space` table is
    memoised per space, so repeated searches on one evaluator price and
    order it once and each call runs one dominance kernel on its
    objective columns.
    """
    workload = getattr(evaluator, "workload", None)
    if getattr(workload, "kernel", None) is None:
        return []
    explorer = evaluator.analytic_explorer()
    table = explorer.price_space(space)
    columns = [OBJECTIVES.index(name) for name in validate_objectives(objectives)]
    beaten = dominance_matrix(table.values[:, columns]).any(axis=0)
    seeds: List[CacheConfig] = [
        config for config, out in zip(table.priced, beaten.tolist()) if not out
    ]
    # The paper's min-cache bound: the smallest in-space configuration at
    # each line size that the analytic model says will not thrash.
    for line in sorted({c.line_size for c in table.configs}):
        try:
            bound = explorer.min_cache_size(line)
        except ValueError:
            continue
        fitting = [
            c for c in table.configs if c.line_size == line and c.size >= bound
        ]
        if fitting:
            seeds.append(fitting[0])
    unique = list(dict.fromkeys(seeds))[:limit]
    logger.info(
        "analytic seeding: %d seeds for a %d-point space",
        len(unique),
        len(table.configs),
    )
    return unique
