"""Recorded multi-objective searches, compared exactly.

``tests/data/search_golden.json`` holds one record per search case below:
the configurations each generation asked for (labels, in asked order),
the final front, its hypervolume and the ``evaluations`` and
``generations`` counts of one ``run_search``.  Rewrites of the searchers,
the grammar, the dominance kernel or the analytic seeding must reproduce
every record bit for bit -- the same random draws in the same order.
Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_search_golden.py
"""

import functools
import itertools
import json
from pathlib import Path

import pytest

from repro.core.config import CacheConfig, design_space
from repro.core.pareto import pareto_points
from repro.engine import Evaluator, KernelWorkload
from repro.kernels import get_kernel
from repro.moo import SearchSettings, objective_vector, run_search
from repro.moo.searchers import Searcher
from repro.registry import get_registry

GOLDEN = Path(__file__).parent / "data" / "search_golden.json"

SEARCHERS = ("nsga2", "ge")
KERNELS = ("compress", "matmul", "pde", "sor")
SEEDS = (0, 1, 2)
OBJECTIVE_SETS = (
    ("cycles", "energy"),
    ("energy", "area"),
    ("cycles", "area"),
    ("cycles", "energy", "area"),
)
#: Small enough that three-objective fronts outgrow it, so pruning runs.
ARCHIVE_CAPACITY = 4
GENERATIONS = 5
POPULATION = 8

#: Configurations on the space but off the grammar's product: their tiling
#: exceeds the line count T/L, which the grammar never derives.
OFF_GRAMMAR = (CacheConfig(16, 8, 1, 4), CacheConfig(32, 16, 1, 8))


def grid_space():
    return tuple(design_space(max_size=128, ways=(1, 2, 4), tilings=(1, 2, 4)))


def off_grammar_space():
    grid = design_space(max_size=32, ways=(1, 2), tilings=(1, 2))
    return tuple(grid) + OFF_GRAMMAR


def fallback_space():
    # No direct-mapped point, so the grammar's ways axis is (2, 4); a
    # one-line geometry (C16L16) then falls back to ways (1,).
    return tuple(design_space(max_size=128, ways=(2, 4), tilings=(1, 2)))


SPACES = {
    "grid": grid_space,
    "off-grammar": off_grammar_space,
    "fallback": fallback_space,
}


def cases():
    """``(name, kernel, space, settings)`` of every recorded search."""
    grid = [
        (searcher, kernel, "grid", seed, objectives, seeded)
        for searcher, kernel, seed, objectives, seeded in itertools.product(
            SEARCHERS, KERNELS, SEEDS, OBJECTIVE_SETS, (True, False)
        )
    ]
    special = [
        (searcher, "compress", space, seed, ("cycles", "energy"), seeded)
        for searcher, space, seed, seeded in itertools.product(
            SEARCHERS, ("off-grammar", "fallback"), SEEDS, (True, False)
        )
    ]
    return [
        (
            f"{searcher} {kernel} {space} seed={seed} "
            f"objectives={'+'.join(objectives)} seeded={seeded}",
            kernel,
            space,
            SearchSettings(
                searcher=searcher,
                generations=GENERATIONS,
                population=POPULATION,
                seed=seed,
                objectives=objectives,
                archive_capacity=ARCHIVE_CAPACITY,
                seed_population=seeded,
            ),
        )
        for searcher, kernel, space, seed, objectives, seeded in grid + special
    ]


class Recorder(Searcher):
    """Passes every call through and keeps the labels of each asked batch."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def setup(self, space, **kwargs):
        self.inner.setup(space, **kwargs)

    def ask(self):
        batch = self.inner.ask()
        self.asked.append([config.label(full=True) for config in batch])
        return batch

    def tell(self, results):
        self.inner.tell(results)


@functools.lru_cache(maxsize=None)
def evaluator_for(kernel):
    return Evaluator(KernelWorkload(get_kernel(kernel)))


def record(name, kernel, space, settings):
    """JSON-ready account of one search."""
    recorder = Recorder(get_registry().create("searcher", settings.searcher))
    run = run_search(
        evaluator_for(kernel), SPACES[space](), settings, searcher=recorder
    )
    vectors = [objective_vector(e, settings.objectives) for e in run.estimates]
    return {
        "case": name,
        "asked": recorder.asked,
        "front": [e.config.label(full=True) for e in run.front],
        "hypervolume": run.hypervolume,
        "evaluations": run.evaluations,
        "generations": run.generations,
        "nondominated": len(pareto_points(vectors)),
    }


def all_records():
    return [record(*case) for case in cases()]


@functools.lru_cache(maxsize=None)
def golden():
    return {r["case"]: r for r in json.loads(GOLDEN.read_text())}


def groups():
    """Cases grouped by searcher and kernel (or special space)."""
    out = {}
    for case in cases():
        searcher, kernel, space = case[0].split()[:3]
        group = f"{searcher}-{kernel if space == 'grid' else space}"
        out.setdefault(group, []).append(case)
    return out


def test_golden_covers_every_case():
    names = [case[0] for case in cases()]
    assert len(names) == len(set(names)) == len(golden())
    assert set(names) == set(golden())


def test_cases_reach_the_paths_they_are_for():
    records = golden().values()
    # Pruning: more non-dominated points were seen than the archive holds.
    assert any(r["nondominated"] > ARCHIVE_CAPACITY for r in records)
    asked = {
        name: {label for batch in r["asked"] for label in batch}
        for name, r in golden().items()
    }
    off_labels = {c.label(full=True) for c in OFF_GRAMMAR}
    for searcher in SEARCHERS:
        # NSGA-II asks space members directly; GE only reaches what the
        # grammar derives, so only NSGA-II can meet the off-grammar ones.
        if searcher == "nsga2":
            assert any(
                off_labels & labels
                for name, labels in asked.items()
                if name.startswith(f"{searcher} compress off-grammar")
            )
        # The (1,) ways fallback derives a direct-mapped point.
        assert any(
            any(label.startswith("C16L16S1") for label in labels)
            for name, labels in asked.items()
            if name.startswith(f"{searcher} compress fallback")
        )


@pytest.mark.parametrize("group", sorted(groups()))
def test_searches_match_golden(group):
    mismatches = [
        case[0] for case in groups()[group] if record(*case) != golden()[case[0]]
    ]
    assert not mismatches


if __name__ == "__main__":
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in all_records()) + "\n]\n"
    )
