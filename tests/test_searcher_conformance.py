"""Properties every registered searcher keeps, on every golden space.

Each case runs one ``run_search`` of a registered searcher on one of the
golden search spaces (``tests/test_search_golden.py``), with and without
analytic seeding, and checks it against the driver's contract:

* one seed run twice asks the same batches;
* a search fanned out with ``ParallelSweep(jobs=2)`` asks the same batches
  and reaches the same hypervolume as a serial one;
* every asked configuration is a row of ``row_index(space)``;
* the archive hypervolume never falls from one generation to the next.

A third-party searcher registered through a plugin joins the suite by
appearing in ``get_registry().names("searcher")``.
"""

import functools

import pytest

from repro.engine import ParallelSweep
from repro.moo import SearchSettings, row_index, run_search
from repro.registry import get_registry
from tests.test_search_golden import SPACES, Recorder, evaluator_for

SEARCHERS = get_registry().names("searcher")


def settings_for(searcher, seeded):
    return SearchSettings(
        searcher=searcher,
        generations=5,
        population=8,
        seed=3,
        archive_capacity=8,
        seed_population=seeded,
    )


def search(searcher, space, seeded, sweep=None):
    """The asked batches and the run of one recorded search on compress."""
    recorder = Recorder(get_registry().create("searcher", searcher))
    run = run_search(
        evaluator_for("compress"),
        SPACES[space](),
        settings_for(searcher, seeded),
        sweep=sweep,
        searcher=recorder,
    )
    return recorder.asked, run


@functools.lru_cache(maxsize=None)
def serial(searcher, space, seeded):
    return search(searcher, space, seeded)


CASES = pytest.mark.parametrize(
    "searcher, space, seeded",
    [
        (searcher, space, seeded)
        for searcher in SEARCHERS
        for space in sorted(SPACES)
        for seeded in (True, False)
    ],
)


@CASES
def test_one_seed_asks_the_same_batches(searcher, space, seeded):
    asked, run = serial(searcher, space, seeded)
    again, rerun = search(searcher, space, seeded)
    assert asked and again == asked
    assert rerun.events == run.events


@CASES
def test_parallel_sweep_changes_nothing(searcher, space, seeded):
    asked, run = serial(searcher, space, seeded)
    fanned, parallel = search(searcher, space, seeded, ParallelSweep(jobs=2))
    assert fanned == asked
    assert parallel.hypervolume == run.hypervolume
    assert [e.config for e in parallel.front] == [e.config for e in run.front]


@CASES
def test_asks_only_rows_of_the_space(searcher, space, seeded):
    asked, _ = serial(searcher, space, seeded)
    labels = {config.label(full=True) for config in row_index(SPACES[space]()).rows}
    strays = sorted({label for batch in asked for label in batch} - labels)
    assert not strays


@CASES
def test_archive_hypervolume_never_falls(searcher, space, seeded):
    _, run = serial(searcher, space, seeded)
    series = [event["hypervolume"] for event in run.events]
    assert series and None not in series
    assert all(later >= earlier for earlier, later in zip(series, series[1:]))
