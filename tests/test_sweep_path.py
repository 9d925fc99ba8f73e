"""One sweep path: every sweep runs through ParallelSweep's chunk executor.

``Evaluator.sweep``, ``CompositeProgram.explore`` and ``run_search`` at
``jobs=1`` behave the same with no resilience options and with the
default ``ResilienceOptions()``: one ``evaluate_batch`` per sweep (per
generation with cold configurations), the estimates of a direct
``evaluate_batch``, and a :class:`SweepChunkError` whose ``__cause__`` is
the evaluator's own exception.
"""

import pytest

from repro.core.composite import CompositeProgram
from repro.core.config import design_space
from repro.engine import (
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    SweepChunkError,
    order_configs,
)
from repro.kernels import make_compress, make_matadd
from repro.moo import SearchSettings, run_search


def _configs():
    return order_configs(design_space(max_size=128, min_size=16, tilings=(1,)))


def _evaluator():
    return Evaluator(KernelWorkload(make_compress(n=7)))


def _program():
    return CompositeProgram(
        [
            make_compress(n=7).with_invocations(3),
            make_matadd(n=6).with_invocations(5),
        ]
    )


def _sweep(evaluator, resilience, report):
    return list(
        evaluator.sweep(
            configs=_configs(), jobs=1, resilience=resilience
        ).estimates
    )


def _explore(program, resilience, report):
    return list(program.explore(_configs(), jobs=1, resilience=resilience))


def _search(evaluator, resilience, report):
    sweep = None
    if resilience is not None:
        sweep = ParallelSweep(jobs=1, resilience=resilience)
    run = run_search(
        evaluator,
        _configs(),
        SearchSettings(generations=4, population=8, seed=2),
        sweep=sweep,
        on_generation=lambda event, archive: report(event["evaluations"]),
    )
    return run.estimates


#: (entry point, target factory).  An entry point returns its estimates;
#: a search also calls ``report(evaluations so far)`` per generation.
PATHS = {
    "Evaluator.sweep": (_sweep, _evaluator),
    "CompositeProgram.explore": (_explore, _program),
    "run_search": (_search, _evaluator),
}

RESILIENCE = {"no-options": None, "default-options": ResilienceOptions()}


@pytest.fixture(params=sorted(PATHS))
def path(request):
    return PATHS[request.param]


@pytest.fixture(params=sorted(RESILIENCE))
def resilience(request):
    return RESILIENCE[request.param]


def test_one_batch_per_sweep_and_direct_estimates(
    path, resilience, monkeypatch
):
    entry, make = path
    target = make()
    batches = []
    original = type(target).evaluate_batch

    def recording(self, configs):
        configs = list(configs)
        batches.append(configs)
        return original(self, configs)

    monkeypatch.setattr(type(target), "evaluate_batch", recording)
    # run_search reports its cumulative evaluations after each generation:
    # a generation that evaluated anything made exactly one batch.
    generations = []
    estimates = entry(
        target,
        resilience,
        lambda evaluated: generations.append((evaluated, len(batches))),
    )
    if generations:
        previous = (0, 0)
        for evaluated, calls in generations:
            cold = evaluated - previous[0]
            assert calls - previous[1] == (1 if cold else 0)
            assert not cold or len(batches[calls - 1]) == cold
            previous = (evaluated, calls)
    else:
        assert len(batches) == 1
    assert sum(len(batch) for batch in batches) == len(estimates)
    monkeypatch.undo()
    configs = [estimate.config for estimate in estimates]
    assert make().evaluate_batch(configs) == estimates


def test_a_raising_evaluator_fails_with_a_chunk_error(
    path, resilience, monkeypatch
):
    entry, make = path
    target = make()
    bug = RuntimeError("backend fell over")

    def raising(self, configs):
        raise bug

    monkeypatch.setattr(type(target), "evaluate_batch", raising)
    with pytest.raises(SweepChunkError, match="backend fell over") as caught:
        entry(target, resilience, lambda evaluated: None)
    assert caught.value.__cause__ is bug
